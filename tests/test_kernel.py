import itertools
import math

import numpy as np
import pytest

from svls import SvlsKernel, gaussian_taps, normalize_taps, svls_weights

from oracles import hp_svls_taps

# frozen from the 50-digit recomputation in oracles.hp_svls_taps
EDGE_2D = 0.1556148328
CORNER_2D = 0.0943851672
FACE_3D = 0.0616469471
EDGE_3D = 0.0373907635
CORNER_3D = 0.0226786444


def test_gaussian_taps_2d_sigma1():
    raw = gaussian_taps(2, 1.0)
    assert raw[1, 1] == 1.0
    assert raw[0, 1] == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert raw[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_gaussian_taps_3d_sigma1():
    raw = gaussian_taps(3, 1.0)
    assert raw[1, 1, 0] == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert raw[1, 0, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert raw[0, 0, 0] == pytest.approx(math.exp(-1.5), abs=1e-12)


def test_gaussian_flat_limit():
    raw = gaussian_taps(2, 1e6)
    assert np.all(np.abs(raw - 1.0) <= 1e-6)


@pytest.mark.parametrize("rank", [0, 1, 4])
def test_gaussian_rejects_bad_rank(rank):
    with pytest.raises(ValueError):
        gaussian_taps(rank, 1.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
def test_gaussian_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        gaussian_taps(2, sigma)


def test_svls_weights_2d_values():
    k = svls_weights(2, 1.0)
    assert k.taps[1, 1] == 1.0
    assert k.taps[0, 1] == pytest.approx(EDGE_2D, abs=1e-9)
    assert k.taps[0, 0] == pytest.approx(CORNER_2D, abs=1e-9)
    assert k.total_weight == pytest.approx(2.0, abs=1e-12)


def test_svls_weights_3d_values():
    k = svls_weights(3, 1.0)
    assert k.taps[1, 1, 1] == 1.0
    assert k.taps[1, 1, 0] == pytest.approx(FACE_3D, abs=1e-9)
    assert k.taps[1, 0, 0] == pytest.approx(EDGE_3D, abs=1e-9)
    assert k.taps[0, 0, 0] == pytest.approx(CORNER_3D, abs=1e-9)
    assert k.total_weight == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_total_weight_two_and_equal_contribution(rank, sigma):
    k = svls_weights(rank, sigma)
    assert abs(k.total_weight - 2.0) <= 1e-12
    # center and combined surroundings contribute equally
    assert k.taps[(1,) * rank] / k.total_weight == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_matches_high_precision_recomputation(rank, sigma):
    expected = hp_svls_taps(rank, sigma)
    got = svls_weights(rank, sigma).taps
    assert np.abs(got - expected).max() <= 1e-9


@pytest.mark.parametrize("scale", [1e-6, 3.7, 1e6])
def test_scale_invariance(scale):
    raw = gaussian_taps(3, 1.0)
    assert np.abs(normalize_taps(raw * scale) - normalize_taps(raw)).max() <= 1e-12


def test_taps_strictly_decrease_with_squared_offset():
    k = svls_weights(3, 1.0)
    by_r2 = {}
    for off in itertools.product((-1, 0, 1), repeat=3):
        if off == (0, 0, 0):
            continue
        by_r2.setdefault(sum(o * o for o in off), set()).add(k.taps[tuple(o + 1 for o in off)])
    radii = sorted(by_r2)
    values = [by_r2[r].pop() for r in radii]
    assert all(len(by_r2[r]) == 0 for r in radii)  # equal within each shell
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("rank", [2, 3])
def test_signed_permutation_symmetry(rank):
    taps = svls_weights(rank, 1.0).taps
    for perm in itertools.permutations(range(rank)):
        permuted = np.transpose(taps, perm)
        for flips in itertools.product([1, -1], repeat=rank):
            view = permuted[tuple(slice(None, None, f) for f in flips)]
            assert np.array_equal(view, taps)


def test_kernel_rejects_bad_center():
    taps = svls_weights(2, 1.0).taps.copy()
    taps[1, 1] = 0.9
    with pytest.raises(ValueError):
        SvlsKernel(rank=2, sigma=1.0, taps=taps)


def test_kernel_rejects_nonpositive_tap():
    taps = svls_weights(2, 1.0).taps.copy()
    taps[0, 0] = 0.0
    with pytest.raises(ValueError):
        SvlsKernel(rank=2, sigma=1.0, taps=taps)


def test_kernel_rejects_bad_surround_sum():
    taps = svls_weights(2, 1.0).taps.copy()
    taps[0, 0] += 0.01
    with pytest.raises(ValueError):
        SvlsKernel(rank=2, sigma=1.0, taps=taps)


def test_kernel_rejects_asymmetric_taps():
    taps = svls_weights(2, 1.0).taps.copy()
    eps = 1e-9  # keep sums within tolerance but break the reflection symmetry
    taps[0, 0] += eps
    taps[2, 2] -= eps
    with pytest.raises(ValueError, match="symmetric"):
        SvlsKernel(rank=2, sigma=1.0, taps=taps)
