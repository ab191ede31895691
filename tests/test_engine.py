import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svls import LabelVolume, RaterSet, SvlsKernel, engine, msvls_fuse, svls_smooth, volume

from conftest import slab_cuts, sum_block
from oracles import hp_svls_taps, naive_svls, ndimage_msvls

# frozen from the 50-digit recomputation in oracles.hp_svls_taps
EDGE_2D = 0.1556148328
CORNER_2D = 0.0943851672
FACE_3D = 0.0616469471
EDGE_3D = 0.0373907635
CORNER_3D = 0.0226786444


def test_gaussian_taps_2d_sigma1():
    # surround taps fall off as the Gaussian exp(-r^2 / 2) of their offset
    w = SvlsKernel(2, 1.0).weights
    assert w[0] == 1.0
    assert w[2] / w[1] == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_gaussian_taps_3d_sigma1():
    w = SvlsKernel(3, 1.0).weights
    assert w[2] / w[1] == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert w[3] / w[1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_gaussian_flat_limit():
    # every surround tap of a flat Gaussian gets 1/8 of the surround
    w = SvlsKernel(2, 1e6).weights
    assert np.all(np.abs(w[1:] - 1 / 8) <= 1e-12)


@pytest.mark.parametrize("rank", [0, 1, 4])
def test_gaussian_rejects_bad_rank(rank):
    with pytest.raises(ValueError):
        SvlsKernel(rank, 1.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
def test_gaussian_rejects_bad_sigma(sigma):
    # a sigma of 0 is not merely too small: it is rejected before its weights are formed
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        SvlsKernel(2, sigma)


@pytest.mark.parametrize("rank, sigma", [(2, 0.036), (3, 0.044), (3, 1e-160), (2, 1e-300)])
def test_sigma_whose_corner_weight_underflows_is_rejected(rank, sigma):
    with pytest.raises(ValueError, match="too small"):
        SvlsKernel(rank, sigma)


def test_svls_weights_2d_values():
    k = SvlsKernel(2, 1.0)
    assert k.taps[1, 1] == 1.0
    assert k.taps[0, 1] == pytest.approx(EDGE_2D, abs=1e-9)
    assert k.taps[0, 0] == pytest.approx(CORNER_2D, abs=1e-9)
    assert k.total_weight == pytest.approx(2.0, abs=1e-12)


def test_svls_weights_3d_values():
    k = SvlsKernel(3, 1.0)
    assert k.taps[1, 1, 1] == 1.0
    assert k.taps[1, 1, 0] == pytest.approx(FACE_3D, abs=1e-9)
    assert k.taps[1, 0, 0] == pytest.approx(EDGE_3D, abs=1e-9)
    assert k.taps[0, 0, 0] == pytest.approx(CORNER_3D, abs=1e-9)
    assert k.total_weight == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_total_weight_two_and_equal_contribution(rank, sigma):
    k = SvlsKernel(rank, sigma)
    assert abs(k.total_weight - 2.0) <= 1e-12
    # center and combined surroundings contribute equally
    assert k.taps[(1,) * rank] / k.total_weight == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("sigma", [0.1, 0.12, 0.15, 0.5, 1.0, 2.0])
def test_matches_high_precision_recomputation(rank, sigma):
    # relative error: the small-sigma taps are far below 1
    expected = hp_svls_taps(rank, sigma)
    got = SvlsKernel(rank, sigma).taps
    assert np.abs(got / expected - 1.0).max() <= 1e-13


def test_taps_strictly_decrease_with_squared_offset():
    k = SvlsKernel(3, 1.0)
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
    taps = SvlsKernel(rank, 1.0).taps
    for perm in itertools.permutations(range(rank)):
        permuted = np.transpose(taps, perm)
        for flips in itertools.product([1, -1], repeat=rank):
            view = permuted[tuple(slice(None, None, f) for f in flips)]
            assert np.array_equal(view, taps)


def test_kernel_holds_read_only_shell_weights():
    k = SvlsKernel(3, 1.0)
    assert k.weights.shape == (4,) and k.weights.dtype == np.float64
    assert not k.weights.flags.writeable
    assert k.total_weight == float(k.taps.sum())


def test_kernel_total_weight_is_computed_not_given():
    k = SvlsKernel(2, 1.0)
    assert k.total_weight == pytest.approx(2.0, abs=1e-12)
    # the weights and their sum follow from rank and sigma alone
    with pytest.raises(TypeError):
        SvlsKernel(2, 1.0, weights=k.weights)
    with pytest.raises(TypeError):
        SvlsKernel(2, 1.0, total_weight=5.0)


def test_kernels_compare_and_hash_by_rank_and_sigma():
    assert SvlsKernel(3, 1) == SvlsKernel(3, 1.0)
    assert SvlsKernel(3, 1.0) != SvlsKernel(3, 2.0)
    assert SvlsKernel(3, 1.0) != SvlsKernel(2, 1.0)
    assert len({SvlsKernel(3, 1), SvlsKernel(3, 1.0), SvlsKernel(2, 1.0)}) == 2


def test_rank_or_sigma_of_the_wrong_type_is_a_value_error():
    # a rank is an integer, a numpy one too; sigma is a real number, never a bool
    for rank, sigma, message in [(3.0, 1.0, "rank must be 2 or 3, got 3.0"),
                                 (2, "1", "sigma must be positive and finite, got 1"),
                                 (3, None, "sigma must be positive and finite, got None"),
                                 (2, True, "sigma must be positive and finite, got True")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            SvlsKernel(rank, sigma)
    assert SvlsKernel(np.int64(3), np.float32(0.5)) == SvlsKernel(3, 0.5)


def clamped_correlation(grid, taps):
    """Explicit per-voxel correlation; out-of-range reads clamp to the nearest voxel."""
    out = np.zeros(grid.shape)
    for idx in np.ndindex(*grid.shape):
        for off in np.ndindex(*taps.shape):
            src = tuple(min(max(i + o - 1, 0), n - 1) for i, o, n in zip(idx, off, grid.shape))
            out[idx] += taps[off] * grid[src]
    return out


def test_identity_stencil_returns_grid():
    grid = np.arange(25, dtype=np.uint8).reshape(5, 5)
    assert np.array_equal(engine.correlate_padded(grid, np.array([1.0, 0.0, 0.0])), grid)


def expand(weights):
    """The 3^rank taps of a shell-weight vector: each tap is the weight of the
    number of axes its offset leaves the center on."""
    shell = np.add.reduce(np.indices((3,) * (len(weights) - 1)) != 1, axis=0)
    return weights[shell]


def test_shell_symmetric_taps_match_clamped_index_loop(rng):
    # extents 1-2 are all border
    for _ in range(40):
        rank = int(rng.integers(2, 4))
        dims = tuple(rng.integers(1, 7, size=rank))
        grid = rng.integers(0, 28, size=dims).astype(np.uint8)
        weights = rng.random(rank + 1)
        got = engine.correlate_padded(grid, weights)
        assert got.shape == grid.shape
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, clamped_correlation(grid, expand(weights)), rtol=1e-13, atol=0)


def test_integer_grid_sums_do_not_wrap(rng, monkeypatch):
    # the widest shell sums 12 voxels in 3D and 4 in 2D: uint8 holds 12 * 21
    # and 4 * 63 but not 12 * 22 or 4 * 64, and 12 * (2**32 - 1) needs 64
    # bits; the sums take the smallest unsigned type that holds them
    seen = set()
    pair_sum = engine._pair_sum
    monkeypatch.setattr(engine, "_pair_sum", lambda a, axis: seen.add(a.dtype) or pair_sum(a, axis))
    cases = [
        ((3, 4, 5), np.uint8, 21, np.uint8),
        ((3, 4, 5), np.uint8, 22, np.uint16),
        ((4, 4), np.uint8, 63, np.uint8),
        ((4, 4), np.uint8, 64, np.uint16),
        ((3, 3, 3), np.uint16, 5461, np.uint16),
        ((3, 3, 3), np.uint16, 5462, np.uint32),
        ((3, 3, 3), np.uint32, 1, np.uint32),
        ((3, 3, 3), np.uint32, 2**32 - 1, np.uint64),
    ]
    for dims, dtype, value, sums in cases:
        grid = np.full(dims, value, dtype)
        grid[(0,) * len(dims)] = 0  # not one value everywhere
        weights = rng.random(grid.ndim + 1)
        seen.clear()
        np.testing.assert_allclose(engine.correlate_padded(grid, weights),
                                   clamped_correlation(grid, expand(weights)), rtol=1e-13, atol=0)
        assert seen == {np.dtype(sums)}, (dims, dtype, value)


def test_grid_that_is_not_uint8_16_or_32_counts_is_rejected():
    for dtype in (np.int8, np.int64, np.uint64, np.float64, np.bool_):
        with pytest.raises(ValueError, match=f"counts must be uint8, uint16 or uint32, got {np.dtype(dtype)}"):
            engine.correlate_padded(np.ones((3, 3), dtype), np.ones(3))


def test_correlate_rejects_mismatched_taps(rng):
    grid = rng.integers(0, 3, size=(4, 4, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="shell weights"):
        engine.correlate_padded(grid, rng.random(3))
    with pytest.raises(ValueError, match="shell weights"):
        engine.correlate_padded(grid, rng.random((3, 3, 3)))
    with pytest.raises(ValueError, match="shell weights"):
        engine.correlate_padded(grid[0, 0], rng.random(2))


@settings(max_examples=80, deadline=None)
@given(cut=slab_cuts(), data=st.data())
def test_slabbed_stencil_keeps_the_whole_plane_bytes(cut, data):
    # the weighted shells go into the result one slab of rows at a time;
    # one slab over the whole plane is the unslabbed stencil
    dims, block, num_slabs = cut
    n = data.draw(st.integers(2, 4))
    labels = arrays(np.uint8, dims, elements=st.integers(0, n - 1))
    raters = [data.draw(labels) for _ in range(data.draw(st.integers(1, 3)))]
    rater_set = RaterSet(tuple(LabelVolume(r, (1.0,) * len(dims), n) for r in raters))
    sigma = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    with sum_block(block):
        assert len(volume.slabs(dims)) == num_slabs
        single = svls_smooth(rater_set.raters[0], sigma).data
        fused = msvls_fuse(rater_set, sigma).data
    with sum_block(math.prod(dims)):
        assert len(volume.slabs(dims)) == 1
        assert single.tobytes() == svls_smooth(rater_set.raters[0], sigma).data.tobytes()
        assert fused.tobytes() == msvls_fuse(rater_set, sigma).data.tobytes()
    taps = SvlsKernel(len(dims), sigma).taps
    # within half a float32 ulp of the float64 naive loop, one ulp of scipy's correlation
    expected = naive_svls(raters[0], n, taps)
    half_ulp = np.ldexp(0.5, np.frexp(expected)[1] - 24)
    assert np.all(np.abs(single - expected) <= half_ulp + 1e-15)
    ulps = np.abs(fused.view(np.int32).astype(np.int64) - ndimage_msvls(raters, n, taps).view(np.int32))
    assert ulps.max() <= 1
