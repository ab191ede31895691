import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svls import (
    LabelVolume,
    RaterSet,
    SvlsKernel,
    argmax_labels,
    label_smooth,
    moh_fuse,
    msvls_fuse,
    one_hot_encode,
    svls_smooth,
)
from svls.smoothing import SoftPlanes, _RowWriter

from conftest import random_labels, sum_block
from oracles import naive_svls, ndimage_msvls


def grid(data, num_classes=2):
    data = np.asarray(data, dtype=np.uint8)
    return LabelVolume(data, (1.0,) * data.ndim, num_classes)


def test_label_smooth_four_classes():
    soft = label_smooth(grid([[0]], num_classes=4), 0.1)
    expected = np.float32([0.925, 0.025, 0.025, 0.025])
    assert np.array_equal(soft.data[:, 0, 0], expected)


def test_label_smooth_alpha_zero_is_one_hot(rng):
    vol = random_labels(rng, (4, 4), 3)
    assert np.array_equal(label_smooth(vol, 0.0).data, one_hot_encode(vol).data)


def test_label_smooth_alpha_one_is_uniform(rng):
    vol = random_labels(rng, (4, 4), 4)
    assert np.all(label_smooth(vol, 1.0).data == np.float32(0.25))


def test_label_smooth_binary():
    soft = label_smooth(grid([[1]]), 0.3)
    assert np.array_equal(soft.data[:, 0, 0], np.float32([0.15, 0.85]))


def test_label_smooth_rejects_bad_alpha():
    with pytest.raises(ValueError):
        label_smooth(grid([[0]]), 1.5)
    with pytest.raises(ValueError):
        label_smooth(grid([[0]]), -0.1)


@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3])
@pytest.mark.parametrize("num_classes", [2, 3, 5])
def test_label_smooth_argmax_recovers_labels(rng, alpha, num_classes):
    vol = random_labels(rng, (4, 5), num_classes)
    assert np.array_equal(argmax_labels(label_smooth(vol, alpha)).data, vol.data)


def test_svls_homogeneous_is_one_hot():
    vol = grid(np.ones((5, 5)))
    soft = svls_smooth(vol, 1.0)
    assert np.array_equal(soft.data, one_hot_encode(vol).data)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_svls_isolated_center_splits_evenly(sigma):
    data = np.zeros((3, 3), dtype=np.uint8)
    data[1, 1] = 1
    soft = svls_smooth(grid(data), sigma)
    assert soft.data[0, 1, 1] == np.float32(0.5)
    assert soft.data[1, 1, 1] == np.float32(0.5)


def test_svls_straight_boundary_worked_value():
    # center voxel class 0 with its 3 upper neighbors class 1: the class-1
    # probability is (edge + 2 corners) / 2, frozen from the tap derivation
    data = np.zeros((3, 3), dtype=np.uint8)
    data[0, :] = 1
    soft = svls_smooth(grid(data), 1.0)
    assert soft.data[1, 1, 1] == pytest.approx(0.1721925836, abs=1e-6)
    assert soft.data[0, 1, 1] == pytest.approx(0.8278074164, abs=1e-6)


def test_svls_matches_naive_oracle(rng):
    kernel2, kernel3 = SvlsKernel(2, 1.0), SvlsKernel(3, 1.0)
    for _ in range(10):
        rank = int(rng.integers(2, 4))
        dims = tuple(rng.integers(1, 8, size=rank))
        n = int(rng.integers(2, 5))
        vol = random_labels(rng, dims, n)
        kernel = kernel2 if rank == 2 else kernel3
        expected = naive_svls(vol.data, n, kernel.taps)
        got = svls_smooth(vol, kernel.sigma).data
        assert np.abs(got - expected).max() <= 1e-6


def test_sigma_floor_follows_the_volume_rank():
    # the corner weight exp(-rank / (2 sigma^2)) underflows below sigma
    # 0.037 in 2D and 0.045 in 3D: 0.04 lies between the two floors
    flat, deep = grid(np.eye(3)), grid(np.eye(3)[None].repeat(3, axis=0))
    soft = svls_smooth(flat, 0.04)
    assert np.array_equal(msvls_fuse(RaterSet((flat, flat)), 0.04).data, soft.data)
    with pytest.raises(ValueError, match="sigma 0.04 is too small"):
        svls_smooth(deep, 0.04)
    with pytest.raises(ValueError, match="sigma 0.04 is too small"):
        msvls_fuse(RaterSet((deep, deep)), 0.04)


def test_svls_interior_identity(rng):
    # voxels whose full neighborhood shares a class map to exact one-hot
    vol = random_labels(rng, (7, 7, 7), 3)
    data = np.array(vol.data)
    data[1:6, 1:6, 1:6] = 2
    vol = LabelVolume(data, vol.spacing, 3)
    soft = svls_smooth(vol, 1.0)
    assert np.all(soft.data[2, 2:5, 2:5, 2:5] == 1.0)
    assert np.all(soft.data[0, 2:5, 2:5, 2:5] == 0.0)


def test_svls_neighbor_relabel_increases_probability(rng):
    for _ in range(20):
        bits = rng.integers(0, 2, size=8)
        data = np.zeros((3, 3), dtype=np.uint8)
        positions = [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
        for (i, j), b in zip(positions, bits):
            data[i, j] = b
        base = svls_smooth(grid(data), 1.0).data[1, 1, 1]
        flip = int(rng.integers(0, 8))
        if bits[flip] == 1:
            continue
        bumped = data.copy()
        bumped[positions[flip]] = 1
        assert svls_smooth(grid(bumped), 1.0).data[1, 1, 1] > base


@pytest.mark.parametrize("method", ["ls", "svls", "msvls", "moh"])
def test_simplex_preservation(rng, method):
    for _ in range(10):
        rank = int(rng.integers(2, 4))
        dims = tuple(rng.integers(2, 7, size=rank))
        n = int(rng.integers(2, 6))
        vol = random_labels(rng, dims, n)
        if method == "ls":
            soft = label_smooth(vol, float(rng.uniform(0, 1)))
        elif method == "svls":
            soft = svls_smooth(vol, 1.0)
        else:
            raters = RaterSet(tuple(random_labels(rng, dims, n) for _ in range(3)))
            soft = msvls_fuse(raters, 1.0) if method == "msvls" else moh_fuse(raters)
        sums = soft.data.sum(axis=0, dtype=np.float64)
        assert np.abs(sums - 1.0).max() <= 1e-6
        assert soft.data.min() >= 0.0 and soft.data.max() <= 1.0


def test_msvls_single_rater_equals_svls(rng):
    vol = random_labels(rng, (4, 4), 3)
    fused = msvls_fuse(RaterSet((vol,)), 1.0)
    assert np.array_equal(fused.data, svls_smooth(vol, 1.0).data)


def test_msvls_unanimous_interior():
    raters = RaterSet(tuple(grid(np.ones((5, 5))) for _ in range(3)))
    fused = msvls_fuse(raters, 1.0)
    assert np.all(fused.data[1] == 1.0)


def test_msvls_averages_rater_probabilities():
    # rater 1: homogeneous class 1 (center value 1.0)
    # rater 2: isolated class-1 center (center value 0.5) -> mean 0.75
    iso = np.zeros((3, 3), dtype=np.uint8)
    iso[1, 1] = 1
    raters = RaterSet((grid(np.ones((3, 3))), grid(iso)))
    fused = msvls_fuse(raters, 1.0)
    assert fused.data[1, 1, 1] == np.float32(0.75)


def test_moh_counts_votes():
    raters = RaterSet(tuple(grid([[1]]) for _ in range(3)) + (grid([[0]]),))
    fused = moh_fuse(raters)
    assert np.array_equal(fused.data[:, 0, 0], np.float32([0.25, 0.75]))


def test_moh_unanimous_is_one_hot(rng):
    vol = random_labels(rng, (4, 4), 3)
    fused = moh_fuse(RaterSet((vol, vol, vol)))
    assert np.array_equal(fused.data, one_hot_encode(vol).data)


def test_fusion_order_invariance(rng):
    dims, n = (4, 5), 3
    raters = [random_labels(rng, dims, n) for _ in range(4)]
    shuffled = [raters[2], raters[0], raters[3], raters[1]]
    assert np.array_equal(
        msvls_fuse(RaterSet(tuple(raters)), 1.0).data,
        msvls_fuse(RaterSet(tuple(shuffled)), 1.0).data,
    )
    assert np.array_equal(
        moh_fuse(RaterSet(tuple(raters))).data, moh_fuse(RaterSet(tuple(shuffled))).data
    )


def test_moh_zero_vs_msvls_positive_adjacent_class():
    # every rater labels the probe voxel class 1, but class 2 is adjacent in
    # every rater: vote fractions give class 2 zero there, smoothing does not
    base = np.zeros((5, 5), dtype=np.uint8)
    base[:, :2] = 1
    base[:, 2:4] = 2
    shifted = np.zeros((5, 5), dtype=np.uint8)
    shifted[:, :3] = 1
    shifted[:, 3:] = 2
    raters = RaterSet((grid(base, 3), grid(shifted, 3)))
    probe = (2, 1)  # class 1 for both raters, class 2 within one voxel for both
    fused_votes = moh_fuse(raters)
    fused_soft = msvls_fuse(raters, 1.0)
    assert fused_votes.data[(2,) + probe] == 0.0
    assert fused_soft.data[(2,) + probe] > 0.0


def test_rater_set_validation(rng):
    with pytest.raises(ValueError):
        RaterSet(())
    a = random_labels(rng, (3, 3), 2)
    b = random_labels(rng, (4, 3), 2)
    with pytest.raises(ValueError, match="rater 1 vs rater 0: shape mismatch: dims"):
        RaterSet((a, b))
    c = LabelVolume(np.zeros((3, 3), dtype=np.uint8), (2.0, 1.0), 2)
    with pytest.raises(ValueError, match="rater 2 vs rater 0: spacing mismatch"):
        RaterSet((a, a, c))


@st.composite
def rater_sets(draw, max_raters=4):
    """2-D/3-D rater sets: extents 1-6, 1 to `max_raters` raters, 2-5 classes."""
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=2, max_size=3)))
    n = draw(st.integers(2, 5))
    labels = arrays(np.uint8, dims, elements=st.integers(0, n - 1))
    raters = draw(st.lists(labels, min_size=1, max_size=max_raters))
    return RaterSet(tuple(LabelVolume(r, (1.0,) * len(dims), n) for r in raters))


@settings(max_examples=60, deadline=None)
@given(raters=rater_sets())
def test_msvls_is_correctly_rounded_mean_of_naive_svls(raters):
    # one stencil pass over the vote shares, rounded to float32 once: every
    # voxel lies within half a float32 ulp of the float64 per-rater mean
    first = raters.raters[0]
    kernel = SvlsKernel(first.rank, 1.0)
    expected = np.mean([naive_svls(r.data, first.num_classes, kernel.taps) for r in raters.raters], axis=0)
    got = msvls_fuse(raters, kernel.sigma).data.astype(np.float64)
    _, exponent = np.frexp(expected)
    half_ulp = np.ldexp(0.5, exponent - 24)  # float32 ulp of the binade holding `expected`, halved
    assert np.all(np.abs(got - expected) <= half_ulp + 1e-15)


def float32_ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in float32 ulps between two arrays of non-negative float32."""
    return np.abs(a.view(np.int32).astype(np.int64) - b.view(np.int32))


@settings(max_examples=150, deadline=None)
@given(raters=rater_sets(max_raters=5), sigma=st.floats(0.3, 3.7))
def test_svls_and_msvls_match_the_ndimage_correlation_within_one_ulp(raters, sigma):
    # integer shell sums weighted by their taps against scipy's float64
    # correlation of the vote shares: both round to float32 once
    first = raters.raters[0]
    kernel = SvlsKernel(first.rank, sigma)
    single = ndimage_msvls([first.data], first.num_classes, kernel.taps)
    assert float32_ulps(svls_smooth(first, kernel.sigma).data, single).max() <= 1
    fused = ndimage_msvls([r.data for r in raters.raters], first.num_classes, kernel.taps)
    assert float32_ulps(msvls_fuse(raters, kernel.sigma).data, fused).max() <= 1


def test_msvls_vote_sums_of_many_raters_do_not_wrap(rng):
    # 25 raters in 3D: an edge shell sums 12 neighbours of up to 25 votes,
    # 300, which uint8 counts would wrap; each rater moves one voxel
    base = np.zeros((6, 7, 8), dtype=np.uint8)
    base[1:4, 2:6, 3:7] = 1
    raters = []
    for _ in range(25):
        data = base.copy()
        data[tuple(rng.integers(0, n) for n in data.shape)] ^= 1
        raters.append(grid(data))
    kernel = SvlsKernel(3, 1.0)
    fused = ndimage_msvls([r.data for r in raters], 2, kernel.taps)
    assert float32_ulps(msvls_fuse(RaterSet(tuple(raters)), kernel.sigma).data, fused).max() <= 1


@settings(max_examples=60, deadline=None)
@given(raters=rater_sets(), alpha=st.floats(0.0, 1.0))
def test_every_soft_target_keeps_the_simplex(raters, alpha):
    first = raters.raters[0]
    for soft in (
        one_hot_encode(first),
        label_smooth(first, alpha),
        svls_smooth(first, 1.0),
        msvls_fuse(raters, 1.0),
        moh_fuse(raters),
    ):
        assert soft.data.shape == (first.num_classes,) + first.dims
        assert np.abs(soft.data.sum(axis=0, dtype=np.float64) - 1.0).max() <= 1e-6
        assert soft.data.min() >= 0.0 and soft.data.max() <= 1.0


def nearest_float32(num: int, den: int) -> np.float32:
    """num / den (non-negative ints) correctly rounded to float32, ties to even."""
    near = num / den  # correctly rounded to float64
    f = np.float32(near)
    if float(f) == near:
        return f
    g = np.nextafter(f, np.float32(math.inf if near > f else -math.inf))
    mid = (float(f) + float(g)) / 2  # exact: f and g are float32
    if near != mid:  # float64 rounding cannot carry a value across a float32 midpoint
        return f
    exact = Fraction(num, den)
    if exact == mid:
        return f  # np.float32 rounds the tie to even
    return min(f, g) if exact < mid else max(f, g)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("num_raters", [1, 2, 3])
@pytest.mark.parametrize("rank", [2, 3])
def test_msvls_center_is_the_correctly_rounded_exact_shell_sum(rank, num_raters, sigma):
    # every combination of per-shell vote counts c_m, each in its own tiled
    # 3^rank block: the block center must be the float32 nearest to the exact
    # rational sum(w_m * c_m) / (R * W), with w_m the shell's tap and W the
    # total weight as the kernel holds them
    kernel = SvlsKernel(rank, sigma)
    shell = np.add.reduce(np.indices((3,) * rank) != 1, axis=0).ravel()
    sizes = [math.comb(rank, m) * 2**m for m in range(rank + 1)]
    slot = np.empty_like(shell)  # each voxel's index within its shell
    for m in range(rank + 1):
        slot[shell == m] = np.arange(sizes[m])
    counts = np.array(list(itertools.product(*(range(num_raters * n + 1) for n in sizes))))
    raters = []
    for r in range(num_raters):
        # c_m fills shell m's R * n_m (rater, voxel) slots in order: rater r
        # votes at the shell's j-th voxel when r * n_m + j < c_m
        blocks = (r * np.take(sizes, shell) + slot < counts[:, shell]).astype(np.uint8)
        data = blocks.reshape((3 * len(counts),) + (3,) * (rank - 1))  # blocks stacked on axis 0
        raters.append(LabelVolume(data, (1.0,) * rank, 2))
    fused = msvls_fuse(RaterSet(tuple(raters)), kernel.sigma).data
    got = fused[(1, slice(1, None, 3)) + (1,) * (rank - 1)]

    weights = [Fraction(float(kernel.taps[(0,) * m + (1,) * (rank - m)])) for m in range(rank + 1)]
    total = Fraction(kernel.total_weight)
    scale = max(w.denominator for w in weights + [total])  # all powers of two
    numerators = [int(w * scale) for w in weights]
    den = num_raters * int(total * scale)
    expected = [nearest_float32(sum(a * int(c) for a, c in zip(numerators, row)), den) for row in counts]
    bad = np.flatnonzero(got != np.array(expected, dtype=np.float32))
    assert bad.size == 0, f"{bad.size} of {len(counts)} centers differ, first counts {counts[bad[0]]}"


# every encoder, called on one label volume and on a rater set led by it
ENCODERS = {
    "onehot": lambda labels, raters, **kw: one_hot_encode(labels, **kw),
    "ls": lambda labels, raters, **kw: label_smooth(labels, 0.2, **kw),
    "svls": lambda labels, raters, **kw: svls_smooth(labels, 1.0, **kw),
    "moh": lambda labels, raters, **kw: moh_fuse(raters, **kw),
    "msvls": lambda labels, raters, **kw: msvls_fuse(raters, 1.0, **kw),
}


class _CountedReads:
    """A label volume's grid whose `data` gives its labels and counts the times it is asked for them."""

    def __init__(self, labels):
        self.labels, self.reads = labels, 0
        self.dims, self.rank, self.num_classes = labels.dims, labels.rank, labels.num_classes
        self.spacing = labels.spacing

    @property
    def data(self):
        self.reads += 1
        return self.labels.data


@pytest.mark.parametrize("name", ENCODERS)
def test_streamed_planes_are_the_whole_volumes_built_into_one_plane(rng, name):
    # each class plane is built into a row writer as the volume is written,
    # and reaches the file one float32 slab of rows at a time
    raters = RaterSet(tuple(random_labels(rng, (5, 6, 7), 3, spacing=(1.0, 2.0, 0.5)) for _ in range(3)))
    whole = ENCODERS[name](raters.raters[0], raters)
    counted = RaterSet(tuple(_CountedReads(r) for r in raters.raters))
    planes = ENCODERS[name](counted.raters[0], counted, streamed=True)
    assert isinstance(planes, SoftPlanes)
    assert (planes.dims, planes.num_classes, planes.spacing) == (whole.dims, 3, whole.spacing)
    assert [r.reads for r in counted.raters] == [0, 0, 0]  # nothing is built before the write
    chunks = []
    with sum_block(84):  # slabs of two rows
        planes.write_to(chunks.append)
    assert b"".join(chunks) == whole.data.tobytes()
    slab_shapes = [(2, 6, 7), (2, 6, 7), (1, 6, 7)]
    assert [(c.shape, c.dtype.str) for c in chunks] == [(shape, "<f4") for shape in slab_shapes * 3]
    # the planes are built once: each class reads each rater it counts once
    assert [r.reads for r in counted.raters] == ([3, 3, 3] if name in ("moh", "msvls") else [3, 0, 0])


@pytest.mark.parametrize("rows, shape", [
    (slice(3, 4), (1, 3)),  # a row skipped
    (slice(0, 2), (2, 3)),  # rows written again
    (slice(2, 4, 2), (1, 3)),  # every other row
    (slice(2, 4), (1, 3)),  # a slab of fewer rows than it is written to
    (slice(2, 4), (2, 4)),  # a slab of another row shape
])
def test_a_row_writer_refuses_rows_that_do_not_continue_its_plane(rows, shape):
    chunks = []
    writer = _RowWriter(chunks.append, (4, 3))
    writer[0:2] = np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"the \(4, 3\) plane is written up to row 2; rows "):
        writer[rows] = np.ones(shape)
    writer[2:4] = np.ones((2, 3))
    assert b"".join(chunks) == np.float32([0] * 6 + [1] * 6).tobytes()
