import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svls import (
    LabelVolume,
    LogitVolume,
    SoftLabelVolume,
    ce_gradient,
    cross_entropy,
    label_smooth,
    one_hot_encode,
    softmax,
    svls_smooth,
    volume,
)
from svls.cli import streamed_loss
from svls.loss import LOG_FLOOR
from svls.tensor_io import write_volume

from conftest import slab_cuts, sum_block
from oracles import whole_volume_cross_entropy, whole_volume_softmax

SPACING2 = (1.0, 1.0)

# entropy of the straight-boundary voxel distribution (0.8278074, 0.1721926),
# frozen from a 50-digit evaluation of -sum(p*log(p))
BOUNDARY_ENTROPY = 0.4593458557


def logits(values):
    arr = np.asarray(values, dtype=np.float64)
    return LogitVolume(arr.reshape(arr.shape + (1, 1)), SPACING2)


def random_simplex(rng, num_classes, dims):
    raw = rng.random((num_classes,) + dims) + 1e-3
    return SoftLabelVolume(raw / raw.sum(axis=0), (1.0,) * len(dims))


def test_softmax_symmetric():
    probs = softmax(logits([0.0, 0.0]))
    assert np.array_equal(probs.data[:, 0, 0], [0.5, 0.5])


def test_softmax_shift_invariant_no_overflow():
    probs = softmax(logits([1000.0, 1000.0, 1000.0]))
    assert np.allclose(probs.data[:, 0, 0], 1.0 / 3.0, atol=1e-12)


def test_softmax_closed_form():
    probs = softmax(logits([math.log(2.0), 0.0]))
    assert np.allclose(probs.data[:, 0, 0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        LogitVolume(np.array([[[np.inf]], [[0.0]]]), SPACING2)


def test_cross_entropy_exact_one_hot_is_zero(rng):
    vol = LabelVolume(rng.integers(0, 3, size=(3, 3)).astype(np.uint8), SPACING2, 3)
    target = one_hot_encode(vol)
    report = cross_entropy(target, target)
    # every voxel's loss is >= 0, so a zero sum is a zero loss at every voxel
    assert report.loss_sum == 0.0
    assert report.total == 0.0


def test_cross_entropy_uniform_prediction():
    target = SoftLabelVolume(np.float32([1.0, 0.0]).reshape(2, 1, 1), SPACING2)
    predicted = SoftLabelVolume(np.float32([0.5, 0.5]).reshape(2, 1, 1), SPACING2)
    assert cross_entropy(target, predicted).total == pytest.approx(math.log(2.0), abs=1e-7)


def test_cross_entropy_boundary_self_entropy():
    data = np.zeros((3, 3), dtype=np.uint8)
    data[0, :] = 1
    target = svls_smooth(LabelVolume(data, SPACING2, 2), 1.0)
    center = SoftLabelVolume(target.data[:, 1:2, 1:2], SPACING2)
    report = cross_entropy(center, center)
    assert report.voxels == 1
    assert report.loss_sum == pytest.approx(BOUNDARY_ENTROPY, abs=1e-6)


def test_cross_entropy_shape_mismatch():
    a = SoftLabelVolume(np.float32([1.0, 0.0]).reshape(2, 1, 1), SPACING2)
    b = SoftLabelVolume(np.full((2, 1, 2), 0.5, dtype=np.float32), SPACING2)
    with pytest.raises(ValueError, match="shape"):
        cross_entropy(a, b)


def test_cross_entropy_rejects_label_volumes():
    # the (X, Y, Z) label grid has the (N, X, Y) shape of the probabilities
    labels = LabelVolume(np.zeros((2, 1, 1), dtype=np.uint8), (1.0, 1.0, 1.0), 2)
    probs = SoftLabelVolume(np.float32([1.0, 0.0]).reshape(2, 1, 1), SPACING2)
    for operands in ((labels, probs), (probs, labels)):
        with pytest.raises(TypeError, match="LabelVolume"):
            cross_entropy(*operands)


def test_cross_entropy_total_is_mean_of_per_voxel(rng):
    target = random_simplex(rng, 3, (4, 5))
    predicted = random_simplex(rng, 3, (4, 5))
    report = cross_entropy(target, predicted)
    per_voxel = whole_volume_cross_entropy(target.data, predicted.data, LOG_FLOOR)
    assert report.voxels == per_voxel.size
    assert report.total == pytest.approx(per_voxel.mean(), abs=1e-12)
    assert report.total >= 0.0


def slab_rule_sum(grid):
    """The sum of a per-voxel loss grid by the slab rule: the `math.fsum` of
    numpy's float64 sums of its `volume.slabs` slabs."""
    return math.fsum(grid[part].sum() for part in volume.slabs(grid.shape))


# How far the slab rule's total may lie from the exactly rounded mean
# `math.fsum(every voxel) / voxels`, in units in the last place of the
# latter. numpy sums a contiguous run of n float64 values pairwise: a run of
# more than 128 is split in two, the first part rounded down to a multiple
# of 8, so the larger part holds at most n/2 + 7.5 values, and halving one
# SUM_BLOCK slab (2**14 values) down to runs of at most 128 takes at most 8
# levels. A run of at most 128 goes through 8 interleaved running sums (at
# most 15 additions each), 3 levels that join them and at most 7 additions
# of the rest: 25 roundings. With one more addition into the reduction's
# initial value, every term meets at most d = 8 + 25 + 1 = 34 roundings, so
# for non-negative terms a slab's sum is within gamma_d = d*u / (1 - d*u)
# of its exact sum, u = 2**-53 (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., section 4.2), and so is the exact sum of the slab
# sums. `math.fsum` and the division add two roundings (u each) to the
# total and two to the reference, so the two differ by at most about
# (d + 4) * u * mean, and an ulp of a float x exceeds x * u: under d + 5.
TOTAL_ULPS = 34 + 5


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 200), scale=st.floats(0.1, 60.0))
def test_total_is_within_a_derived_bound_of_the_exactly_rounded_mean(seed, rows, scale):
    # 256 voxels a row: 64-row slabs, up to 4 of them at 200 rows; a large
    # score scale spreads the terms over many orders of magnitude
    rng = np.random.default_rng(seed)
    dims = (rows, 16, 16)
    target = random_simplex(rng, 3, dims)
    predicted = softmax(LogitVolume(scale * rng.standard_normal((3,) + dims), target.spacing))
    report = cross_entropy(target, predicted)
    per_voxel = whole_volume_cross_entropy(target.data, predicted.data, LOG_FLOOR)
    assert report.voxels == per_voxel.size
    assert report.loss_sum == math.fsum(per_voxel[part].sum() for part in volume.slabs(dims))
    exact = math.fsum(per_voxel.ravel()) / report.voxels
    assert abs(report.total - exact) <= TOTAL_ULPS * math.ulp(exact)


def test_gibbs_inequality(rng):
    for _ in range(50):
        target = random_simplex(rng, 4, (2, 2))
        other = random_simplex(rng, 4, (2, 2))
        self_ce = cross_entropy(target, target).total
        cross_ce = cross_entropy(target, other).total
        assert cross_ce >= self_ce - 1e-12


def test_gradient_zero_at_optimum(rng):
    scores = logits([0.3, -0.7, 1.1])
    target = softmax(scores)
    grad = ce_gradient(target, scores)
    assert np.abs(grad).max() <= 1e-12


def test_gradient_closed_form():
    target = SoftLabelVolume(np.float32([1.0, 0.0]).reshape(2, 1, 1), SPACING2)
    grad = ce_gradient(target, logits([0.0, 0.0]))
    assert np.allclose(grad[:, 0, 0], [-0.5, 0.5], atol=1e-12)


def test_gradient_components_sum_to_zero(rng):
    target = random_simplex(rng, 4, (3, 3))
    scores = LogitVolume(rng.normal(size=(4, 3, 3)), SPACING2)
    grad = ce_gradient(target, scores)
    assert np.abs(grad.sum(axis=0)).max() <= 1e-6


def test_gradient_matches_finite_differences(rng):
    h = 1e-4
    for _ in range(10):
        dims = (2, 2)
        target = random_simplex(rng, 3, dims)
        base = rng.normal(size=(3,) + dims)
        grad = ce_gradient(target, LogitVolume(base, SPACING2))
        for idx in np.ndindex(*base.shape):
            plus, minus = base.copy(), base.copy()
            plus[idx] += h
            minus[idx] -= h
            # a score moves only its own voxel's loss, so the sum's difference is that voxel's
            fd = (
                cross_entropy(target, softmax(LogitVolume(plus, SPACING2))).loss_sum
                - cross_entropy(target, softmax(LogitVolume(minus, SPACING2))).loss_sum
            ) / (2 * h)
            assert abs(fd - grad[idx]) <= 1e-5


def test_cross_entropy_affine_in_alpha(rng):
    # with LS targets and fixed predictions, CE is affine in alpha
    vol = LabelVolume(rng.integers(0, 4, size=(4, 4)).astype(np.uint8), SPACING2, 4)
    predicted = random_simplex(rng, 4, (4, 4))
    ce = [cross_entropy(label_smooth(vol, a), predicted).total for a in (0.0, 0.15, 0.3)]
    assert ce[1] == pytest.approx((ce[0] + ce[2]) / 2.0, abs=1e-6)


@st.composite
def scored_grids(draw, dims=None):
    """Targets (shares of random counts, float32 or float64, or one-hot) and
    float32 or float64 logits on one grid, the given dims or random 2-D or
    3-D ones."""
    if dims is None:
        dims = tuple(draw(st.lists(st.integers(1, 6), min_size=2, max_size=3)))
    n = draw(st.integers(2, 5))
    spacing = (1.0,) * len(dims)
    counts = draw(arrays(np.int64, (n,) + dims, elements=st.integers(0, 6)))
    counts[0] += 1  # no voxel without votes
    if draw(st.booleans()):
        labels = LabelVolume(np.argmax(counts, axis=0).astype(np.uint8), spacing, n)
        target = one_hot_encode(labels)
    else:
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        target = SoftLabelVolume((counts / counts.sum(axis=0)).astype(dtype), spacing)
    width = draw(st.sampled_from([32, 64]))
    scores = draw(arrays(np.dtype(f"float{width}"), (n,) + dims, elements=st.floats(-50, 50, width=width)))
    return target, LogitVolume(scores, spacing)


def assert_whole_volume_oracle_bytes(target, scores):
    predicted = softmax(scores)
    # float32 scores stay float32 in the container; widening them is exact
    expected_probs = whole_volume_softmax(scores.data.astype(np.float64))
    assert predicted.data.tobytes() == expected_probs.tobytes()
    for pred, expected_pred in ((predicted, expected_probs), (target, target.data)):
        report = cross_entropy(target, pred)
        expected = whole_volume_cross_entropy(target.data, expected_pred, LOG_FLOOR)
        assert (report.loss_sum, report.voxels) == (slab_rule_sum(expected), expected.size)


@settings(max_examples=150, deadline=None)
@given(grids=scored_grids())
def test_per_voxel_loss_has_the_whole_volume_oracles_bytes(grids):
    assert_whole_volume_oracle_bytes(*grids)


@settings(max_examples=80, deadline=None)
@given(cut=slab_cuts(), data=st.data())
def test_slabbed_softmax_and_loss_keep_the_whole_volume_oracles_bytes(cut, data):
    # softmax's divisor and the loss's class terms are taken one slab of rows at a time
    dims, block, num_slabs = cut
    grids = data.draw(scored_grids(dims))
    with sum_block(block):
        assert len(volume.slabs(dims)) == num_slabs
        assert_whole_volume_oracle_bytes(*grids)


@settings(max_examples=80, deadline=None)
@given(cut=slab_cuts(), data=st.data(), kind=st.sampled_from(["logits", "probs"]))
def test_streamed_loss_keeps_the_whole_volume_oracles_bytes(tmp_path_factory, cut, data, kind):
    # the CLI's loss reads, softmaxes and scores one slab of rows of each
    # file at a time, the last one ragged; files hold float32
    dims, block, num_slabs = cut
    target, scores = data.draw(scored_grids(dims))
    target = SoftLabelVolume(target.data.astype(np.float32), target.spacing)
    scores = scores.data.astype(np.float32)
    probs = whole_volume_softmax(scores.astype(np.float64))
    if kind == "logits":
        predicted = LogitVolume(scores, target.spacing)
    else:
        predicted = SoftLabelVolume(probs.astype(np.float32), target.spacing)
    d = tmp_path_factory.mktemp("streamed")
    write_volume(target, d / "target.svlv")
    write_volume(predicted, d / "pred.svlv")
    expected = whole_volume_cross_entropy(target.data, probs if kind == "logits" else predicted.data, LOG_FLOOR)
    with sum_block(block):
        assert len(volume.slabs(dims)) == num_slabs
        report = streamed_loss(str(d / "target.svlv"), str(d / "pred.svlv"), kind)
        library = cross_entropy(target, softmax(predicted) if kind == "logits" else predicted)
        expected_sum = slab_rule_sum(expected)
    assert (report.loss_sum, report.voxels) == (expected_sum, expected.size)
    assert report == library
