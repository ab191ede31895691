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
from svls.loss import LOG_FLOOR

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
    assert report.total == 0.0
    assert np.all(report.per_voxel == 0.0)


def test_cross_entropy_uniform_prediction():
    target = SoftLabelVolume(np.float32([1.0, 0.0]).reshape(2, 1, 1), SPACING2)
    predicted = SoftLabelVolume(np.float32([0.5, 0.5]).reshape(2, 1, 1), SPACING2)
    assert cross_entropy(target, predicted).total == pytest.approx(math.log(2.0), abs=1e-7)


def test_cross_entropy_boundary_self_entropy():
    data = np.zeros((3, 3), dtype=np.uint8)
    data[0, :] = 1
    target = svls_smooth(LabelVolume(data, SPACING2, 2), 1.0)
    report = cross_entropy(target, target)
    center = report.per_voxel[1, 1]
    assert center == pytest.approx(BOUNDARY_ENTROPY, abs=1e-6)


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
    assert report.total == pytest.approx(report.per_voxel.mean(), abs=1e-12)
    assert report.total >= 0.0


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
            voxel = idx[1:]
            fd = (
                cross_entropy(target, softmax(LogitVolume(plus, SPACING2))).per_voxel[voxel]
                - cross_entropy(target, softmax(LogitVolume(minus, SPACING2))).per_voxel[voxel]
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
        # bytes, not values: the sign of a zero loss counts too
        assert report.per_voxel.tobytes() == expected.tobytes()
        assert report.total == expected.mean()


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
