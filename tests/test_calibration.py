import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svls import (
    LabelVolume,
    SoftLabelVolume,
    calibrate_report,
    ece,
    generate_miscalibrated,
    one_hot_encode,
    reliability,
    svls_smooth,
    tace,
)
from svls.calibration import ReliabilityBin

from oracles import argsort_tace, mask_loop_reliability

SPACING2 = (1.0, 1.0)


def labels_2d(values, num_classes=2):
    arr = np.asarray(values, dtype=np.uint8)
    return LabelVolume(arr, SPACING2, num_classes)


def probs_2d(planes):
    return SoftLabelVolume(np.asarray(planes, dtype=np.float32), SPACING2)


def binary_constant_prediction(ref: LabelVolume, p_class0: float) -> SoftLabelVolume:
    planes = np.empty((2,) + ref.dims, dtype=np.float32)
    planes[0] = p_class0
    planes[1] = 1.0 - p_class0
    return SoftLabelVolume(planes, ref.spacing)


def test_reliability_perfect_one_hot(rng):
    ref = labels_2d(rng.integers(0, 2, size=(4, 4)))
    bins = reliability(ref, one_hot_encode(ref), num_bins=10)
    occupied = [b for b in bins if b.count]
    assert len(occupied) == 1
    top = occupied[-1]
    assert top.upper == 1.0
    assert top.count == 16
    assert top.accuracy == 1.0
    assert top.mean_confidence == 1.0


def test_reliability_mixed_bin():
    ref = labels_2d([[0, 0]])
    pred = probs_2d([[[0.9, 0.1]], [[0.1, 0.9]]])
    bins = reliability(ref, pred, num_bins=10)
    occupied = [b for b in bins if b.count]
    assert len(occupied) == 1
    assert occupied[0].count == 2
    assert occupied[0].accuracy == 0.5
    assert occupied[0].mean_confidence == pytest.approx(0.9, abs=1e-7)


def test_reliability_counts_partition_volume(rng):
    ref = LabelVolume(rng.integers(0, 3, size=(8, 8, 8)).astype(np.uint8), (1.0,) * 3, 3)
    raw = rng.random((3, 8, 8, 8)) + 1e-3
    pred = SoftLabelVolume((raw / raw.sum(axis=0)).astype(np.float32), (1.0,) * 3)
    bins = reliability(ref, pred, num_bins=15)
    assert sum(b.count for b in bins) == 512
    # bins tile [0, 1] without gaps
    assert bins[0].lower == 0.0
    assert bins[-1].upper == 1.0
    for a, b in zip(bins, bins[1:]):
        assert a.upper == b.lower


def test_reliability_right_closed_bin_edges():
    # confidence exactly on a bin edge belongs to the lower bin
    uniform = probs_2d([[[0.25]], [[0.25]], [[0.25]], [[0.25]]])
    bins = reliability(labels_2d([[0]], num_classes=4), uniform, num_bins=4)
    assert bins[0].count == 1
    assert all(b.count == 0 for b in bins[1:])


def test_ece_perfectly_calibrated_bins():
    bins = [
        ReliabilityBin(0.0, 0.5, 10, 0.4, 0.4),
        ReliabilityBin(0.5, 1.0, 30, 0.8, 0.8),
    ]
    assert ece(bins) == 0.0


def test_ece_single_bin_gap():
    bins = [ReliabilityBin(0.8, 1.0, 7, 0.9, 1.0)]
    assert ece(bins) == pytest.approx(0.1, abs=1e-12)


def test_ece_weighted_mean():
    bins = [
        ReliabilityBin(0.0, 0.5, 5, 0.4, 0.2),  # gap 0.2
        ReliabilityBin(0.5, 1.0, 5, 0.7, 0.7),  # gap 0.0
    ]
    assert ece(bins) == pytest.approx(0.1, abs=1e-12)


def test_ece_validates_totals():
    # the bins are the whole population: none, or only empty ones, is an error
    empty = [ReliabilityBin(0.0, 0.5, 0, math.nan, math.nan), ReliabilityBin(0.5, 1.0, 0, math.nan, math.nan)]
    for bins in ([], empty):
        with pytest.raises(ValueError, match="no voxel"):
            ece(bins)


def test_ece_invariant_under_voxel_permutation(rng):
    ref_data = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
    raw = rng.random((2, 6, 6)) + 1e-3
    planes = (raw / raw.sum(axis=0)).astype(np.float32)
    perm = rng.permutation(36)
    ref_p = ref_data.ravel()[perm].reshape(6, 6)
    planes_p = planes.reshape(2, -1)[:, perm].reshape(2, 6, 6)
    a = calibrate_report(labels_2d(ref_data), probs_2d(planes)).ece
    b = calibrate_report(labels_2d(ref_p), probs_2d(planes_p)).ece
    assert a == pytest.approx(b, abs=1e-12)


def test_tace_exact_one_hot_is_zero(rng):
    ref = labels_2d(rng.integers(0, 2, size=(5, 5)))
    assert tace(ref, one_hot_encode(ref)) == 0.0


def test_tace_constant_prediction_matching_frequency():
    ref = labels_2d([[0] * 7 + [1] * 3])  # 70% class 0
    pred = binary_constant_prediction(ref, 0.7)
    assert tace(ref, pred, threshold=1e-3, num_ranges=15) == pytest.approx(0.0, abs=1e-7)


def test_tace_constant_prediction_off_frequency():
    ref = labels_2d([[0] * 9 + [1]])  # 90% class 0, predicted 0.7
    pred = binary_constant_prediction(ref, 0.7)
    assert tace(ref, pred, threshold=1e-3, num_ranges=15) == pytest.approx(0.2, abs=1e-7)


def test_tace_single_range_reduces_to_mean_gap(rng):
    ref_data = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
    raw = rng.random((2, 6, 6)) + 1e-2
    planes = (raw / raw.sum(axis=0)).astype(np.float32)
    ref = labels_2d(ref_data)
    pred = probs_2d(planes)
    got = tace(ref, pred, threshold=0.0, num_ranges=1)
    expected = np.mean(
        [
            abs((ref_data == c).mean() - planes[c].astype(np.float64).mean())
            for c in range(2)
        ]
    )
    assert got == pytest.approx(expected, abs=1e-9)


def test_tace_threshold_errors_when_nothing_survives():
    ref = labels_2d([[0, 1]])
    pred = probs_2d([[[0.5, 0.5]], [[0.5, 0.5]]])
    with pytest.raises(ValueError, match="threshold"):
        tace(ref, pred, threshold=0.9)


def test_tace_parameter_validation(rng):
    ref = labels_2d(rng.integers(0, 2, size=(3, 3)))
    pred = one_hot_encode(ref)
    with pytest.raises(ValueError):
        tace(ref, pred, threshold=1.0)
    with pytest.raises(ValueError):
        tace(ref, pred, num_ranges=0)


@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0)])
def test_bin_and_range_counts_must_be_integers(bad):
    ref = labels_2d([[0, 1]])
    pred = one_hot_encode(ref)
    with pytest.raises(ValueError) as info:
        reliability(ref, pred, num_bins=bad)
    assert str(info.value) == f"num_bins must be >= 1, got {bad}"
    with pytest.raises(ValueError) as info:
        tace(ref, pred, num_ranges=bad)
    assert str(info.value) == f"num_ranges must be >= 1, got {bad}"


def test_bin_and_range_counts_may_be_numpy_integers():
    ref = labels_2d([[0, 1]])
    pred = one_hot_encode(ref)
    assert len(reliability(ref, pred, num_bins=np.int64(3))) == 3
    assert tace(ref, pred, num_ranges=np.int32(2)) == 0.0


def test_tace_rejects_class_count_mismatch():
    ref = labels_2d([[0, 3]], num_classes=4)
    pred = probs_2d([[[0.5, 0.5]], [[0.5, 0.5]]])
    with pytest.raises(ValueError, match="class count mismatch: 4 vs 2"):
        tace(ref, pred)


def test_report_perfect_predictions(rng):
    ref = labels_2d(rng.integers(0, 2, size=(6, 6)))
    report = calibrate_report(ref, one_hot_encode(ref))
    assert report.ece == 0.0
    assert report.tace == 0.0
    assert report.num_bins == 15
    assert len(report.bins) == 15


def test_report_uniform_binary_prediction(rng):
    # softmax of zero logits on a balanced binary volume: ECE = |accuracy - 0.5|
    ref_data = np.zeros((4, 4), dtype=np.uint8)
    ref_data[:2] = 1
    ref = labels_2d(ref_data)
    pred = binary_constant_prediction(ref, 0.5)
    report = calibrate_report(ref, pred)
    # argmax ties resolve to class 0, which is correct on half the voxels
    assert report.ece == pytest.approx(0.0, abs=1e-7)


def test_report_internal_consistency(rng):
    ref_data = rng.integers(0, 3, size=(7, 7)).astype(np.uint8)
    raw = rng.random((3, 7, 7)) + 1e-3
    planes = (raw / raw.sum(axis=0)).astype(np.float32)
    report = calibrate_report(labels_2d(ref_data, 3), probs_2d(planes))
    total = sum(b.count for b in report.bins)
    assert total == 49
    recomputed = ece(report.bins)
    assert report.ece == pytest.approx(recomputed, abs=1e-12)
    gaps = [abs(b.accuracy - b.mean_confidence) for b in report.bins if b.count]
    assert report.ece <= max(gaps) + 1e-12


def test_defaults_are_15_bins_and_15_ranges_above_1e_3(rng):
    ref = labels_2d(rng.integers(0, 3, size=(20, 20)), 3)
    raw = rng.random((3, 20, 20)) + 1e-3
    pred = probs_2d(raw / raw.sum(axis=0))
    assert len(reliability(ref, pred)) == 15
    ranges = {n: tace(ref, pred, 1e-3, n) for n in (14, 15, 16)}
    assert len(set(ranges.values())) == 3  # so the default's own value is seen
    assert tace(ref, pred) == ranges[15]
    report = calibrate_report(ref, pred)
    assert (report.num_bins, report.tace_ranges, report.tace) == (15, 15, ranges[15])


def test_report_foreground_only(rng):
    ref_data = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
    ref = labels_2d(ref_data)
    pred = one_hot_encode(ref)
    report = calibrate_report(ref, pred, foreground_only=True)
    assert sum(b.count for b in report.bins) == int((ref_data != 0).sum())
    all_bg = labels_2d(np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="foreground"):
        calibrate_report(all_bg, one_hot_encode(all_bg), foreground_only=True)


@st.composite
def scored_volumes(draw):
    """A reference and a prediction whose probabilities are multiples of
    1/denominator, so ties, zeros and values equal to a threshold occur."""
    dims = tuple(draw(st.lists(st.integers(1, 8), min_size=2, max_size=3)))
    n = draw(st.integers(2, 5))
    denominator = draw(st.sampled_from([5, 10, 20, 1000]))
    ref = draw(arrays(np.uint8, dims, elements=st.integers(0, n - 1)))
    cuts = np.sort(draw(arrays(np.int64, (n - 1,) + dims, elements=st.integers(0, denominator))), axis=0)
    edges = np.concatenate([np.zeros((1,) + dims, np.int64), cuts, np.full((1,) + dims, denominator)])
    planes = (np.diff(edges, axis=0) / denominator).astype(np.float32)
    return LabelVolume(ref, (1.0,) * len(dims), n), SoftLabelVolume(planes, (1.0,) * len(dims))


def assert_bins_match(got, want):
    """Reliability bins equal the mask-loop oracle's: bounds and counts exactly,
    means within 1e-12, NaN where the oracle has NaN."""
    assert [(b.lower, b.upper, b.count) for b in got] == [w[:3] for w in want]
    for b, (_, _, _, mean_confidence, accuracy) in zip(got, want):
        for value, expected in ((b.mean_confidence, mean_confidence), (b.accuracy, accuracy)):
            assert math.isnan(value) == math.isnan(expected)
            assert math.isnan(value) or abs(value - expected) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    volumes=scored_volumes(),
    threshold=st.sampled_from([0.0, 1e-3, 0.2]),
    num_ranges=st.sampled_from([1, 2, 3, 15, 40]),
    num_bins=st.sampled_from([1, 2, 3, 15, 40]),
)
def test_binning_matches_mask_loop_and_sort_oracles(volumes, threshold, num_ranges, num_bins):
    ref, pred = volumes
    assert_bins_match(reliability(ref, pred, num_bins=num_bins), mask_loop_reliability(ref.data, pred.data, num_bins))
    try:
        expected_tace = argsort_tace(ref.data, pred.data, threshold, num_ranges)
    except ValueError:
        with pytest.raises(ValueError, match="threshold"):
            tace(ref, pred, threshold, num_ranges)
        return
    assert abs(tace(ref, pred, threshold, num_ranges) - expected_tace) <= 1e-12


def _same(a, b) -> bool:
    """Equal, with NaN equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=100, deadline=None)
@given(
    volumes=scored_volumes(),
    foreground_only=st.booleans(),
    threshold=st.sampled_from([0.0, 1e-3, 0.2]),
    num=st.sampled_from([1, 3, 15]),
)
def test_float32_prediction_scores_exactly_as_its_float64_widening(volumes, foreground_only, threshold, num):
    ref, pred = volumes
    wide = SoftLabelVolume(pred.data.astype(np.float64), pred.spacing)
    assert wide.data.dtype == np.float64  # the container keeps float64 as given
    if foreground_only and not ref.data.any():
        return
    bins32 = reliability(ref, pred, num, foreground_only)
    bins64 = reliability(ref, wide, num, foreground_only)
    assert [b.count for b in bins32] == [b.count for b in bins64]
    for b32, b64 in zip(bins32, bins64):
        assert _same(b32.mean_confidence, b64.mean_confidence) and _same(b32.accuracy, b64.accuracy)
    assert ece(bins32) == ece(bins64)
    try:
        want_tace = tace(ref, wide, threshold, num)
    except ValueError:  # nothing above the threshold
        with pytest.raises(ValueError, match="threshold"):
            tace(ref, pred, threshold, num)
        return
    assert tace(ref, pred, threshold, num) == want_tace
    report32 = calibrate_report(ref, pred, num, threshold, num, foreground_only)
    report64 = calibrate_report(ref, wide, num, threshold, num, foreground_only)
    assert (report32.ece, report32.tace, report32.num_bins) == (report64.ece, report64.tace, report64.num_bins)
    assert all(_same(x, y) for b32, b64 in zip(report32.bins, report64.bins)
               for x, y in zip(vars(b32).values(), vars(b64).values()))


# The volumes above hold at most 512 voxels. These hold 589 824, so each bin
# sums many float64 blocks and the predictions have tie runs of over 10^5 values.
LARGE_DIMS = (64, 96, 96)


@pytest.fixture(scope="module")
def large_scored():
    """A 4-class reference and four predictions of it at LARGE_DIMS. Two are
    float32 miscalibrated ones, with two values per class: the confidence of
    `miscalibrated_0.75` lies on an edge of 4 reliability bins, and that of
    `miscalibrated_0.8`, float32(0.8), just above an edge of 5. `smoothed`
    holds the float32 SVLS targets of a label copy with 40 % of its voxels
    redrawn, with many tied values, and `softmax` the float64 softmax of
    normal draws."""
    rng = np.random.default_rng(29)
    ref = LabelVolume(rng.integers(0, 4, size=LARGE_DIMS).astype(np.uint8), (1.0,) * 3, 4)
    noisy = np.where(rng.random(LARGE_DIMS) < 0.6, ref.data, rng.integers(0, 4, size=LARGE_DIMS)).astype(np.uint8)
    scores = np.exp(rng.normal(size=(4,) + LARGE_DIMS))
    predictions = {
        "miscalibrated_0.75": generate_miscalibrated(ref, 0.05, seed=3),
        "miscalibrated_0.8": generate_miscalibrated(ref, 0.1, seed=4),
        "smoothed": svls_smooth(LabelVolume(noisy, ref.spacing, 4), 1.0),
        "softmax": SoftLabelVolume(scores / scores.sum(axis=0), ref.spacing),
    }
    assert np.float32(0.75) in predictions["miscalibrated_0.75"].data
    assert np.float32(0.8) in predictions["miscalibrated_0.8"].data
    assert [p.data.dtype for p in predictions.values()] == [np.float32] * 3 + [np.float64]
    return ref, predictions


@pytest.mark.parametrize("kind", ["miscalibrated_0.75", "smoothed", "softmax"])
def test_tace_at_scale_matches_sort_oracle(large_scored, kind):
    ref, predictions = large_scored
    pred = predictions[kind]
    for threshold, num_ranges in ((1e-3, 15), (0.0, 40), (0.1, 7)):
        want = argsort_tace(ref.data, pred.data, threshold, num_ranges)
        assert abs(tace(ref, pred, threshold, num_ranges) - want) <= 1e-12


@pytest.mark.parametrize("kind", ["miscalibrated_0.75", "miscalibrated_0.8", "smoothed", "softmax"])
def test_reliability_at_scale_matches_mask_loop(large_scored, kind):
    ref, predictions = large_scored
    pred = predictions[kind]
    for num_bins in (4, 5, 15):
        assert_bins_match(reliability(ref, pred, num_bins), mask_loop_reliability(ref.data, pred.data, num_bins))


@pytest.mark.parametrize("kind", ["miscalibrated_0.75", "miscalibrated_0.8", "smoothed"])
def test_float32_scores_at_scale_exactly_as_float64_widening(large_scored, kind):
    ref, predictions = large_scored
    pred = predictions[kind]
    wide = SoftLabelVolume(pred.data.astype(np.float64), pred.spacing)
    for num in (4, 5, 15):
        bins32, bins64 = reliability(ref, pred, num), reliability(ref, wide, num)
        assert all(_same(x, y) for b32, b64 in zip(bins32, bins64)
                   for x, y in zip(vars(b32).values(), vars(b64).values()))
        assert tace(ref, pred, 1e-3, num) == tace(ref, wide, 1e-3, num)
