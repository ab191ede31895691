"""Model-calibration metrics over predicted probability volumes.

Reliability binning and ECE follow the usual recipe: per-voxel confidence is
the maximum class probability and a hit is a top class equal to the
reference, both from the one class-plane sweep of `volume.top_class` (ties
go to the lowest class); bins are equal-width over (0,1] (left-open,
right-closed; confidence exactly 0 joins the first bin). TACE is per-class:
probabilities above a floor are split into adaptive equal-count ranges whose
edges are order statistics of the kept probabilities (so runs of identical
probabilities collapse into a single effective range), the gap |empirical
frequency - mean probability| is averaged over occupied ranges, then over
the classes that retained any samples.
Both metrics sort their population, and the probabilities of its hits, in
place, and take each bin from those two sorted arrays: its count and hit
count from `np.searchsorted` at the bin edges, its mean probability from a
float64 sum over its slice. The stored float32 or float64 values are sorted
and searched in their own dtype (reliability's edges are rounded down to that
dtype, which for right-closed bins keeps every membership), and each slice is
summed in float64 blocks of `volume.SUM_BLOCK` values (its `volume.slabs`),
added in order: a float32 population is widened one block at a time, never
whole, and scores exactly as its float64 widening.
Both metrics take the prediction's class planes one at a time, as
`predicted.data[c]`: `reliability` in the `top_class` sweep, and TACE one
class at a time, dropping each plane before it takes the hits and keeping
nothing of a class once it reads the next plane. So a
`tensor_io.VolumeFile`, whose planes are read from its file on demand, is
scored with no whole prediction held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import LabelVolume, SoftLabelVolume, _check_int, check_same_grid, slabs, top_class


@dataclass(frozen=True)
class ReliabilityBin:
    """One confidence bin: bounds, population, mean confidence, accuracy.

    mean_confidence and accuracy are NaN for empty bins.
    """

    lower: float
    upper: float
    count: int
    mean_confidence: float
    accuracy: float


@dataclass(frozen=True)
class CalibrationReport:
    ece: float
    tace: float
    bins: tuple[ReliabilityBin, ...]
    tace_threshold: float
    tace_ranges: int

    @property
    def num_bins(self) -> int:
        return len(self.bins)


def check_num_bins(num_bins: int) -> None:
    """Reject a reliability bin count that is not an integer or is below 1."""
    _check_int(num_bins, f"num_bins must be >= 1, got {num_bins}", 1)


def check_tace_params(threshold: float, num_ranges: int) -> None:
    """Reject a TACE floor outside [0, 1), or a range count that is not an
    integer or is below 1."""
    if not (0.0 <= threshold < 1.0):
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    _check_int(num_ranges, f"num_ranges must be >= 1, got {num_ranges}", 1)


def _sum64(values: np.ndarray) -> float:
    """Float64 sum of a 1-D array, `volume.SUM_BLOCK` values at a time."""
    return sum((values[part].astype(np.float64, copy=False).sum() for part in slabs(values.shape)), 0.0)


def _bin_stats(probs: np.ndarray, hit_probs: np.ndarray, cuts: np.ndarray, side: str):
    """Per-bin count, mean probability and hit rate; NaN where a bin is empty.

    `probs` and `hit_probs` (the probabilities of the hits among them) are
    sorted, and bins split at `cuts`: with side "left" bin j holds
    cuts[j-1] <= x < cuts[j], with "right" cuts[j-1] < x <= cuts[j].
    """
    bounds = np.array([0, *np.searchsorted(probs, cuts, side), probs.size])
    hit_bounds = np.array([0, *np.searchsorted(hit_probs, cuts, side), hit_probs.size])
    count = np.diff(bounds)
    sums = [_sum64(probs[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    with np.errstate(invalid="ignore"):
        return count, np.array(sums) / count, np.diff(hit_bounds) / count


def reliability(
    reference: LabelVolume, predicted: SoftLabelVolume, num_bins: int = 15, foreground_only: bool = False
) -> list[ReliabilityBin]:
    """Equal-width confidence bins with per-bin accuracy and mean confidence;
    foreground_only bins only the voxels of a nonzero reference class."""
    check_num_bins(num_bins)
    check_same_grid(reference, predicted)
    labels, confidence = top_class(predicted.data)
    confidence, correct = confidence.ravel(), (labels == reference.data).ravel()
    if foreground_only:
        keep = reference.data.ravel() != 0
        confidence, correct = confidence[keep], correct[keep]
        if confidence.size == 0:
            raise ValueError("foreground-only population is empty (reference is all background)")
    hit_probs = confidence[correct]
    confidence.sort()
    hit_probs.sort()
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    # each inner edge rounded down to the confidence dtype: x <= edge exactly
    # when x <= cut, and a float64 cut would widen the whole population
    cuts = edges[1:-1].astype(confidence.dtype)
    cuts = np.where(cuts > edges[1:-1], np.nextafter(cuts, -np.inf), cuts)
    stats = _bin_stats(confidence, hit_probs, cuts, "right")
    rows = zip(edges[:-1].tolist(), edges[1:].tolist(), *(a.tolist() for a in stats))
    return [ReliabilityBin(*row) for row in rows]


def ece(bins) -> float:
    """Count-weighted mean absolute gap between accuracy and confidence."""
    total = sum(b.count for b in bins)
    if total == 0:
        raise ValueError("bins hold no voxel")
    gap = 0.0
    for b in bins:
        if b.count:
            gap += (b.count / total) * abs(b.accuracy - b.mean_confidence)
    return gap


def tace(
    reference: LabelVolume,
    predicted: SoftLabelVolume,
    threshold: float = 1e-3,
    num_ranges: int = 15,
) -> float:
    """Thresholded adaptive calibration error over per-class probabilities."""
    check_tace_params(threshold, num_ranges)
    check_same_grid(reference, predicted)
    ref = reference.data.ravel()
    # a float64 threshold: against a Python float, NumPy would round it to the
    # plane's float32 and drop probabilities equal to float32(threshold)
    floor = np.float64(threshold)
    gaps = (_class_gap(predicted.data[c].ravel(), ref, c, floor, num_ranges) for c in range(predicted.num_classes))
    class_errors = [gap for gap in gaps if gap is not None]
    if not class_errors:
        raise ValueError(f"no probabilities above threshold {threshold} in any class")
    return float(np.mean(class_errors))


def _class_gap(plane: np.ndarray, ref: np.ndarray, c: int, floor: np.float64, num_ranges: int):
    """TACE's mean gap over the occupied ranges of class `c`, from its plane
    (raveled) and the raveled reference; None when no probability of the
    plane exceeds `floor`. A plane read from a file is freed before the hits
    are taken, and the rest before the next plane is read."""
    keep = plane > floor
    p = plane[keep]
    del plane
    if p.size == 0:
        return None
    hit_probs = p[ref[keep] == c]
    del keep
    p.sort()
    hit_probs.sort()
    # range i starts at the order statistic of rank starts[i]
    starts = np.linspace(0, p.size, num_ranges, endpoint=False).round().astype(int)
    starts = np.minimum(starts, p.size - 1)
    count, mean_prob, hit_rate = _bin_stats(p, hit_probs, p[starts[1:]], "left")
    return float(np.abs(hit_rate - mean_prob)[count > 0].mean())


def calibrate_report(
    reference: LabelVolume,
    predicted: SoftLabelVolume,
    num_bins: int = 15,
    tace_threshold: float = 1e-3,
    tace_ranges: int = 15,
    foreground_only: bool = False,
) -> CalibrationReport:
    """Bundle reliability bins, ECE, and TACE into one report.

    foreground_only goes to `reliability`; TACE always uses the full volume.
    """
    bins = reliability(reference, predicted, num_bins, foreground_only)
    return CalibrationReport(
        ece=ece(bins),
        tace=tace(reference, predicted, tace_threshold, tace_ranges),
        bins=tuple(bins),
        tace_threshold=float(tace_threshold),
        tace_ranges=int(tace_ranges),
    )
