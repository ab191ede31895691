"""Model-calibration metrics over predicted probability volumes.

Reliability binning and ECE follow the usual recipe: per-voxel confidence is
the maximum class probability, bins are equal-width over (0,1] (left-open,
right-closed; confidence exactly 0 joins the first bin). TACE is per-class:
probabilities above a floor are split into adaptive equal-count ranges whose
edges are probability quantiles (so runs of identical probabilities collapse
into a single effective range), the gap |empirical frequency - mean
probability| is averaged over occupied ranges, then over the classes that
retained any samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .volume import LabelVolume, SoftLabelVolume


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
    num_bins: int
    tace_ranges: int


def _confidence_correct(reference: LabelVolume, predicted: SoftLabelVolume):
    if reference.dims != predicted.dims:
        raise ValueError(f"shape mismatch: {reference.dims} vs {predicted.dims}")
    if reference.num_classes != predicted.num_classes:
        raise ValueError(
            f"class count mismatch: {reference.num_classes} vs {predicted.num_classes}"
        )
    # float32 -> float64 is exact and keeps order, so max and argmax of the
    # stored planes equal those of a float64 copy, without the copy
    confidence = predicted.data.max(axis=0).astype(np.float64).ravel()
    correct = (np.argmax(predicted.data, axis=0) == reference.data).ravel()
    return confidence, correct


def _bin_stats(confidence: np.ndarray, correct: np.ndarray, num_bins: int):
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    # right-closed bins; digitize puts x=0 at index 0, clamp it into bin 1
    idx = np.clip(np.digitize(confidence, edges, right=True), 1, num_bins) - 1
    bins = []
    for b in range(num_bins):
        member = idx == b
        count = int(member.sum())
        if count:
            mean_conf = float(confidence[member].mean())
            accuracy = float(correct[member].mean())
        else:
            mean_conf = math.nan
            accuracy = math.nan
        bins.append(
            ReliabilityBin(
                lower=float(edges[b]),
                upper=float(edges[b + 1]),
                count=count,
                mean_confidence=mean_conf,
                accuracy=accuracy,
            )
        )
    return bins


def reliability(
    reference: LabelVolume, predicted: SoftLabelVolume, num_bins: int = 15
) -> list[ReliabilityBin]:
    """Equal-width confidence bins with per-bin accuracy and mean confidence."""
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    confidence, correct = _confidence_correct(reference, predicted)
    return _bin_stats(confidence, correct, num_bins)


def ece(bins, total_count: int) -> float:
    """Count-weighted mean absolute gap between accuracy and confidence."""
    if total_count <= 0:
        raise ValueError("total_count must be positive")
    if sum(b.count for b in bins) != total_count:
        raise ValueError(
            f"bin counts sum to {sum(b.count for b in bins)}, expected {total_count}"
        )
    gap = 0.0
    for b in bins:
        if b.count:
            gap += (b.count / total_count) * abs(b.accuracy - b.mean_confidence)
    return gap


def _adaptive_range_edges(sorted_probs: np.ndarray, num_ranges: int) -> np.ndarray:
    """Upper edges (quantile values) splitting sorted data into equal-count ranges."""
    n = sorted_probs.size
    edge_idx = np.linspace(0, n, num_ranges, endpoint=False).round().astype(int)
    edge_idx = np.minimum(edge_idx, n - 1)
    return sorted_probs[edge_idx][1:]


def tace(
    reference: LabelVolume,
    predicted: SoftLabelVolume,
    threshold: float = 1e-3,
    num_ranges: int = 15,
) -> float:
    """Thresholded adaptive calibration error over per-class probabilities."""
    if not (0.0 <= threshold < 1.0):
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    if num_ranges < 1:
        raise ValueError(f"num_ranges must be >= 1, got {num_ranges}")
    if reference.dims != predicted.dims:
        raise ValueError(f"shape mismatch: {reference.dims} vs {predicted.dims}")
    ref = reference.data.ravel()
    class_errors = []
    for c in range(predicted.num_classes):
        p = predicted.data[c].astype(np.float64).ravel()
        hit = (ref == c).astype(np.float64)
        keep = p > threshold
        p, hit = p[keep], hit[keep]
        if p.size == 0:
            continue
        order = np.argsort(p, kind="stable")
        p, hit = p[order], hit[order]
        uppers = _adaptive_range_edges(p, num_ranges)
        which = np.digitize(p, uppers)
        gaps = []
        for r in range(num_ranges):
            member = which == r
            if member.any():
                gaps.append(abs(hit[member].mean() - p[member].mean()))
        class_errors.append(float(np.mean(gaps)))
    if not class_errors:
        raise ValueError(f"no probabilities above threshold {threshold} in any class")
    return float(np.mean(class_errors))


def calibrate_report(
    reference: LabelVolume,
    predicted: SoftLabelVolume,
    num_bins: int = 15,
    tace_threshold: float = 1e-3,
    tace_ranges: int = 15,
    foreground_only: bool = False,
) -> CalibrationReport:
    """Bundle reliability bins, ECE, and TACE into one report.

    foreground_only restricts the reliability/ECE voxel population to voxels
    whose reference class is nonzero; TACE is per-class and always uses the
    full volume.
    """
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    confidence, correct = _confidence_correct(reference, predicted)
    if foreground_only:
        keep = reference.data.ravel() != 0
        confidence, correct = confidence[keep], correct[keep]
        if confidence.size == 0:
            raise ValueError("foreground-only population is empty (reference is all background)")
    bins = _bin_stats(confidence, correct, num_bins)
    return CalibrationReport(
        ece=ece(bins, confidence.size),
        tace=tace(reference, predicted, tace_threshold, tace_ranges),
        bins=tuple(bins),
        tace_threshold=float(tace_threshold),
        num_bins=int(num_bins),
        tace_ranges=int(tace_ranges),
    )
