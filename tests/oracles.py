"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (explicit loops, clamped indexing,
all-pairs distances, one mask per bin) or built on a different algorithm (a
full-volume Euclidean distance transform, scipy.ndimage's correlation,
erosion and masked dilation, a full sort, whole-volume float64 loss passes),
and shares no code with the implementation paths it verifies.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import ndimage


def hp_svls_taps(rank: int, sigma: float):
    """Normalized stencil recomputed at 50 decimal digits from the full
    Gaussian (normalization constant included)."""
    import mpmath as mp

    with mp.workdps(50):
        norm = (mp.sqrt(2 * mp.pi * sigma**2)) ** rank
        raw = {}
        for off in itertools.product((-1, 0, 1), repeat=rank):
            r2 = sum(o * o for o in off)
            raw[off] = mp.e ** (-mp.mpf(r2) / (2 * mp.mpf(sigma) ** 2)) / norm
        center = (0,) * rank
        surround = sum(v for k, v in raw.items() if k != center)
        taps = np.zeros((3,) * rank)
        for off, v in raw.items():
            idx = tuple(o + 1 for o in off)
            taps[idx] = float(v / surround) if off != center else 1.0
    return taps


def naive_svls(labels: np.ndarray, num_classes: int, taps: np.ndarray) -> np.ndarray:
    """Direct correlation with explicit per-voxel loops and index clamping."""
    rank = labels.ndim
    total = taps.sum()
    offsets = list(np.ndindex(*taps.shape))
    out = np.zeros((num_classes,) + labels.shape)
    for c in range(num_classes):
        plane = (labels == c).astype(np.float64)
        for idx in np.ndindex(*labels.shape):
            acc = 0.0
            for off in offsets:
                src = tuple(
                    min(max(idx[a] + off[a] - 1, 0), labels.shape[a] - 1) for a in range(rank)
                )
                acc += taps[off] * plane[src]
            out[(c,) + idx] = acc / total
    return out


def ndimage_msvls(raters, num_classes: int, taps: np.ndarray) -> np.ndarray:
    """MSVLS as scipy computes it: per class, the float64 rater vote share
    correlated by `ndimage.correlate(mode="nearest")`, divided by the total
    weight and rounded to float32 (SVLS with one rater)."""
    first, *rest = raters
    out = np.empty((num_classes,) + first.shape, dtype=np.float32)
    for c in range(num_classes):
        votes = (first == c).astype(np.float64)
        for rater in rest:
            votes += rater == c
        if rest:
            votes /= len(raters)
        out[c] = ndimage.correlate(votes, taps, mode="nearest") / taps.sum()
    return out


def erosion_boundary(mask: np.ndarray) -> np.ndarray:
    """The mask minus its binary erosion by the face-adjacency cross, with
    everything past the volume border counted as outside."""
    mask = np.asarray(mask, dtype=bool)
    structure = ndimage.generate_binary_structure(mask.ndim, 1)
    return mask & ~ndimage.binary_erosion(mask, structure=structure, border_value=0)


def dilation_close_count(source: np.ndarray, target: np.ndarray, ball: np.ndarray) -> int:
    """Voxels of `target` that a binary dilation of `source` by the boolean
    structure `ball` reaches, the dilation masked to `target`."""
    # outside `mask` scipy copies the input through, hence the `&`
    return int(np.count_nonzero(ndimage.binary_dilation(source, structure=ball, mask=target) & target))


def naive_boundary(mask: np.ndarray) -> list:
    """Mask voxels with a face-adjacent neighbor outside the mask (border = outside)."""
    mask = np.asarray(mask, dtype=bool)
    coords = []
    for idx in np.ndindex(*mask.shape):
        if not mask[idx]:
            continue
        exposed = False
        for axis in range(mask.ndim):
            for step in (-1, 1):
                j = list(idx)
                j[axis] += step
                if not (0 <= j[axis] < mask.shape[axis]) or not mask[tuple(j)]:
                    exposed = True
        if exposed:
            coords.append(idx)
    return coords


def naive_surface_dice(mask_t, mask_p, spacing, tolerance) -> float:
    """Surface DSC by all-pairs physical distances between boundary voxels."""
    b_t = naive_boundary(mask_t)
    b_p = naive_boundary(mask_p)
    if not b_t and not b_p:
        return 1.0
    if not b_t or not b_p:
        return 0.0
    scale = np.asarray(spacing, dtype=np.float64)
    pts_t = np.asarray(b_t, dtype=np.float64) * scale
    pts_p = np.asarray(b_p, dtype=np.float64) * scale
    pair_d2 = ((pts_t[:, None, :] - pts_p[None, :, :]) ** 2).sum(axis=-1)
    close_t = int((np.sqrt(pair_d2.min(axis=1)) <= tolerance).sum())
    close_p = int((np.sqrt(pair_d2.min(axis=0)) <= tolerance).sum())
    return (close_t + close_p) / (len(b_t) + len(b_p))


def edt_surface_dice(mask_t, mask_p, spacing, tolerance) -> float:
    """Surface DSC from two full-volume exact Euclidean distance transforms."""

    b_t = erosion_boundary(mask_t)
    b_p = erosion_boundary(mask_p)
    n_t = int(b_t.sum())
    n_p = int(b_p.sum())
    if n_t == 0 and n_p == 0:
        return 1.0
    if n_t == 0 or n_p == 0:
        return 0.0
    dist_to_p = ndimage.distance_transform_edt(~b_p, sampling=spacing)
    dist_to_t = ndimage.distance_transform_edt(~b_t, sampling=spacing)
    close_t = int((dist_to_p[b_t] <= tolerance).sum())
    close_p = int((dist_to_t[b_p] <= tolerance).sum())
    return (close_t + close_p) / (n_t + n_p)


def mask_loop_reliability(ref: np.ndarray, planes: np.ndarray, num_bins: int) -> list:
    """(lower, upper, count, mean confidence, accuracy) per right-closed
    equal-width bin, one whole-population mask per bin."""
    confidence = planes.astype(np.float64).max(axis=0).ravel()
    correct = (np.argmax(planes, axis=0) == ref).ravel()
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    idx = np.clip(np.digitize(confidence, edges, right=True), 1, num_bins) - 1
    bins = []
    for b in range(num_bins):
        member = idx == b
        count = int(member.sum())
        mean_conf = float(confidence[member].mean()) if count else math.nan
        accuracy = float(correct[member].mean()) if count else math.nan
        bins.append((float(edges[b]), float(edges[b + 1]), count, mean_conf, accuracy))
    return bins


def argsort_tace(ref: np.ndarray, planes: np.ndarray, threshold: float, num_ranges: int) -> float:
    """TACE from a stable full sort of each class's kept probabilities, with
    one mask per equal-count range."""
    ref = ref.ravel()
    class_errors = []
    for c in range(planes.shape[0]):
        p = planes[c].astype(np.float64).ravel()
        hit = (ref == c).astype(np.float64)
        keep = p > threshold
        p, hit = p[keep], hit[keep]
        if p.size == 0:
            continue
        order = np.argsort(p, kind="stable")
        p, hit = p[order], hit[order]
        edge_idx = np.linspace(0, p.size, num_ranges, endpoint=False).round().astype(int)
        uppers = p[np.minimum(edge_idx, p.size - 1)][1:]
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


def whole_volume_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the class axis as whole-volume float64 passes: shift by
    the class max, exponentiate, divide by the class sum."""
    shifted = scores - scores.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def whole_volume_cross_entropy(target: np.ndarray, predicted: np.ndarray, floor: float) -> np.ndarray:
    """Per-voxel -sum_c t*log(max(p, floor)), both volumes cast to float64 whole
    and the class sum taken by one reduction over the class axis."""
    logs = np.log(np.maximum(predicted.astype(np.float64), floor))
    return -(target.astype(np.float64) * logs).sum(axis=0)
