"""Segmentation accuracy metrics: overlap (DSC) and boundary overlap (Surface DSC).

Surfaces are represented as boundary voxels under face adjacency (4-neighbor
in 2D, 6-neighbor in 3D; the volume border counts as outside): the mask minus
its interior, the voxels whose face-neighbour slices all lie inside the mask.
A boundary voxel counts as close when a boundary voxel of the other mask lies
within the tolerance, tested exactly against the spacing-aware ball of lattice
offsets no longer than the tolerance. The ball is a set of lines along axis
0, each a symmetric interval, so the test is one dilation along axis 0 per
distinct line length and one shifted OR per line, all on numpy slices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .volume import LabelVolume, check_same_grid


@dataclass(frozen=True)
class SegmentationScores:
    """Per-class DSC and Surface DSC, with the tolerance used for the latter."""

    per_class_dsc: dict
    per_class_sd: dict
    tolerance_mm: float


def dice_masks(mask_t: np.ndarray, mask_p: np.ndarray) -> float:
    """2|T&P| / (|T|+|P|); 1.0 when both masks are empty."""
    size_t = int(mask_t.sum())
    size_p = int(mask_p.sum())
    if size_t + size_p == 0:
        return 1.0
    overlap = int((mask_t & mask_p).sum())
    return 2.0 * overlap / (size_t + size_p)


def _class_ids(class_ids, num_classes: int, what: str) -> list:
    """One class id or a list of them, as a non-empty list of classes.

    An id is an integer, a numpy one too, but not a bool.
    """
    ids = [class_ids] if np.ndim(class_ids) == 0 else list(class_ids)
    integral = all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in ids)
    if not (ids and integral and all(0 <= i < num_classes for i in ids)):
        raise ValueError(f"{what} outside [0, {num_classes}): {class_ids}")
    return ids


def _masks(reference: LabelVolume, predicted: LabelVolume, class_ids) -> tuple[np.ndarray, np.ndarray]:
    """Both volumes' masks of the union of `class_ids`; the volumes must lie on one grid."""
    check_same_grid(reference, predicted)
    ids = _class_ids(class_ids, reference.num_classes, "class ids")
    mask_t, mask_p = reference.data == ids[0], predicted.data == ids[0]
    for i in ids[1:]:  # one == per id: a sorted lookup took 16 against 0.6 ms (3 ids, 96x144x144)
        mask_t |= reference.data == i
        mask_p |= predicted.data == i
    return mask_t, mask_p


def dice(reference: LabelVolume, predicted: LabelVolume, class_ids) -> float:
    """Dice similarity coefficient of one class, or of a list of classes' union."""
    return dice_masks(*_masks(reference, predicted, class_ids))


def boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Voxels of the mask with at least one face-adjacent neighbor outside it."""
    mask = np.asarray(mask, dtype=bool)
    interior = mask.copy()
    for axis in range(mask.ndim):
        inner, whole = np.moveaxis(interior, axis, 0), np.moveaxis(mask, axis, 0)
        inner[1:-1] &= whole[:-2]
        inner[1:-1] &= whole[2:]
        inner[0] = inner[-1] = False  # the volume border counts as outside
    return mask & ~interior


def _tolerance_ball(shape, spacing, tolerance_mm: float) -> np.ndarray:
    """Boolean structure holding every lattice offset within `tolerance_mm`.

    Lengths are computed the way an exact Euclidean distance transform turns
    a feature offset into a distance (float64, times spacing, squared, summed
    over the components in axis order, sqrt), so membership agrees bit for
    bit with an EDT distance compared against the tolerance. The reach keeps
    one step beyond `tol // s`, because the floor division can round a
    lattice point lying exactly at the tolerance down (0.8999999999999999 //
    0.3 == 2); offsets past the volume never matter, so the reach is capped
    at `n - 1` before it becomes an integer. The quotient is a Python float
    division: where it overflows (a huge tolerance, a tiny spacing) it is inf,
    without a numpy warning, and the cap takes over.
    """
    reach = np.array([int(min(float(tolerance_mm) // float(s) + 1, n - 1)) for s, n in zip(spacing, shape)])
    spacing = np.asarray(spacing, dtype=np.float64)
    column = (-1,) + (1,) * len(reach)
    offsets = np.indices(2 * reach + 1) - reach.reshape(column)
    return np.sqrt(np.add.reduce((offsets * spacing.reshape(column)) ** 2, axis=0)) <= tolerance_mm


def _ball_lines(shape, spacing, tolerance_mm: float) -> list:
    """The tolerance ball as lines along axis 0, grouped by half-length.

    Lengths grow with |axis-0 offset| whatever the other offsets, so each
    line of the ball is the interval [-a, a] of axis-0 offsets. Returns
    `[(a, [offset on axes 1.., ...]), ...]` in ascending `a`.
    """
    ball = _tolerance_ball(shape, spacing, tolerance_mm)
    centre = np.array(ball.shape[1:]) // 2
    lines = {}
    for column in zip(*np.nonzero(ball.any(axis=0))):
        half = int(np.count_nonzero(ball[(slice(None),) + column])) // 2
        lines.setdefault(half, []).append(tuple(int(i) for i in np.subtract(column, centre)))
    return sorted(lines.items())


def _shifted(offsets, shape) -> tuple:
    """Slices `(to, src)` such that `out[to]` lines up with `a[src]`, `a`
    shifted by `offsets` (out[i] = a[i + offset]); the rest reads nothing."""
    to = tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(offsets, shape))
    src = tuple(slice(max(0, d), n - max(0, -d)) for d, n in zip(offsets, shape))
    return to, src


def _close_count(source: np.ndarray, target: np.ndarray, lines) -> int:
    """Voxels of `target` with a voxel of `source` within the ball of `lines`."""
    hit = np.zeros_like(source)
    grown = source.copy()  # `source` dilated along axis 0 by [-reach, reach]
    reach = 0
    for half, columns in lines:
        while reach < half:
            reach += 1
            grown[reach:] |= source[:-reach]
            grown[:-reach] |= source[reach:]
        for offsets in columns:
            to, src = _shifted(offsets, source.shape[1:])
            hit[(slice(None),) + to] |= grown[(slice(None),) + src]
    return int(np.count_nonzero(hit & target))


def check_tolerance(tolerance_mm: float) -> None:
    """Reject a Surface DSC tolerance that is negative, NaN or infinite."""
    if not 0 <= tolerance_mm < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance_mm}")


def surface_dice_masks(
    mask_t: np.ndarray, mask_p: np.ndarray, spacing, tolerance_mm: float
) -> float:
    """Surface DSC between two binary masks at a physical tolerance.

    Fraction of the two boundary-voxel sets lying within `tolerance_mm` of
    the other set, using spacing-aware Euclidean distances between voxel
    centers. 1.0 when both boundaries are empty, 0.0 when exactly one is.

    Each direction dilates one boundary by the tolerance ball and counts the
    other boundary's voxels inside it. The cost is O(volume voxels x ball
    lines along axis 0): the line count grows with (tolerance / spacing) **
    (rank - 1) over axes 1.., independent of how many voxels are boundary.
    """
    check_tolerance(tolerance_mm)
    b_t = boundary_mask(mask_t)
    b_p = boundary_mask(mask_p)
    n_t = int(np.count_nonzero(b_t))
    n_p = int(np.count_nonzero(b_p))
    if n_t == 0 and n_p == 0:
        return 1.0
    if n_t == 0 or n_p == 0:
        return 0.0
    lines = _ball_lines(b_t.shape, spacing, tolerance_mm)
    return (_close_count(b_p, b_t, lines) + _close_count(b_t, b_p, lines)) / (n_t + n_p)


def surface_dice(
    reference: LabelVolume, predicted: LabelVolume, class_ids, tolerance_mm: float
) -> float:
    """Surface DSC of one class, or of a list of classes' union."""
    return surface_dice_masks(*_masks(reference, predicted, class_ids), reference.spacing, tolerance_mm)


def score_segmentation(
    reference: LabelVolume,
    predicted: LabelVolume,
    tolerance_mm: float = 2.0,
    regions: dict | None = None,
    composite: bool = False,
) -> SegmentationScores:
    """DSC and Surface DSC rows: each class, each region of `regions` (name
    -> class ids, scored as their union), then under `composite` 'comp', the
    unweighted mean of the non-background class rows. A region with an id
    that is no class, or whose name as text is another row's (the key 1 is
    "1"), is rejected before any row is scored; `dice` checks the grid."""
    regions = regions or {}
    num_classes = reference.num_classes
    taken = {str(c) for c in range(num_classes)} | ({"comp"} if composite else set())
    for name, ids in regions.items():
        _class_ids(ids, num_classes, f"region {name!r} has class ids")
        if str(name) in taken:
            raise ValueError(f"region name {name!r} collides with the {str(name)!r} row of the report")
        taken.add(str(name))
    rows = {**{c: c for c in range(num_classes)}, **regions}
    dsc = {row: dice(reference, predicted, ids) for row, ids in rows.items()}
    sd = {row: surface_dice(reference, predicted, ids, tolerance_mm) for row, ids in rows.items()}
    if composite:
        foreground = range(1, num_classes)
        dsc["comp"] = float(np.mean([dsc[c] for c in foreground]))
        sd["comp"] = float(np.mean([sd[c] for c in foreground]))
    return SegmentationScores(per_class_dsc=dsc, per_class_sd=sd, tolerance_mm=float(tolerance_mm))
