"""Segmentation accuracy metrics: overlap (DSC) and boundary overlap (Surface DSC).

Surfaces are represented as boundary voxels under face adjacency (4-neighbor
in 2D, 6-neighbor in 3D; the volume border counts as outside). A boundary
voxel counts as close when a boundary voxel of the other mask lies within
the tolerance, tested exactly by a dilation with the spacing-aware ball of
lattice offsets no longer than the tolerance.

scipy.ndimage is imported where the erosion and dilation run, so importing
this module does not load scipy.
"""

from __future__ import annotations

import math
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


def dice(reference: LabelVolume, predicted: LabelVolume, class_id: int) -> float:
    """Dice similarity coefficient of one class between two label volumes."""
    check_same_grid(reference, predicted)
    if not (0 <= class_id < reference.num_classes):
        raise ValueError(f"class_id {class_id} out of range [0, {reference.num_classes})")
    return dice_masks(reference.data == class_id, predicted.data == class_id)


def boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Voxels of the mask with at least one face-adjacent neighbor outside it."""
    from scipy import ndimage

    mask = np.asarray(mask, dtype=bool)
    structure = ndimage.generate_binary_structure(mask.ndim, 1)
    interior = ndimage.binary_erosion(mask, structure=structure, border_value=0)
    return mask & ~interior


def _tolerance_ball(shape, spacing, tolerance_mm: float) -> np.ndarray:
    """Boolean structure holding every lattice offset within `tolerance_mm`.

    Lengths are computed the way scipy's EDT turns a feature offset into a
    distance (float64, times spacing, squared, summed over axis 0, sqrt), so
    membership agrees bit for bit with an EDT distance compared against the
    tolerance. The reach keeps one step beyond `tol // s`, because the floor
    division can round a lattice point lying exactly at the tolerance down
    (0.8999999999999999 // 0.3 == 2); offsets past the volume never matter.
    """
    spacing = np.asarray(spacing, dtype=np.float64)
    reach = np.array([min(int(tolerance_mm // s) + 1, n - 1) for s, n in zip(spacing, shape)])
    column = (-1,) + (1,) * len(reach)
    offsets = np.indices(2 * reach + 1) - reach.reshape(column)
    return np.sqrt(np.add.reduce((offsets * spacing.reshape(column)) ** 2, axis=0)) <= tolerance_mm


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

    Each direction is one binary dilation of one boundary by the tolerance
    ball, evaluated only at the other boundary's voxels. The cost is
    O(boundary voxels x ball offsets), not O(volume): the ball grows with
    (tolerance / spacing) ** rank, so tolerances many voxels wide are slow.
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
    from scipy import ndimage

    ball = _tolerance_ball(b_t.shape, spacing, tolerance_mm)
    # outside `mask` scipy copies the input through, hence the `&`
    close_t = int(np.count_nonzero(ndimage.binary_dilation(b_p, structure=ball, mask=b_t) & b_t))
    close_p = int(np.count_nonzero(ndimage.binary_dilation(b_t, structure=ball, mask=b_p) & b_p))
    return (close_t + close_p) / (n_t + n_p)


def surface_dice(
    reference: LabelVolume, predicted: LabelVolume, class_id: int, tolerance_mm: float
) -> float:
    """Surface DSC of one class between two label volumes on the same grid."""
    check_same_grid(reference, predicted)
    if not (0 <= class_id < reference.num_classes):
        raise ValueError(f"class_id {class_id} out of range [0, {reference.num_classes})")
    return surface_dice_masks(
        reference.data == class_id, predicted.data == class_id, reference.spacing, tolerance_mm
    )


def score_segmentation(
    reference: LabelVolume,
    predicted: LabelVolume,
    tolerance_mm: float = 2.0,
) -> SegmentationScores:
    """Compute DSC and Surface DSC for every class."""
    check_same_grid(reference, predicted)
    classes = range(reference.num_classes)
    dsc = {c: dice(reference, predicted, c) for c in classes}
    sd = {c: surface_dice(reference, predicted, c, tolerance_mm) for c in classes}
    return SegmentationScores(per_class_dsc=dsc, per_class_sd=sd, tolerance_mm=float(tolerance_mm))
