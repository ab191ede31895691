"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (explicit loops, clamped indexing,
all-pairs distances) or built on a different algorithm (a full-volume
Euclidean distance transform), and shares no code with the implementation
paths it verifies.
"""

from __future__ import annotations

import itertools

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

    def boundary(mask):
        mask = np.asarray(mask, dtype=bool)
        structure = ndimage.generate_binary_structure(mask.ndim, 1)
        return mask & ~ndimage.binary_erosion(mask, structure=structure, border_value=0)

    b_t = boundary(mask_t)
    b_p = boundary(mask_p)
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
