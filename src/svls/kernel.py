"""Gaussian-derived 3x3(x3) weight stencils for spatially varying smoothing.

The stencil starts from a discrete Gaussian sampled at voxel offsets -1..1,
replaces the center weight by the sum of all surrounding weights, and divides
everything by that new center weight. The result gives the center voxel and
its combined neighborhood equal influence: center tap 1, surrounding taps
summing to 1, total weight 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

NONCENTER_SUM_TOL = 1e-6


def _is_signed_permutation_symmetric(taps: np.ndarray) -> bool:
    for perm in itertools.permutations(range(taps.ndim)):
        permuted = np.transpose(taps, perm)
        for flips in itertools.product([1, -1], repeat=taps.ndim):
            view = permuted[tuple(slice(None, None, f) for f in flips)]
            if not np.array_equal(view, taps):
                return False
    return True


def gaussian_taps(rank: int, sigma: float = 1.0) -> np.ndarray:
    """Raw Gaussian weights on the 3^rank stencil, center scaled to 1.

    The Gaussian normalization constant 1/(sqrt(2*pi*sigma^2))^rank is
    omitted: it multiplies every tap equally and cancels in normalize_taps.
    A sigma so small that a weight underflows to 0 (below about 0.045 in
    3D), or that `sigma**2` does, is rejected.
    """
    if rank not in (2, 3):
        raise ValueError(f"rank must be 2 or 3, got {rank}")
    if not 0 < sigma < math.inf:  # NaN fails too
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    offsets = np.array([-1.0, 0.0, 1.0])
    grids = np.meshgrid(*([offsets] * rank), indexing="ij")
    r2 = np.zeros((3,) * rank)
    for g in grids:
        r2 += g * g
    with np.errstate(all="ignore"):  # the check below reports the underflow
        raw = np.exp(-r2 / (2.0 * sigma * sigma))
    if not (np.isfinite(raw).all() and raw.min() > 0):
        raise ValueError(f"sigma {sigma} is too small: its Gaussian weights underflow to 0")
    return raw


def normalize_taps(raw: np.ndarray) -> np.ndarray:
    """Apply the center-replacement normalization to raw stencil weights.

    The center becomes the sum S of the surrounding weights; dividing all
    weights by S leaves the center at exactly 1 and the surroundings summing
    to 1. Scaling `raw` by any positive constant does not change the result.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape not in ((3, 3), (3, 3, 3)):
        raise ValueError(f"expected a 3x3 or 3x3x3 stencil, got shape {raw.shape}")
    if raw.size and raw.min() <= 0:
        raise ValueError("raw weights must be strictly positive")
    center = (1,) * raw.ndim
    surround_sum = raw.sum() - raw[center]
    taps = raw / surround_sum
    taps[center] = 1.0
    return taps


@dataclass(frozen=True)
class SvlsKernel:
    """Normalized spatial weight stencil: 3^rank taps with center weight 1."""

    rank: int
    sigma: float
    taps: np.ndarray
    total_weight: float = 0.0  # filled in __post_init__

    def __post_init__(self):
        taps = np.array(self.taps, dtype=np.float64, order="C")
        if taps.shape != (3,) * self.rank:
            raise ValueError(f"taps shape {taps.shape} does not match rank {self.rank}")
        center = (1,) * self.rank
        if taps[center] != 1.0:
            raise ValueError(f"center tap must be exactly 1, got {taps[center]}")
        if taps.min() <= 0:
            raise ValueError("all taps must be strictly positive")
        noncenter = taps.sum() - 1.0
        if abs(noncenter - 1.0) > NONCENTER_SUM_TOL:
            raise ValueError(f"non-center taps sum to {noncenter}, expected 1 +/- {NONCENTER_SUM_TOL}")
        if not _is_signed_permutation_symmetric(taps):
            raise ValueError("taps must be symmetric under axis reflection and permutation")
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "total_weight", float(taps.sum()))


def svls_weights(rank: int, sigma: float = 1.0) -> SvlsKernel:
    """Build the normalized smoothing stencil for the given rank and bandwidth.

    Sigma is in voxel units; physical spacing is deliberately ignored (the
    stencil is defined on the index grid).
    """
    taps = normalize_taps(gaussian_taps(rank, sigma))
    return SvlsKernel(rank=rank, sigma=float(sigma), taps=taps)
