"""Gaussian-derived 3x3(x3) weight stencils for spatially varying smoothing.

The stencil starts from a discrete Gaussian sampled at voxel offsets -1..1,
replaces the center weight by the sum of all surrounding weights, and divides
everything by that new center weight. The result gives the center voxel and
its combined neighborhood equal influence: center tap 1, surrounding taps
summing to 1, total weight 2.

The sampled Gaussian is symmetric under axis reflection and permutation, so a
tap depends only on its shell: the number m of axes on which its offset leaves
the center (0 for the center, 1 for face, 2 for edge and 3 for corner
neighbours). Shell m holds C(rank, m) * 2^m taps of raw weight
exp(-m / (2 sigma^2)). The stencil is stored as its rank + 1 shell weights;
the surround sum is taken over shells 1..rank alone, so it never cancels
against the center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NONCENTER_SUM_TOL = 1e-6


def _surround_sum(rank: int, surround: list[float]) -> float:
    """Sum of the non-center taps, given the weights of shells 1..rank: shell
    m holds C(rank, m) * 2^m taps. No term cancels another."""
    return math.fsum(math.comb(rank, m) * 2**m * w for m, w in enumerate(surround, start=1))


@dataclass(frozen=True)
class SvlsKernel:
    """Normalized spatial weight stencil held as its shell weights.

    `weights[m]` is the tap of every offset that leaves the center on m axes;
    the center weight is exactly 1.
    """

    rank: int
    sigma: float
    weights: np.ndarray
    total_weight: float = field(init=False)  # computed from the weights

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        if weights.shape != (self.rank + 1,):
            raise ValueError(f"{weights.size} shell weights do not match rank {self.rank}")
        if weights[0] != 1.0:
            raise ValueError(f"center tap must be exactly 1, got {weights[0]}")
        if not weights.min() > 0:
            raise ValueError("all taps must be strictly positive")
        noncenter = _surround_sum(self.rank, weights[1:].tolist())
        if abs(noncenter - 1.0) > NONCENTER_SUM_TOL:
            raise ValueError(f"non-center taps sum to {noncenter}, expected 1 +/- {NONCENTER_SUM_TOL}")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        # numpy's sum of the expanded taps, not 1 + noncenter: the two can
        # differ in the last bit, and `kernel` output and SVLS volumes keep this one
        object.__setattr__(self, "total_weight", float(self.taps.sum()))

    @property
    def taps(self) -> np.ndarray:
        """The full 3^rank stencil, each tap its shell's weight."""
        shell = np.add.reduce(np.indices((3,) * self.rank) != 1, axis=0)
        return self.weights[shell]


def svls_weights(rank: int, sigma: float = 1.0) -> SvlsKernel:
    """Build the normalized smoothing stencil for the given rank and bandwidth.

    Sigma is in voxel units; physical spacing is deliberately ignored (the
    stencil is defined on the index grid). A sigma so small that the corner
    weight underflows to 0 (below about 0.045 in 3D and 0.037 in 2D) is
    rejected.
    """
    if rank not in (2, 3):
        raise ValueError(f"rank must be 2 or 3, got {rank}")
    if not 0 < sigma < math.inf:  # NaN fails too
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    two_var = 2.0 * sigma * sigma
    if two_var == 0.0 or math.exp(-rank / two_var) == 0.0:  # the corner weight is the smallest
        raise ValueError(f"sigma {sigma} is too small: its Gaussian weights underflow to 0")
    raw = [math.exp(-m / two_var) for m in range(1, rank + 1)]
    surround = _surround_sum(rank, raw)
    return SvlsKernel(rank=rank, sigma=float(sigma), weights=[1.0] + [w / surround for w in raw])
