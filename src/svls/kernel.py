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

Sigma is in voxel units; physical spacing is deliberately ignored (the
stencil is defined on the index grid). A sigma so small that the corner
weight underflows to 0 (below about 0.045 in 3D and 0.037 in 2D) is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SvlsKernel:
    """Normalized spatial weight stencil of the given rank (2 or 3) and
    Gaussian bandwidth, held as its shell weights.

    `weights[m]` is the tap of every offset that leaves the center on m axes;
    the center weight is exactly 1. Both `weights` and `total_weight` are
    derived from the rank and sigma, so kernels compare and hash by those two.
    """

    rank: int
    sigma: float = 1.0
    weights: np.ndarray = field(init=False, compare=False)
    total_weight: float = field(init=False, compare=False)

    def __post_init__(self):
        rank, sigma = self.rank, self.sigma
        if rank not in (2, 3):
            raise ValueError(f"rank must be 2 or 3, got {rank}")
        if not 0 < sigma < math.inf:  # NaN fails too
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        two_var = 2.0 * sigma * sigma
        if two_var == 0.0 or math.exp(-rank / two_var) == 0.0:  # the corner weight is the smallest
            raise ValueError(f"sigma {sigma} is too small: its Gaussian weights underflow to 0")
        raw = [math.exp(-m / two_var) for m in range(1, rank + 1)]
        surround = math.fsum(math.comb(rank, m) * 2**m * w for m, w in enumerate(raw, start=1))
        weights = np.array([1.0] + [w / surround for w in raw], dtype=np.float64)
        weights.setflags(write=False)
        object.__setattr__(self, "sigma", float(sigma))
        object.__setattr__(self, "weights", weights)
        # numpy's sum of the expanded taps, not 2: the two can differ in the
        # last bit, and `kernel` output and SVLS volumes keep this one
        object.__setattr__(self, "total_weight", float(self.taps.sum()))

    @property
    def taps(self) -> np.ndarray:
        """The full 3^rank stencil, each tap its shell's weight."""
        shell = np.add.reduce(np.indices((3,) * self.rank) != 1, axis=0)
        return self.weights[shell]
