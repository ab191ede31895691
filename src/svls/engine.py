"""The SVLS stencil and its correlation with vote counts.

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

The correlation over a replicated 1-voxel border is the sum over shells of
the grid's shell sums times the shell's weight. The shell sums come from one
loop over axes whose steps add clamped pair sums `a[i-1] + a[i+1]`,
`rank * (rank + 1) / 2` of them in all, built from numpy slices alone. The
grid holds counts: unsigned integers of at most 32 bits, nothing else. No
shell sum covers more voxels than the widest shell (4 in 2D, 12 in 3D), so
the sums are taken exactly in the smallest unsigned type that holds that many
times the largest count.

The shell sums are whole-grid integer arrays; only the float64 result is a
whole plane. Each weighted shell is added into it one slab of rows at a time
(`volume.slabs`), through one slab of float64 scratch, in shell order within
each slab: per voxel the same additions in the same order as whole-plane
terms, so the same bytes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .volume import _check_int, slabs


def _shell_sizes(rank: int) -> list[int]:
    """The number of taps in shells 1..rank, C(rank, m) * 2^m for shell m."""
    return [math.comb(rank, m) * 2**m for m in range(1, rank + 1)]


@dataclass(frozen=True)
class SvlsKernel:
    """Normalized spatial weight stencil of the given rank (2 or 3) and
    Gaussian bandwidth, held as its shell weights.

    `weights[m]` is the tap of every offset that leaves the center on m axes;
    the center weight is exactly 1. Both `weights` and `total_weight` are
    derived from the rank and sigma, so kernels compare and hash by those two.
    The rank is an integer, a numpy one too, and sigma a real number; neither
    is a bool.
    """

    rank: int
    sigma: float
    weights: np.ndarray = field(init=False, compare=False)
    total_weight: float = field(init=False, compare=False)

    def __post_init__(self):
        rank, sigma = self.rank, self.sigma
        _check_int(rank, f"rank must be 2 or 3, got {rank}", 2, 3)
        real = isinstance(sigma, numbers.Real) and not isinstance(sigma, bool)
        if not (real and 0 < sigma < math.inf):  # NaN fails too
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        two_var = 2.0 * sigma * sigma
        if two_var == 0.0 or math.exp(-rank / two_var) == 0.0:  # the corner weight is the smallest
            raise ValueError(f"sigma {sigma} is too small: its Gaussian weights underflow to 0")
        raw = [math.exp(-m / two_var) for m in range(1, rank + 1)]
        surround = math.fsum(n * w for n, w in zip(_shell_sizes(rank), raw))
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


def _pair_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """`a[i-1] + a[i+1]` along `axis`, with reads past either end clamped to
    the edge voxel (an extent of 1 gives `2 * a`)."""
    out = np.empty_like(a)
    src, dst = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
    n = src.shape[0]
    np.add(src[:-2], src[2:], out=dst[1:-1])
    np.add(src[0], src[min(1, n - 1)], out=dst[0])
    np.add(src[max(n - 2, 0)], src[n - 1], out=dst[n - 1])
    return out


def correlate_padded(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Correlate a 2D/3D grid of counts with the stencil of `rank + 1` shell weights; float64 result.

    Reads past the edge take the nearest in-range voxel (a replicated
    border), so the result has the shape of `counts`. The counts must be
    uint8, uint16 or uint32; their shell sums are exact.
    """
    counts = np.asarray(counts)
    weights = np.asarray(weights, dtype=np.float64)
    rank = counts.ndim
    if rank not in (2, 3) or weights.shape != (rank + 1,):
        raise ValueError(f"rank-{rank} grid does not match {weights.size} shell weights")
    if counts.dtype not in (np.uint8, np.uint16, np.uint32):
        raise ValueError(f"counts must be uint8, uint16 or uint32, got {counts.dtype}")
    sums = np.min_scalar_type(max(_shell_sizes(rank)) * int(counts.max()))
    counts = counts.astype(np.result_type(counts.dtype, sums), copy=False)
    # shells[m]: sum of the neighbours whose offset leaves the center on m axes
    shells = [counts]
    for axis in range(rank):
        shells.append(_pair_sum(shells[-1], axis))
        for m in range(len(shells) - 2, 0, -1):  # descending: shells[m - 1] still holds the last axis's sums
            shells[m] += _pair_sum(shells[m - 1], axis)
    out = np.multiply(shells[0], weights[0], dtype=np.float64)
    parts = slabs(out.shape)
    scratch = np.empty_like(out[parts[0]])
    for part in parts:
        acc, term = out[part], scratch[: part.stop - part.start]
        for sums, weight in zip(shells[1:], weights[1:]):
            acc += np.multiply(sums[part], weight, out=term)
    return out
