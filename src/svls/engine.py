"""Stencil correlation: one shell-weighted 3^rank stencil over a replicated
1-voxel border, applied to vote counts.

The stencil is given by its rank + 1 shell weights: `weights[m]` is the tap
of every offset that leaves the center on m axes (0 for the center, 1 for
face, 2 for edge and 3 for corner neighbours), as `kernel.SvlsKernel` holds
them. The correlation is the sum over shells of the grid's shell sums times
the shell's weight. The shell sums come from one loop over axes whose steps
add clamped pair sums `a[i-1] + a[i+1]`, `rank * (rank + 1) / 2` of them in
all, built from numpy slices alone.

The grid holds counts: unsigned integers of at most 32 bits, nothing else.
No shell sum covers more voxels than the widest shell, `C(rank, m) * 2^m`
maximised over m (4 voxels in 2D, 12 in 3D), so the sums are taken exactly
in the smallest unsigned type that holds that many times the largest count.
"""

from __future__ import annotations

import math

import numpy as np


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
    widest = max(math.comb(rank, m) * 2**m for m in range(1, rank + 1))
    sums = np.min_scalar_type(widest * int(counts.max()))
    counts = counts.astype(np.result_type(counts.dtype, sums), copy=False)
    # shells[m]: sum of the neighbours whose offset leaves the center on m axes
    shells = [counts]
    for axis in range(rank):
        for m in range(len(shells), 0, -1):
            pairs = _pair_sum(shells[m - 1], axis)
            if m == len(shells):
                shells.append(pairs)
            else:
                shells[m] += pairs
    out = np.multiply(shells[0], weights[0], dtype=np.float64)
    term = np.empty_like(out)
    for sums, weight in zip(shells[1:], weights[1:]):
        out += np.multiply(sums, weight, out=term)
    return out
