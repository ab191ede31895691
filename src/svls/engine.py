"""Stencil correlation: one shell-weighted 3^rank stencil over a replicated
1-voxel border.

The stencil is given by its rank + 1 shell weights: `weights[m]` is the tap
of every offset that leaves the center on m axes (0 for the center, 1 for
face, 2 for edge and 3 for corner neighbours), as `kernel.SvlsKernel` holds
them. The correlation is the sum over shells of the grid's shell sums times
the shell's weight. The shell sums come from one loop over axes whose steps
add clamped pair sums `a[i-1] + a[i+1]`, `rank * (rank + 1) / 2` of them in
all, exact on integer grids and built from numpy slices alone.
"""

from __future__ import annotations

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


def correlate_padded(grid: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Correlate a 2D/3D grid with the stencil of `rank + 1` shell weights; float64 result.

    Reads past the edge take the nearest in-range voxel (a replicated
    border), so the result has the shape of `grid`. Integer grids are summed
    exactly, in their own dtype widened where needed to the smallest one
    that holds 3^rank times their extreme values (a grid whose sums no 64-bit
    integer holds is rejected); anything else in float64.
    """
    grid = np.asarray(grid)
    weights = np.asarray(weights, dtype=np.float64)
    rank = grid.ndim
    if rank not in (2, 3) or weights.shape != (rank + 1,):
        raise ValueError(f"rank-{rank} grid does not match {weights.size} shell weights")
    if grid.dtype.kind not in "iu":
        grid = grid.astype(np.float64, copy=False)
    else:
        lo, hi = int(grid.min(initial=0)), int(grid.max(initial=0))
        bound = 3**rank * max(-lo, hi)
        # a signed grid asks for a signed type: a uint64 would send int64 sums to float64
        sums = np.min_scalar_type(-bound - 1 if grid.dtype.kind == "i" else bound)
        if sums == np.dtype(object):
            raise ValueError(f"integer grid values in [{lo}, {hi}] overflow 64 bits in 3^{rank}-voxel sums")
        grid = grid.astype(np.result_type(grid.dtype, sums), copy=False)
    # shells[m]: sum of the neighbours whose offset leaves the center on m axes
    shells = [grid]
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
