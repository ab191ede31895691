"""Stencil correlation: one 3^rank stencil over a replicated 1-voxel border.

scipy.ndimage is imported where the correlation runs, so importing this
module does not load scipy.
"""

from __future__ import annotations

import numpy as np


def correlate_padded(grid: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Correlate a 2D/3D grid with a 3^rank tap stencil in float64.

    Reads past the edge take the nearest in-range voxel (a replicated
    border), so the result has the shape of `grid`.
    """
    from scipy import ndimage

    grid = np.asarray(grid, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    rank = grid.ndim
    if rank not in (2, 3) or taps.shape != (3,) * rank:
        raise ValueError(f"rank-{rank} grid does not match taps of shape {taps.shape}")
    return ndimage.correlate(grid, taps, mode="nearest")
