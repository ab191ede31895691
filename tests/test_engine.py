import numpy as np
import pytest

from svls import engine


def clamped_correlation(grid, taps):
    """Explicit per-voxel correlation; out-of-range reads clamp to the nearest voxel."""
    out = np.zeros(grid.shape)
    for idx in np.ndindex(*grid.shape):
        for off in np.ndindex(*taps.shape):
            src = tuple(min(max(i + o - 1, 0), n - 1) for i, o, n in zip(idx, off, grid.shape))
            out[idx] += taps[off] * grid[src]
    return out


def test_identity_stencil_returns_grid():
    grid = np.arange(25.0).reshape(5, 5)
    taps = np.zeros((3, 3))
    taps[1, 1] = 1.0
    assert np.array_equal(engine.correlate_padded(grid, taps), grid)


def test_asymmetric_taps_match_clamped_index_loop(rng):
    # asymmetric taps tell correlation from convolution; extents 1-2 are all border
    for _ in range(40):
        rank = int(rng.integers(2, 4))
        grid = rng.random(tuple(rng.integers(1, 7, size=rank)))
        taps = rng.random((3,) * rank)
        got = engine.correlate_padded(grid, taps)
        assert got.shape == grid.shape
        np.testing.assert_allclose(got, clamped_correlation(grid, taps), rtol=1e-13, atol=0)


def test_correlate_rejects_mismatched_taps(rng):
    with pytest.raises(ValueError):
        engine.correlate_padded(rng.random((4, 4, 4)), rng.random((3, 3)))
    with pytest.raises(ValueError):
        engine.correlate_padded(rng.random(4), rng.random(3))
