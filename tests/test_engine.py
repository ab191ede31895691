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
    grid = np.arange(25, dtype=np.uint8).reshape(5, 5)
    assert np.array_equal(engine.correlate_padded(grid, np.array([1.0, 0.0, 0.0])), grid)


def expand(weights):
    """The 3^rank taps of a shell-weight vector: each tap is the weight of the
    number of axes its offset leaves the center on."""
    shell = np.add.reduce(np.indices((3,) * (len(weights) - 1)) != 1, axis=0)
    return weights[shell]


def test_shell_symmetric_taps_match_clamped_index_loop(rng):
    # extents 1-2 are all border
    for _ in range(40):
        rank = int(rng.integers(2, 4))
        dims = tuple(rng.integers(1, 7, size=rank))
        grid = rng.integers(0, 28, size=dims).astype(np.uint8)
        weights = rng.random(rank + 1)
        got = engine.correlate_padded(grid, weights)
        assert got.shape == grid.shape
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, clamped_correlation(grid, expand(weights)), rtol=1e-13, atol=0)


def test_integer_grid_sums_do_not_wrap(rng, monkeypatch):
    # the widest shell sums 12 voxels in 3D and 4 in 2D: uint8 holds 12 * 21
    # and 4 * 63 but not 12 * 22 or 4 * 64, and 12 * (2**32 - 1) needs 64
    # bits; the sums take the smallest unsigned type that holds them
    seen = set()
    pair_sum = engine._pair_sum
    monkeypatch.setattr(engine, "_pair_sum", lambda a, axis: seen.add(a.dtype) or pair_sum(a, axis))
    cases = [
        ((3, 4, 5), np.uint8, 21, np.uint8),
        ((3, 4, 5), np.uint8, 22, np.uint16),
        ((4, 4), np.uint8, 63, np.uint8),
        ((4, 4), np.uint8, 64, np.uint16),
        ((3, 3, 3), np.uint16, 5461, np.uint16),
        ((3, 3, 3), np.uint16, 5462, np.uint32),
        ((3, 3, 3), np.uint32, 1, np.uint32),
        ((3, 3, 3), np.uint32, 2**32 - 1, np.uint64),
    ]
    for dims, dtype, value, sums in cases:
        grid = np.full(dims, value, dtype)
        grid[(0,) * len(dims)] = 0  # not one value everywhere
        weights = rng.random(grid.ndim + 1)
        seen.clear()
        np.testing.assert_allclose(engine.correlate_padded(grid, weights),
                                   clamped_correlation(grid, expand(weights)), rtol=1e-13, atol=0)
        assert seen == {np.dtype(sums)}, (dims, dtype, value)


def test_grid_that_is_not_uint8_16_or_32_counts_is_rejected():
    for dtype in (np.int8, np.int64, np.uint64, np.float64, np.bool_):
        with pytest.raises(ValueError, match=f"counts must be uint8, uint16 or uint32, got {np.dtype(dtype)}"):
            engine.correlate_padded(np.ones((3, 3), dtype), np.ones(3))


def test_correlate_rejects_mismatched_taps(rng):
    grid = rng.integers(0, 3, size=(4, 4, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="shell weights"):
        engine.correlate_padded(grid, rng.random(3))
    with pytest.raises(ValueError, match="shell weights"):
        engine.correlate_padded(grid, rng.random((3, 3, 3)))
    with pytest.raises(ValueError, match="shell weights"):
        engine.correlate_padded(grid[0, 0], rng.random(2))
