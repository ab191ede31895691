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
    assert np.array_equal(engine.correlate_padded(grid, np.array([1.0, 0.0, 0.0])), grid)


def expand(weights):
    """The 3^rank taps of a shell-weight vector: each tap is the weight of the
    number of axes its offset leaves the center on."""
    shell = np.add.reduce(np.indices((3,) * (len(weights) - 1)) != 1, axis=0)
    return weights[shell]


@pytest.mark.parametrize("kind", ["int", "float"])
def test_shell_symmetric_taps_match_clamped_index_loop(rng, kind):
    # extents 1-2 are all border
    for _ in range(40):
        rank = int(rng.integers(2, 4))
        dims = tuple(rng.integers(1, 7, size=rank))
        grid = rng.integers(0, 28, size=dims).astype(np.uint8) if kind == "int" else rng.random(dims)
        weights = rng.random(rank + 1)
        got = engine.correlate_padded(grid, weights)
        assert got.shape == grid.shape
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, clamped_correlation(grid, expand(weights)), rtol=1e-13, atol=0)


def test_integer_grid_sums_do_not_wrap(rng):
    # 27 * 200 does not fit in uint8, nor 27 * -100 in int8
    for grid in (np.full((3, 4, 5), 200, dtype=np.uint8), np.full((4, 4), -100, dtype=np.int8)):
        weights = rng.random(grid.ndim + 1)
        np.testing.assert_allclose(engine.correlate_padded(grid, weights),
                                   clamped_correlation(grid, expand(weights)), rtol=1e-13, atol=0)


def test_integer_grid_beyond_64_bit_sums_is_rejected():
    # 9 * 2**62 and 9 * edge = 2**63 + 1 fit no 64-bit integer, of either
    # sign, but 9 * (edge - 1) does; the message names the value range
    edge = (2**63 + 1) // 9
    for sign in (1, -1):
        for value in (2**62, edge):
            with pytest.raises(ValueError, match=r"\[.*\] overflow 64 bits"):
                engine.correlate_padded(np.full((3, 3), sign * value, np.int64), np.ones(3))
        inside = engine.correlate_padded(np.full((3, 3), sign * (edge - 1), np.int64), np.ones(3))
        assert inside[1, 1] == float(9 * sign * (edge - 1))


def test_correlate_rejects_mismatched_taps(rng):
    with pytest.raises(ValueError, match="shell weights"):
        engine.correlate_padded(rng.random((4, 4, 4)), rng.random(3))
    with pytest.raises(ValueError, match="shell weights"):
        engine.correlate_padded(rng.random((4, 4, 4)), rng.random((3, 3, 3)))
    with pytest.raises(ValueError, match="shell weights"):
        engine.correlate_padded(rng.random(4), rng.random(2))


def test_int64_grid_whose_extreme_fits_only_uint64_is_summed_as_int64():
    # 9 * 2**59 fits int64, but np.min_scalar_type of it alone is uint64,
    # and int64 with uint64 would be summed in float64
    grid = np.random.default_rng(1).integers(2**58, 2**59, (3, 3))
    center = engine.correlate_padded(grid, np.ones(3))[1, 1]
    assert center == float(int(grid.astype(object).sum()))
