import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svls import LabelVolume, dice, score_segmentation, seg_metrics, surface_dice
from svls.seg_metrics import _ball_lines, _close_count, _tolerance_ball, boundary_mask, dice_masks, surface_dice_masks

from oracles import (
    dilation_close_count,
    edt_surface_dice,
    erosion_boundary,
    naive_boundary,
    naive_surface_dice,
)


def volume(data, num_classes=2, spacing=None):
    data = np.asarray(data, dtype=np.uint8)
    if spacing is None:
        spacing = (1.0,) * data.ndim
    return LabelVolume(data, spacing, num_classes)


def random_mask_volume(rng, max_side=12):
    dims = tuple(rng.integers(3, max_side + 1, size=3))
    data = (rng.random(dims) < 0.3).astype(np.uint8)
    spacing = tuple(rng.choice([0.5, 1.0, 1.25, 2.0]) for _ in range(3))
    return LabelVolume(data, spacing, 2)


def test_dice_identical_masks(rng):
    vol = volume((rng.random((5, 5, 5)) < 0.4).astype(np.uint8))
    assert dice(vol, vol, 1) == 1.0
    assert dice(vol, vol, 0) == 1.0


def test_dice_disjoint_masks():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[0, 0] = 1
    b[3, 3] = 1
    assert dice(volume(a), volume(b), 1) == 0.0


def test_dice_half_overlap():
    a = np.zeros((10, 20), dtype=np.uint8)
    b = np.zeros((10, 20), dtype=np.uint8)
    a[:, :10] = 1   # |T| = 100
    b[:, 5:15] = 1  # |P| = 100, overlap 50
    assert dice(volume(a), volume(b), 1) == 0.5


def test_dice_empty_vs_empty_is_one():
    a = volume(np.zeros((3, 3), dtype=np.uint8), num_classes=3)
    assert dice(a, a, 2) == 1.0


def test_dice_invariant_to_other_class_relabeling(rng):
    ref = rng.integers(0, 3, size=(6, 6)).astype(np.uint8)
    pred = rng.integers(0, 3, size=(6, 6)).astype(np.uint8)
    base = dice(volume(ref, 3), volume(pred, 3), 1)
    # swap labels 0 <-> 2 everywhere; class 1 masks are untouched
    swapped = pred.copy()
    swapped[pred == 0] = 2
    swapped[pred == 2] = 0
    assert dice(volume(ref, 3), volume(swapped, 3), 1) == base


def test_dice_one_iff_identical_masks(rng):
    ref = (rng.random((5, 5)) < 0.5).astype(np.uint8)
    assert dice(volume(ref), volume(ref), 1) == 1.0
    tweaked = ref.copy()
    tweaked[2, 2] = 1 - tweaked[2, 2]
    assert dice(volume(ref), volume(tweaked), 1) < 1.0


def test_dice_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        dice(volume(np.zeros((3, 3), dtype=np.uint8)), volume(np.zeros((4, 3), dtype=np.uint8)), 0)


def test_boundary_cube_sheds_center():
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[1:4, 1:4, 1:4] = True
    coords = np.argwhere(boundary_mask(mask))
    assert len(coords) == 26
    assert [2, 2, 2] not in coords.tolist()


def test_boundary_single_voxel():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 2] = True
    assert np.argwhere(boundary_mask(mask)).tolist() == [[1, 2]]


def test_boundary_empty_mask():
    assert np.argwhere(boundary_mask(np.zeros((3, 3, 3), dtype=bool))).size == 0


def test_boundary_volume_border_counts_as_outside():
    # a mask filling the whole volume is all boundary except the interior core
    mask = np.ones((3, 3, 3), dtype=bool)
    assert len(np.argwhere(boundary_mask(mask))) == 26


def test_boundary_matches_naive(rng):
    for _ in range(10):
        mask = rng.random(tuple(rng.integers(2, 8, size=3))) < 0.4
        got = set(map(tuple, np.argwhere(boundary_mask(mask))))
        assert got == set(naive_boundary(mask))


def test_surface_dice_identical_masks(rng):
    vol = random_mask_volume(rng)
    for tol in (0.0, 1.0, 5.0):
        assert surface_dice(vol, vol, 1, tol) == 1.0


def test_surface_dice_huge_tolerance(rng):
    ref = random_mask_volume(rng)
    pred = LabelVolume(1 - ref.data, ref.spacing, 2)
    diagonal = np.sqrt(sum((s * d) ** 2 for s, d in zip(ref.spacing, ref.dims)))
    if ref.data.any() and pred.data.any():
        assert surface_dice(ref, pred, 1, diagonal) == 1.0


def test_surface_dice_shifted_cube():
    a = np.zeros((8, 8, 8), dtype=np.uint8)
    b = np.zeros((8, 8, 8), dtype=np.uint8)
    a[2:5, 2:5, 2:5] = 1
    b[3:6, 2:5, 2:5] = 1  # shifted one voxel along axis 0, unit spacing
    va, vb = volume(a), volume(b)
    assert surface_dice(va, vb, 1, 1.0) == 1.0
    assert surface_dice(va, vb, 1, 0.5) < 1.0


def test_surface_dice_empty_conventions():
    empty = volume(np.zeros((4, 4, 4), dtype=np.uint8))
    solid = np.zeros((4, 4, 4), dtype=np.uint8)
    solid[1:3, 1:3, 1:3] = 1
    assert surface_dice(empty, empty, 1, 1.0) == 1.0
    assert surface_dice(empty, volume(solid), 1, 1.0) == 0.0
    assert surface_dice(volume(solid), empty, 1, 1.0) == 0.0


def test_surface_dice_symmetric_and_monotone(rng):
    for _ in range(5):
        ref = random_mask_volume(rng, max_side=9)
        pred = LabelVolume(
            (rng.random(ref.dims) < 0.3).astype(np.uint8), ref.spacing, 2
        )
        tols = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        scores = [surface_dice(ref, pred, 1, t) for t in tols]
        assert all(a <= b for a, b in zip(scores, scores[1:]))
        for t in tols:
            assert surface_dice(ref, pred, 1, t) == surface_dice(pred, ref, 1, t)


def test_surface_dice_equals_brute_force(rng):
    for _ in range(8):
        ref = random_mask_volume(rng, max_side=8)
        pred = LabelVolume((rng.random(ref.dims) < 0.3).astype(np.uint8), ref.spacing, 2)
        tol = float(rng.uniform(0.2, 3.0))
        got = surface_dice(ref, pred, 1, tol)
        expected = naive_surface_dice(ref.data == 1, pred.data == 1, ref.spacing, tol)
        assert got == expected


def lattice_distance(offset, spacing) -> float:
    """Length of a lattice offset, in the float operations scipy's EDT uses."""
    scaled = np.asarray(offset, dtype=np.float64).reshape(-1, 1) * np.reshape(spacing, (-1, 1))
    return float(np.sqrt(np.add.reduce(scaled**2, axis=0))[0])


def test_surface_dice_equals_edt_at_lattice_tolerances(rng):
    spacings = [0.3, 0.5, 0.7, 1.0, 1.1, 2.0, 3.6]
    for _ in range(300):
        rank = int(rng.integers(2, 4))
        dims = tuple(int(d) for d in rng.integers(1, 11, size=rank))
        spacing = tuple(float(rng.choice(spacings)) for _ in range(rank))
        mask_t = rng.random(dims) < rng.uniform(0.05, 0.6)
        mask_p = rng.random(dims) < rng.uniform(0.05, 0.6)
        # a tolerance equal to a lattice distance puts voxel pairs exactly on it
        tol = lattice_distance(rng.integers(0, 5, size=rank), spacing)
        got = surface_dice_masks(mask_t, mask_p, spacing, tol)
        assert got == edt_surface_dice(mask_t, mask_p, spacing, tol), (dims, spacing, tol)


def test_surface_dice_counts_pair_exactly_at_tolerance():
    # 3 * 0.3 == 0.8999999999999999 and 0.8999999999999999 // 0.3 == 2: a
    # search reach of tol // spacing alone would miss the voxel 3 steps away
    mask_t = np.zeros((6, 1), dtype=bool)
    mask_p = np.zeros((6, 1), dtype=bool)
    mask_t[1, 0] = True
    mask_p[4, 0] = True
    spacing = (0.3, 0.7)
    tol = 3 * 0.3
    assert tol // spacing[0] == 2
    assert edt_surface_dice(mask_t, mask_p, spacing, tol) == 1.0
    assert surface_dice_masks(mask_t, mask_p, spacing, tol) == 1.0


def test_surface_dice_spacing_mismatch():
    a = volume(np.zeros((3, 3), dtype=np.uint8), spacing=(1.0, 1.0))
    b = volume(np.zeros((3, 3), dtype=np.uint8), spacing=(2.0, 1.0))
    with pytest.raises(ValueError, match="spacing"):
        surface_dice(a, b, 1, 1.0)


def test_surface_dice_rejects_negative_tolerance():
    a = volume(np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="tolerance"):
        surface_dice_masks(a.data == 1, a.data == 1, a.spacing, -1.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_surface_dice_rejects_non_finite_tolerance(tol):
    mask = np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError, match="tolerance"):
        surface_dice_masks(mask, mask, (1.0, 1.0), tol)


def test_score_segmentation_all_classes(rng):
    ref = LabelVolume(rng.integers(0, 3, size=(6, 6, 6)).astype(np.uint8), (1.0, 1.0, 1.0), 3)
    scores = score_segmentation(ref, ref, tolerance_mm=2.0)
    assert set(scores.per_class_dsc) == {0, 1, 2}
    assert all(v == 1.0 for v in scores.per_class_dsc.values())
    assert all(v == 1.0 for v in scores.per_class_sd.values())
    assert scores.tolerance_mm == 2.0


def three_class_pair(rng, dims=(6, 7, 8)):
    """Two unrelated 3-class label volumes on one anisotropic grid."""
    spacing = (1.0, 0.5, 1.25)
    ref, pred = (LabelVolume(rng.integers(0, 3, size=dims).astype(np.uint8), spacing, 3) for _ in range(2))
    return ref, pred


def test_a_list_of_class_ids_is_scored_as_the_union_of_its_classes(rng):
    ref, pred = three_class_pair(rng)
    mask_t, mask_p = np.isin(ref.data, [0, 2]), np.isin(pred.data, [0, 2])
    assert dice(ref, pred, [2, 0]) == dice_masks(mask_t, mask_p)
    assert surface_dice(ref, pred, [2, 0], 1.5) == surface_dice_masks(mask_t, mask_p, ref.spacing, 1.5)
    assert dice(ref, pred, [1]) == dice(ref, pred, 1)


def test_numpy_integer_class_ids_score_as_python_ints(rng):
    ref, pred = three_class_pair(rng)
    for class_ids in (np.int64(1), np.uint8(1), [np.int64(1), np.uint8(2)], np.array([1, 2])):
        python = [int(i) for i in class_ids] if np.ndim(class_ids) else int(class_ids)
        assert dice(ref, pred, class_ids) == dice(ref, pred, python)
        assert surface_dice(ref, pred, class_ids, 2.0) == surface_dice(ref, pred, python, 2.0)


@pytest.mark.parametrize(
    "class_ids",
    [3, [1, 3], -1, [], 1.5, [0.5], True],
    ids=["num-classes", "in-list", "negative", "empty", "float", "float-in-list", "bool"],
)
def test_class_ids_outside_the_classes_are_rejected(rng, class_ids):
    ref, pred = three_class_pair(rng)
    dice(ref, pred, 2)  # the last class is accepted
    surface_dice(ref, pred, 2, 1.0)
    with pytest.raises(ValueError, match=r"class ids outside \[0, 3\)"):
        dice(ref, pred, class_ids)
    with pytest.raises(ValueError, match=r"class ids outside \[0, 3\)"):
        surface_dice(ref, pred, class_ids, 1.0)


def test_score_segmentation_rows_are_classes_then_regions_then_comp(rng):
    ref, pred = three_class_pair(rng)
    regions = {"fg": [1, 2], "all": [0, 1, 2]}  # a region may hold the background class
    scores = score_segmentation(ref, pred, 1.5, regions=regions, composite=True)
    for rows in (scores.per_class_dsc, scores.per_class_sd):
        assert list(rows) == [0, 1, 2, "fg", "all", "comp"]
        assert rows["comp"] == (rows[1] + rows[2]) / 2
        assert rows["all"] == 1.0  # both masks are the whole volume
    assert scores.per_class_dsc["fg"] == dice(ref, pred, [1, 2])
    assert scores.per_class_sd["fg"] == surface_dice(ref, pred, [1, 2], 1.5)
    assert scores.per_class_dsc[1] == dice(ref, pred, 1)


@pytest.mark.parametrize(
    "regions, composite",
    [({1: [2]}, False), ({"1": [2]}, False), ({"comp": [1]}, True), ({300: [1], "300": [2]}, False)],
    ids=["int-key", "str-key", "comp", "two-regions"],
)
def test_score_segmentation_rejects_a_region_named_as_another_row(rng, monkeypatch, regions, composite):
    # the report writes row names as text, so the key 1 would take class row 1
    ref, pred = three_class_pair(rng)
    monkeypatch.setattr(seg_metrics, "dice", None)  # rejected before any row is scored
    with pytest.raises(ValueError, match="collides with the '(1|comp|300)' row"):
        score_segmentation(ref, pred, regions=regions, composite=composite)


@pytest.mark.parametrize("ids", [[3], [1, -1], [], [0.5]], ids=["num-classes", "negative", "empty", "float"])
def test_score_segmentation_rejects_region_ids_that_are_not_classes(rng, monkeypatch, ids):
    ref, pred = three_class_pair(rng)
    monkeypatch.setattr(seg_metrics, "dice", None)  # rejected before any row is scored
    with pytest.raises(ValueError, match=r"region 'bad' has class ids outside \[0, 3\)"):
        score_segmentation(ref, pred, regions={"fg": [1, 2], "bad": ids})


def test_boundary_mask_2d_four_adjacency():
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:4, 1:4] = True
    inner = boundary_mask(mask)
    assert inner[2, 2] == False  # noqa: E712 - interior voxel survives erosion
    assert inner.sum() == 8


@st.composite
def masks(draw, dims):
    """Seeded noise of a drawn density, or one box: boundaries dense or sparse."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.random(dims) < draw(st.floats(0.05, 0.95))
    lo = [int(rng.integers(0, n)) for n in dims]
    hi = [int(rng.integers(a, n)) + 1 for a, n in zip(lo, dims)]
    mask = np.zeros(dims, dtype=bool)
    mask[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
    return mask


@st.composite
def mask_pairs(draw):
    """2-D/3-D mask pairs: extents 1-13, spacings 0.3-3.6, tolerances up to 10 finest voxels."""
    rank = draw(st.integers(2, 3))
    dims = tuple(draw(st.lists(st.integers(1, 13), min_size=rank, max_size=rank)))
    spacing = tuple(draw(st.lists(st.floats(0.3, 3.6), min_size=rank, max_size=rank)))
    tolerance = draw(st.floats(0.0, 10.0)) * min(spacing)
    return draw(masks(dims)), draw(masks(dims)), spacing, tolerance


@settings(max_examples=200, deadline=None)
@given(case=mask_pairs())
def test_boundaries_and_close_counts_equal_the_ndimage_oracles(case):
    mask_t, mask_p, spacing, tolerance = case
    b_t, b_p = boundary_mask(mask_t), boundary_mask(mask_p)
    assert np.array_equal(b_t, erosion_boundary(mask_t))
    assert np.array_equal(b_p, erosion_boundary(mask_p))
    lines = _ball_lines(b_t.shape, spacing, tolerance)
    ball = _tolerance_ball(b_t.shape, spacing, tolerance)
    assert _close_count(b_p, b_t, lines) == dilation_close_count(b_p, b_t, ball)
    assert _close_count(b_t, b_p, lines) == dilation_close_count(b_t, b_p, ball)


def test_tolerance_ball_spans_one_step_past_the_floored_reach_and_no_more():
    # tol // 0.3 == 2, yet 3 steps of 0.3 mm lie exactly at the tolerance
    tol = 0.8999999999999999
    assert tol // 0.3 == 2 and 3 * 0.3 == tol
    ball = _tolerance_ball((20, 20), (0.3, 1.0), tol)
    assert ball.shape == (7, 3)
    assert ball[0, 1] and ball[6, 1]
