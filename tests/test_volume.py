import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svls import (
    LabelVolume,
    LogitVolume,
    RaterSet,
    SoftLabelVolume,
    argmax_labels,
    calibrate_report,
    ce_gradient,
    cross_entropy,
    dice,
    one_hot_encode,
    reliability,
    score_segmentation,
    surface_dice,
    tace,
    volume,
)
from svls.volume import top_class

from conftest import random_labels, slab_cuts, sum_block


def test_one_hot_single_voxel():
    vol = LabelVolume(np.array([[2]], dtype=np.uint8), (1.0, 1.0), 4)
    soft = one_hot_encode(vol)
    assert soft.data[:, 0, 0].tolist() == [0.0, 0.0, 1.0, 0.0]


def test_one_hot_all_background():
    vol = LabelVolume(np.zeros((4, 5), dtype=np.uint8), (1.0, 1.0), 2)
    soft = one_hot_encode(vol)
    assert np.all(soft.data[0] == 1.0)
    assert np.all(soft.data[1] == 0.0)


def test_one_hot_matches_patch_lookup(rng):
    patch = (rng.random((3, 3)) < 0.5).astype(np.uint8)
    vol = LabelVolume(patch, (1.0, 1.0), 2)
    soft = one_hot_encode(vol)
    for i in range(3):
        for j in range(3):
            assert soft.data[patch[i, j], i, j] == 1.0
            assert soft.data[1 - patch[i, j], i, j] == 0.0


def test_one_hot_sums_to_one(rng):
    vol = random_labels(rng, (4, 5, 6), 5)
    soft = one_hot_encode(vol)
    assert np.all(soft.data.sum(axis=0) == 1.0)


def test_argmax_strict_maximum():
    soft = SoftLabelVolume(np.array([0.2, 0.5, 0.3], dtype=np.float32).reshape(3, 1, 1), (1.0, 1.0))
    assert argmax_labels(soft).data[0, 0] == 1


def test_argmax_tie_breaks_low():
    soft = SoftLabelVolume(np.array([0.5, 0.5], dtype=np.float32).reshape(2, 1, 1), (1.0, 1.0))
    assert argmax_labels(soft).data[0, 0] == 0


@st.composite
def tied_planes(draw):
    """Class-first float32 or float64 planes, 2-6 classes over 2 or 3 axes,
    with values from a handful of levels so that tied maxima are common."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (draw(st.integers(2, 6)), *draw(st.lists(st.integers(1, 5), min_size=2, max_size=3)))
    levels = draw(st.lists(st.floats(-2.0, 2.0, width=32), min_size=1, max_size=4))
    return draw(arrays(dtype, shape, elements=st.sampled_from(levels)))


@settings(max_examples=300, deadline=None)
@given(planes=tied_planes())
def test_top_class_is_the_argmax_and_max_over_the_class_axis(planes):
    labels, top = top_class(planes)
    assert labels.dtype == np.uint8 and top.dtype == planes.dtype
    assert labels.tobytes() == np.argmax(planes, axis=0).astype(np.uint8).tobytes()
    assert top.tobytes() == planes.max(axis=0).tobytes()


def test_argmax_rejects_more_classes_than_labels_hold():
    planes = np.zeros((257, 1, 2), dtype=np.float32)
    planes[256] = 1.0
    with pytest.raises(ValueError, match=r"num_classes must be in \[2, 256\], got 257"):
        argmax_labels(SoftLabelVolume(planes, (1.0, 1.0)))


def test_argmax_one_hot_roundtrip(rng):
    vol = random_labels(rng, (5, 4, 3), 4)
    back = argmax_labels(one_hot_encode(vol))
    assert np.array_equal(back.data, vol.data)
    assert back.num_classes == vol.num_classes
    assert back.spacing == vol.spacing


def test_label_volume_rejects_out_of_range():
    with pytest.raises(ValueError):
        LabelVolume(np.array([[0, 3]], dtype=np.uint8), (1.0, 1.0), 3)


def test_label_volume_accepts_as_many_classes_as_uint8_labels_hold():
    vol = LabelVolume(np.array([[0, 255]], dtype=np.uint8), (1.0, 1.0), 256)
    assert vol.num_classes == 256


def test_label_volume_rejects_single_class():
    with pytest.raises(ValueError):
        LabelVolume(np.zeros((2, 2), dtype=np.uint8), (1.0, 1.0), 1)


@pytest.mark.parametrize("num_classes", [2.5, 3.0, True, "3"])
def test_label_volume_rejects_a_class_count_that_is_not_an_integer(num_classes):
    with pytest.raises(ValueError) as info:
        LabelVolume(np.zeros((3, 3), dtype=np.uint8), (1.0, 1.0), num_classes)
    assert str(info.value) == f"num_classes must be in [2, 256], got {num_classes}"


def test_label_volume_takes_a_numpy_integer_class_count():
    assert LabelVolume(np.zeros((3, 3), dtype=np.uint8), (1.0, 1.0), np.int64(3)).num_classes == 3


@pytest.mark.parametrize("data, message", [
    (np.zeros(3, dtype=np.uint8), "label volume must have 2 or 3 axes, got 1"),
    (np.zeros((0, 3), dtype=np.uint8), r"all dims must be >= 1, got \(0, 3\)"),
    (np.zeros((2, 2), dtype=np.float32), "labels must be integers, got dtype float32"),
])
def test_label_volume_names_its_shape_or_dtype_fault(data, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LabelVolume(data, (1.0,) * max(data.ndim, 2), 2)


def test_label_volume_rejects_bad_spacing():
    with pytest.raises(ValueError):
        LabelVolume(np.zeros((2, 2), dtype=np.uint8), (1.0, 0.0), 2)
    with pytest.raises(ValueError):
        LabelVolume(np.zeros((2, 2), dtype=np.uint8), (1.0, 1.0, 1.0), 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_volumes_reject_non_finite_spacing(bad):
    # NaN fails every comparison, so a check written as "s <= 0" lets it through
    spacing = (bad, 1.0)
    planes = np.array([[[1.0]], [[0.0]]], dtype=np.float32)
    with pytest.raises(ValueError, match="spacing"):
        LabelVolume(np.zeros((1, 1), dtype=np.uint8), spacing, 2)
    with pytest.raises(ValueError, match="spacing"):
        SoftLabelVolume(planes, spacing)
    with pytest.raises(ValueError, match="spacing"):
        LogitVolume(planes, spacing)


@pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["positive", "negative"])
def test_volumes_reject_an_integer_spacing_beyond_float_range(huge):
    # float() of such an integer raises OverflowError, which no container may let out
    spacing = (huge, 1.0)
    planes = np.array([[[1.0]], [[0.0]]], dtype=np.float32)
    message = "spacing must be positive and finite"
    with pytest.raises(ValueError, match=message):
        LabelVolume(np.zeros((1, 1), dtype=np.uint8), spacing, 2)
    with pytest.raises(ValueError, match=message):
        SoftLabelVolume(planes, spacing)
    with pytest.raises(ValueError, match=message):
        LogitVolume(planes, spacing)


def test_soft_volume_rejects_bad_sum():
    data = np.full((2, 2, 2), 0.6, dtype=np.float32)
    data[:, 0, 0] = 0.5
    with pytest.raises(ValueError) as info:
        SoftLabelVolume(data, (1.0, 1.0))
    # the first bad voxel, with its float64 sum of the float32 values
    assert str(info.value) == "voxel (0, 1) probabilities sum to 1.2000000476837158, expected 1 +/- 1e-06"


def test_soft_volume_rejects_a_bad_sum_in_the_last_partial_slab():
    # slabs of two rows cut axis 0 as [0, 2), [2, 4), [4, 5): the bad voxel is in the last
    data = np.full((2, 5, 3, 2), 0.5, dtype=np.float32)
    data[0, 4, 2, 1] = 0.75
    with sum_block(12):
        assert volume.slabs((5, 3, 2)) == [slice(0, 2), slice(2, 4), slice(4, 5)]
        with pytest.raises(ValueError) as info:
            SoftLabelVolume(data, (1.0, 1.0, 1.0))
    assert str(info.value) == "voxel (4, 2, 1) probabilities sum to 1.25, expected 1 +/- 1e-06"


@settings(max_examples=80, deadline=None)
@given(cut=slab_cuts(), data=st.data())
def test_sum_check_names_the_first_bad_voxel_whatever_its_slab(cut, data):
    dims, block, num_slabs = cut
    n = data.draw(st.integers(2, 4))
    planes = np.full((n,) + dims, 1 / n, dtype=np.float32)
    voxels = st.tuples(*(st.integers(0, d - 1) for d in dims))
    bad = data.draw(st.lists(voxels, max_size=3, unique=True))
    for voxel in bad:
        planes[(0,) + voxel] += np.float32(0.25)
    with sum_block(block):
        assert len(volume.slabs(dims)) == num_slabs
        if not bad:
            SoftLabelVolume(planes, (1.0,) * len(dims))
            return
        with pytest.raises(ValueError) as info:
            SoftLabelVolume(planes, (1.0,) * len(dims))
    first = min(bad)  # C order
    total = float(planes.sum(axis=0, dtype=np.float64)[first])
    assert str(info.value) == f"voxel {first} probabilities sum to {total}, expected 1 +/- 1e-06"


@pytest.mark.parametrize("shape, block, expected", [
    ((5,), 2, [slice(0, 2), slice(2, 4), slice(4, 5)]),
    ((4, 3), 6, [slice(0, 2), slice(2, 4)]),
    ((4, 3), 8, [slice(0, 2), slice(2, 4)]),
    ((3, 3), 2, [slice(0, 1), slice(1, 2), slice(2, 3)]),
    ((1, 7, 7), 1 << 14, [slice(0, 1)]),
])
def test_slabs_cover_the_first_axis_in_runs_of_whole_rows(shape, block, expected):
    with sum_block(block):
        assert volume.slabs(shape) == expected


def test_soft_volume_rejects_out_of_range():
    data = np.array([[[1.2]], [[-0.2]]], dtype=np.float32)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SoftLabelVolume(data, (1.0, 1.0))


def test_soft_volume_rejects_a_negative_value_in_a_voxel_summing_to_one():
    # every value is at most 1 and the sum is 1: only the lower bound rejects it
    data = np.array([-0.1, 0.6, 0.5], dtype=np.float32).reshape(3, 1, 1)
    with pytest.raises(ValueError, match=r"\[0, 1\], found range \[-0.1"):
        SoftLabelVolume(data, (1.0, 1.0))


def test_soft_volume_rejects_nan():
    # NaN fails every comparison and poisons the voxel sum, so only a range
    # check written as "not (min >= 0 and max <= 1)" catches it
    data = np.array([[[np.nan, 0.0]], [[1.0, 1.0]]], dtype=np.float32)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SoftLabelVolume(data, (1.0, 1.0))


@pytest.mark.parametrize("make", [SoftLabelVolume, LogitVolume], ids=["probs", "logits"])
@pytest.mark.parametrize(
    "shape, message",
    [((2, 3), "class axis plus 2 or 3"), ((1, 3, 3), "at least 2 classes, got 1$"),
     ((2, 0, 3), r"dims must be >= 1, got \(0, 3\)$")],
    ids=["no-class-axis", "one-class", "zero-extent"],
)
def test_class_axis_containers_share_one_shape_rule(make, shape, message):
    with pytest.raises(ValueError, match=message):
        make(np.zeros(shape, dtype=np.float32), (1.0, 1.0))


def test_volumes_are_immutable(rng):
    vol = random_labels(rng, (3, 3), 2)
    with pytest.raises(ValueError):
        vol.data[0, 0] = 1
    soft = one_hot_encode(vol)
    with pytest.raises(ValueError):
        soft.data[0, 0, 0] = 0.5


# the ownership rule, for each container: (constructor, stored dtype, another dtype)
CONTAINERS = {
    "labels": (lambda a: LabelVolume(a, (1.0, 1.0, 1.0), 2), np.uint8, np.int64),
    "probs": (lambda a: SoftLabelVolume(a, (1.0, 1.0)), np.float32, np.float16),
    "logits": (lambda a: LogitVolume(a, (1.0, 1.0)), np.float32, np.float16),
}


def planes(dtype, shape=(2, 3, 4)):
    """0/1 planes that are valid labels (rank 3), probabilities and logits (2 classes)."""
    arr = np.zeros(shape, dtype=dtype)
    arr[0, ::2] = 1
    arr[1] = 1 - arr[0]
    return arr


def frozen(arr):
    arr.setflags(write=False)
    return arr


@pytest.mark.parametrize("kind", CONTAINERS)
def test_writable_input_is_copied(kind):
    make, dtype, _ = CONTAINERS[kind]
    arr = planes(dtype)
    vol = make(arr)
    assert arr.flags.writeable
    assert not np.shares_memory(vol.data, arr)
    arr[...] = 0
    assert np.array_equal(vol.data, planes(dtype))


@pytest.mark.parametrize("kind", CONTAINERS)
def test_read_only_view_of_writable_memory_is_copied(kind):
    make, dtype, _ = CONTAINERS[kind]
    base = planes(dtype)
    vol = make(frozen(base.view()))
    assert base.flags.writeable
    assert not np.shares_memory(vol.data, base)
    base[...] = 0
    assert np.array_equal(vol.data, planes(dtype))


@pytest.mark.parametrize("kind", CONTAINERS)
def test_read_only_array_over_a_bytearray_is_copied(kind):
    make, dtype, _ = CONTAINERS[kind]
    buffer = bytearray(planes(dtype).tobytes())
    arr = frozen(np.frombuffer(buffer, dtype=dtype).reshape(2, 3, 4))
    vol = make(arr)
    assert not np.shares_memory(vol.data, arr)
    buffer[:] = bytes(len(buffer))
    assert np.array_equal(vol.data, planes(dtype))


@pytest.mark.parametrize("kind", CONTAINERS)
def test_read_only_array_owning_its_memory_is_adopted(kind):
    make, dtype, _ = CONTAINERS[kind]
    owner = frozen(planes(dtype))
    assert make(owner).data is owner


@pytest.mark.parametrize("kind", CONTAINERS)
def test_read_only_view_of_a_frozen_owner_is_copied(kind):
    make, dtype, _ = CONTAINERS[kind]
    flat = frozen(planes(dtype).ravel().copy())
    view = flat.reshape(2, 3, 4)
    assert not view.flags.writeable and not view.flags.owndata
    vol = make(view)
    assert not np.shares_memory(vol.data, flat)
    assert vol.data.flags.owndata and not vol.data.flags.writeable


@pytest.mark.parametrize("kind", CONTAINERS)
def test_other_dtype_or_layout_is_copied(kind):
    make, dtype, other = CONTAINERS[kind]
    wide = frozen(planes(dtype, shape=(2, 3, 8)))
    for arr in (frozen(planes(other)), frozen(np.asfortranarray(planes(dtype))), wide[:, :, ::2]):
        vol = make(arr)
        assert not np.shares_memory(vol.data, arr)
        assert vol.data.flags.c_contiguous and not vol.data.flags.writeable
        assert np.array_equal(vol.data, planes(dtype))


def test_logit_volume_keeps_float32_and_widens_other_dtypes():
    assert LogitVolume(planes(np.float32), (1.0, 1.0)).data.dtype == np.float32
    assert LogitVolume(planes(np.float64), (1.0, 1.0)).data.dtype == np.float64
    assert LogitVolume(planes(np.float16), (1.0, 1.0)).data.dtype == np.float64
    assert LogitVolume(planes(np.int32), (1.0, 1.0)).data.dtype == np.float64


# every call site that compares two volumes voxel by voxel, with the kinds of
# its two operands: each must reject a second operand on another grid
SAME_GRID_SITES = {
    "cross_entropy": (cross_entropy, "probs", "probs"),
    "ce_gradient": (ce_gradient, "probs", "logits"),
    "reliability": (reliability, "labels", "probs"),
    "tace": (tace, "labels", "probs"),
    "calibrate_report": (calibrate_report, "labels", "probs"),
    "dice": (lambda a, b: dice(a, b, 0), "labels", "labels"),
    "surface_dice": (lambda a, b: surface_dice(a, b, 0, 1.0), "labels", "labels"),
    "score_segmentation": (score_segmentation, "labels", "labels"),
    "RaterSet": (lambda a, b: RaterSet((a, b)), "labels", "labels"),
}
GRID_MISMATCHES = {
    "dims": ({"dims": (3, 5)}, "shape mismatch: dims"),
    "classes": ({"num_classes": 4}, "class count mismatch"),
    "spacing": ({"spacing": (2.0, 1.0)}, "spacing mismatch"),
}


def grid_volume(kind, dims=(3, 4), num_classes=3, spacing=(1.0, 1.0)):
    labels = LabelVolume(np.zeros(dims, dtype=np.uint8), spacing, num_classes)
    if kind == "labels":
        return labels
    if kind == "probs":
        return one_hot_encode(labels)
    return LogitVolume(np.zeros((num_classes,) + dims, dtype=np.float32), spacing)


@pytest.mark.parametrize("mismatch", GRID_MISMATCHES)
@pytest.mark.parametrize("site", SAME_GRID_SITES)
def test_every_call_site_rejects_another_grid(site, mismatch):
    call, first, second = SAME_GRID_SITES[site]
    other, message = GRID_MISMATCHES[mismatch]
    call(grid_volume(first), grid_volume(second))  # the same grid is accepted
    if site == "RaterSet":
        message = "rater 1 vs rater 0: " + message
    with pytest.raises(ValueError, match=message):
        call(grid_volume(first), grid_volume(second, **other))
