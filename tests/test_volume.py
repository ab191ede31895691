import numpy as np
import pytest

from svls import LabelVolume, LogitVolume, SoftLabelVolume, argmax_labels, one_hot_encode

from conftest import random_labels


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


def test_argmax_one_hot_roundtrip(rng):
    vol = random_labels(rng, (5, 4, 3), 4)
    back = argmax_labels(one_hot_encode(vol))
    assert np.array_equal(back.data, vol.data)
    assert back.num_classes == vol.num_classes
    assert back.spacing == vol.spacing


def test_label_volume_rejects_out_of_range():
    with pytest.raises(ValueError):
        LabelVolume(np.array([[0, 3]], dtype=np.uint8), (1.0, 1.0), 3)


def test_label_volume_rejects_single_class():
    with pytest.raises(ValueError):
        LabelVolume(np.zeros((2, 2), dtype=np.uint8), (1.0, 1.0), 1)


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


def test_soft_volume_rejects_bad_sum():
    data = np.full((2, 2, 2), 0.6, dtype=np.float32)
    with pytest.raises(ValueError, match=r"voxel \(0, 0\)"):
        SoftLabelVolume(data, (1.0, 1.0))


def test_soft_volume_rejects_out_of_range():
    data = np.array([[[1.2]], [[-0.2]]], dtype=np.float32)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SoftLabelVolume(data, (1.0, 1.0))


def test_soft_volume_rejects_nan():
    # NaN fails every comparison and poisons the voxel sum, so only a range
    # check written as "not (min >= 0 and max <= 1)" catches it
    data = np.array([[[np.nan, 0.0]], [[1.0, 1.0]]], dtype=np.float32)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SoftLabelVolume(data, (1.0, 1.0))


def test_volumes_are_immutable(rng):
    vol = random_labels(rng, (3, 3), 2)
    with pytest.raises(ValueError):
        vol.data[0, 0] = 1
    soft = one_hot_encode(vol)
    with pytest.raises(ValueError):
        soft.data[0, 0, 0] = 0.5
