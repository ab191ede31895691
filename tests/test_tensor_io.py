import json
import math
import os
import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import svls
from svls import LabelVolume, LogitVolume, SoftLabelVolume, one_hot_encode, tensor_io
from svls.calibration import CalibrationReport, ReliabilityBin
from svls.cli import _LabelFile
from svls.loss import LossReport
from svls.seg_metrics import SegmentationScores
from svls.smoothing import SoftPlanes
from svls.tensor_io import (
    VolumeFormatError,
    open_volume,
    read_logits,
    read_volume,
    write_report,
    write_volume,
)
from svls.volume import top_class

from conftest import (edit_staged_writes, forbid_payload_read, random_labels, rename_over, rewrite_in_place,
                      set_sidecar_token, sum_block)


def test_label_roundtrip_bit_exact(tmp_path, rng):
    vol = random_labels(rng, (5, 6, 7), 4, spacing=(1.0, 0.5, 2.0))
    path = tmp_path / "labels.svlv"
    write_volume(vol, path)
    first = path.read_bytes()
    back = read_volume(path)
    assert isinstance(back, LabelVolume)
    assert np.array_equal(back.data, vol.data)
    assert back.spacing == vol.spacing
    assert back.num_classes == 4
    write_volume(back, path)
    assert path.read_bytes() == first


def test_probability_roundtrip_bit_exact(tmp_path, rng):
    soft = one_hot_encode(random_labels(rng, (4, 5), 3))
    path = tmp_path / "probs.svlv"
    write_volume(soft, path)
    first = path.read_bytes()
    back = read_volume(path)
    assert isinstance(back, SoftLabelVolume)
    assert np.array_equal(back.data, soft.data)
    write_volume(back, path)
    assert path.read_bytes() == first


def test_header_layout_is_fixed_little_endian(tmp_path):
    vol = LabelVolume(np.zeros((2, 3), dtype=np.uint8), (1.0, 1.0), 2)
    path = tmp_path / "v.svlv"
    write_volume(vol, path)
    blob = path.read_bytes()
    assert blob[:4] == b"SVLV"
    assert struct.unpack_from("<3I", blob, 4) == (1, 0, 2)
    assert struct.unpack_from("<2I", blob, 16) == (2, 3)
    assert len(blob) == 16 + 8 + 6


def test_probability_header_layout_is_fixed_little_endian(tmp_path):
    vol = one_hot_encode(LabelVolume(np.zeros((2, 3), dtype=np.uint8), (1.0, 1.0), 2))
    path = tmp_path / "v.svlv"
    write_volume(vol, path)
    blob = path.read_bytes()
    assert struct.unpack_from("<3I", blob, 4) == (1, 1, 2)  # version, the f32 dtype code, rank
    assert struct.unpack_from("<3I", blob, 16) == (2, 2, 3)
    assert len(blob) == 16 + 12 + 4 * 12


def test_writers_reject_what_they_cannot_serialize(tmp_path):
    with pytest.raises(TypeError, match="cannot serialize ndarray"):
        write_volume(np.zeros((2, 2), np.uint8), tmp_path / "v.svlv")
    with pytest.raises(TypeError, match="cannot serialize dict"):
        write_report({"total": 0.0}, tmp_path / "r.json")
    assert list(tmp_path.iterdir()) == []


def test_written_files_are_world_readable(tmp_path, rng):
    # the temporary file is made 0600; the written one gets a regular file's mode
    write_volume(random_labels(rng, (2, 2), 2), tmp_path / "v.svlv")
    for name in ("v.svlv", "v.svlv.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644


def test_staged_files_are_private_until_written(tmp_path, rng, monkeypatch):
    # the payload and the sidecar are each staged 0600 and made 0644 only once written
    modes, fdopen = [], tensor_io.os.fdopen

    def recording(fd, mode):
        modes.append(os.fstat(fd).st_mode & 0o777)
        return fdopen(fd, mode)

    monkeypatch.setattr(tensor_io.os, "fdopen", recording)
    write_volume(random_labels(rng, (2, 2), 2), tmp_path / "v.svlv")
    assert modes == [0o600, 0o600]


def test_failed_write_raises_and_leaves_no_file(tmp_path):
    def payload(write):
        write(b"SVLV")
        write(object())

    with pytest.raises(TypeError):
        tensor_io._write_files(tmp_path / "out" / "v.svlv", payload)
    assert not (tmp_path / "out").exists()  # nor the directory made for it


def test_a_failed_write_removes_only_the_directories_it_made(tmp_path):
    # `out` was there before the write; `new` and `new/deeper` were made for it
    (tmp_path / "out").mkdir()
    nothing = SoftPlanes(lambda write: None, (3, 4), 2, (1.0, 1.0))
    with pytest.raises(VolumeFormatError):
        write_volume(nothing, tmp_path / "out" / "new" / "deeper" / "v.svlv")
    assert list(tmp_path.iterdir()) == [tmp_path / "out"]
    assert list((tmp_path / "out").iterdir()) == []


def test_failed_sidecar_staging_leaves_no_file_of_the_volume(tmp_path, rng, monkeypatch):
    # the payload is staged, then the write of the sidecar's one chunk fails
    def sidecar_fails(chunk):
        if isinstance(chunk, bytes) and chunk.startswith(b"{"):
            raise OSError(28, "No space left on device")
        return chunk

    edit_staged_writes(monkeypatch, sidecar_fails)
    with pytest.raises(OSError, match="No space left"):
        write_volume(one_hot_encode(random_labels(rng, (3, 4), 2)), tmp_path / "v.svlv")
    assert list(tmp_path.iterdir()) == []


def test_a_staged_sidecar_the_reader_refuses_leaves_no_file(tmp_path, rng, monkeypatch):
    # the sidecar's one chunk lands with a spacing of the wrong JSON kind
    def spacing_spoilt(chunk):
        if isinstance(chunk, bytes) and chunk.startswith(b"{"):
            return json.dumps({**json.loads(chunk), "spacing": "1"}).encode("utf-8")
        return chunk

    edit_staged_writes(monkeypatch, spacing_spoilt)
    with pytest.raises(VolumeFormatError) as err:
        write_volume(random_labels(rng, (3, 4), 2), tmp_path / "v.svlv")
    assert str(err.value) == 'spacing: spacing must be a list of numbers, got "1"'
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("planes, found", [(3, 144), (1, 48)])
def test_soft_planes_of_another_class_count_leave_no_file(tmp_path, planes, found):
    # the header declares two class planes of 3x4 float32 values, 96 bytes
    plane = np.full((3, 4), 0.5, np.float32)
    with pytest.raises(VolumeFormatError) as err:
        write_volume(SoftPlanes(lambda write: [write(plane) for _ in range(planes)], (3, 4), 2, (1.0, 1.0)),
                     tmp_path / "v.svlv")
    assert err.value.field == "payload"
    assert str(err.value) == f"payload: expected 96 payload bytes, found {found}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, value, message", [
    ("labels", 255, "labels must lie in [0, 3), found range [0, 255]"),
    ("probs", math.nan, "probabilities must lie in [0, 1]"),
    ("logits", math.inf, "logits must be finite"),
])
def test_a_staged_payload_is_checked_as_its_container_before_it_lands(tmp_path, rng, monkeypatch, kind, value,
                                                                      message):
    labels = random_labels(rng, (5, 2, 3), 3)
    vol = {"labels": labels, "probs": one_hot_encode(labels),
           "logits": LogitVolume(rng.normal(size=(3, 5, 2, 3)).astype(np.float32), labels.spacing)}[kind]
    flipped = []

    def first_value_flipped(chunk):  # the first array chunk lands with its first value set to `value`
        if isinstance(chunk, np.ndarray) and not flipped:
            chunk = chunk.copy()
            chunk.flat[0] = value
            flipped.append(True)
        return chunk

    edit_staged_writes(monkeypatch, first_value_flipped)
    path = tmp_path / "out" / "v.svlv"
    with sum_block(12), pytest.raises(VolumeFormatError) as err:  # slabs of two rows
        write_volume(vol, path)
    assert err.value.field == "payload"
    assert str(err.value).startswith(f"payload: rows 0:2 of {path}: {message}")
    assert not (tmp_path / "out").exists()  # nor the directory made for it


def test_soft_planes_are_written_as_the_whole_volume_is(tmp_path, rng):
    labels = random_labels(rng, (5, 6, 7), 4, spacing=(1.0, 0.5, 2.0))
    write_volume(labels, tmp_path / "labels.svlv")
    write_volume(svls.svls_smooth(labels, 1.0), tmp_path / "whole.svlv", provenance={"method": "svls"})
    with open_volume(tmp_path / "labels.svlv") as source:
        planes = svls.svls_smooth(_LabelFile(source), 1.0)  # labels read from the open file when asked
        assert isinstance(planes, SoftPlanes)
        with sum_block(42):  # a staged check of five slabs
            write_volume(planes, tmp_path / "planes.svlv", provenance={"method": "svls"})
    for suffix in ("", ".json"):
        assert (tmp_path / f"planes.svlv{suffix}").read_bytes() == (tmp_path / f"whole.svlv{suffix}").read_bytes()


def test_bad_magic_rejected(tmp_path, rng):
    path = tmp_path / "v.svlv"
    write_volume(random_labels(rng, (2, 2), 2), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError) as err:
        read_volume(path)
    assert err.value.field == "magic"
    assert str(err.value) == "magic: expected b'SVLV', got b'XXXX'"


def test_version_mismatch_rejected(tmp_path, rng):
    path = tmp_path / "v.svlv"
    write_volume(random_labels(rng, (2, 2), 2), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError) as err:
        read_volume(path)
    assert err.value.field == "version"


def test_truncated_payload_rejected(tmp_path, rng):
    path = tmp_path / "v.svlv"
    write_volume(random_labels(rng, (3, 3), 2), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-2])
    with pytest.raises(VolumeFormatError) as err:
        read_volume(path)
    assert err.value.field == "payload"
    path.write_bytes(blob + b"\x00")  # trailing garbage is also rejected
    with pytest.raises(VolumeFormatError) as err:
        read_volume(path)
    assert err.value.field == "payload"


# a 2D label file's header is 16 fixed bytes and two u32 extents; its
# size cut to each length, with the fault's field and message
SHORT_HEADERS = {
    0: ("header", "file is 0 bytes, header needs 16"),
    15: ("header", "file is 15 bytes, header needs 16"),
    16: ("dims", "header ends before the extent list"),
    23: ("dims", "header ends before the extent list"),
}


@pytest.mark.parametrize("size", SHORT_HEADERS)
def test_file_cut_inside_its_header_rejected(tmp_path, rng, size):
    field, message = SHORT_HEADERS[size]
    path = tmp_path / "v.svlv"
    write_volume(random_labels(rng, (3, 3), 2), path)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(VolumeFormatError, match=message) as err:
        read_volume(path)
    assert err.value.field == field


def test_corrupt_probability_sums_name_first_voxel(tmp_path):
    labels = LabelVolume(np.array([[0, 1], [1, 0]], dtype=np.uint8), (1.0, 1.0), 2)
    path = tmp_path / "p.svlv"
    write_volume(one_hot_encode(labels), path)
    blob = bytearray(path.read_bytes())
    # bump the class-1 probability of voxel (0, 0) from 0.0 to 0.1, leaving
    # all values in range but the voxel sum at 1.1; payload starts after the
    # 16-byte header + 3 u32 extents, plane stride is 4 floats
    offset = 16 + 12 + 4 * 4
    assert struct.unpack_from("<f", blob, offset)[0] == 0.0
    struct.pack_into("<f", blob, offset, 0.1)
    path.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError, match=r"voxel \(0, 0\)") as err:
        read_volume(path)
    assert err.value.field == "payload"


def test_labels_out_of_sidecar_range_rejected(tmp_path):
    path = tmp_path / "v.svlv"
    vol = LabelVolume(np.array([[0, 3], [1, 2]], dtype=np.uint8), (1.0, 1.0), 4)
    write_volume(vol, path)
    meta = json.loads((tmp_path / "v.svlv.json").read_text())
    meta["num_classes"] = 2
    (tmp_path / "v.svlv.json").write_text(json.dumps(meta))
    with pytest.raises(VolumeFormatError, match=r"labels must lie in \[0, 2\)") as err:
        read_volume(path)
    assert err.value.field == "payload"


def test_missing_sidecar_rejected(tmp_path, rng):
    path = tmp_path / "v.svlv"
    write_volume(random_labels(rng, (2, 2), 2), path)
    (tmp_path / "v.svlv.json").unlink()
    with pytest.raises(VolumeFormatError, match="missing sidecar") as err:
        read_volume(path)
    assert err.value.field == "sidecar"


@pytest.mark.parametrize("token", ["[NaN, 1.0]", "[1e400, 1.0]"])
@pytest.mark.parametrize("labels", [True, False], ids=["labels", "probs"])
def test_sidecar_spacing_must_be_finite(tmp_path, rng, token, labels):
    vol = random_labels(rng, (2, 2), 2)
    path = tmp_path / "v.svlv"
    write_volume(vol if labels else one_hot_encode(vol), path)
    set_sidecar_token(path, "spacing", token)
    with pytest.raises(VolumeFormatError, match="spacing") as err:
        read_volume(path)
    assert err.value.field == "spacing"


@pytest.mark.parametrize("token", [
    '{"0": "background", "1": "class_1", "2": "class_2"}',  # what older versions wrote
    '{"1": "class_1"}',  # a partial map
    '["a", "b", "c"]',  # not an object
], ids=["object", "partial", "list"])
@pytest.mark.parametrize("labels", [True, False], ids=["labels", "probs"])
def test_sidecar_class_names_of_older_files_are_ignored(tmp_path, rng, token, labels):
    vol = random_labels(rng, (3, 4), 3)
    vol = vol if labels else one_hot_encode(vol)
    path = tmp_path / "v.svlv"
    write_volume(vol, path)
    set_sidecar_token(path, "class_names", token)
    back = read_volume(path)
    assert type(back) is type(vol)
    assert back.data.tobytes() == vol.data.tobytes()
    assert (back.spacing, back.num_classes) == (vol.spacing, vol.num_classes)


def _missing(side):
    side.unlink()


def _unparseable(side):
    side.write_text("{")


def _set(key, value):
    def edit(side):
        meta = json.loads(side.read_text())
        meta[key] = value
        side.write_text(json.dumps(meta))
    return edit


def _set_text(text):
    return lambda side: side.write_text(text)


# (volume kind, sidecar fault, field of the error); the labels are rank 2 with 3 classes
SIDECAR_FAULTS = {
    "missing": ("probs", _missing, "sidecar"),
    "unparseable": ("probs", _unparseable, "sidecar"),
    "not-an-object": ("labels", _set_text("[1.0, 1.0]"), "sidecar"),
    "bad-field": ("probs", _set("spacing", "x"), "spacing"),
    "spacing": ("probs", _set("spacing", [0.0, 1.0]), "spacing"),
    "num-classes": ("probs", _set("num_classes", 5), "num_classes"),
    "spacing-digits": ("labels", _set("spacing", "11"), "spacing"),
    "spacing-strings": ("labels", _set("spacing", ["1", "1"]), "spacing"),
    "spacing-bool": ("labels", _set("spacing", [True, 1]), "spacing"),
    "spacing-object": ("labels", _set("spacing", {"1": 0, "2": 0}), "spacing"),
    "spacing-length": ("labels", _set("spacing", [1, 1, 1]), "spacing"),
    "spacing-huge-int": ("labels", _set("spacing", [10**400, 1]), "spacing"),
    "spacing-missing": ("labels", _set("spacing", None), "spacing"),
    "num-classes-string": ("labels", _set("num_classes", "3"), "num_classes"),
    "num-classes-float": ("labels", _set("num_classes", 2.5), "num_classes"),
    "num-classes-inf": ("labels", _set("num_classes", math.inf), "num_classes"),
    "num-classes-bool": ("labels", _set("num_classes", True), "num_classes"),
    "num-classes-one": ("labels", _set("num_classes", 1), "num_classes"),
    "num-classes-257": ("labels", _set("num_classes", 257), "num_classes"),
    "provenance": ("labels", _set("provenance", ["svls"]), "sidecar"),
}


def _sidecar_fault_volume(tmp_path, rng, kind, fault):
    labels = random_labels(rng, (3, 4), 3)
    path = tmp_path / "v.svlv"
    write_volume(labels if kind == "labels" else one_hot_encode(labels), path)
    fault(tmp_path / "v.svlv.json")
    return path


@pytest.mark.parametrize("case", SIDECAR_FAULTS)
def test_sidecar_is_checked_before_the_payload_is_read(tmp_path, rng, monkeypatch, case):
    kind, fault, field = SIDECAR_FAULTS[case]
    path = _sidecar_fault_volume(tmp_path, rng, kind, fault)
    forbid_payload_read(monkeypatch)
    with pytest.raises(VolumeFormatError) as err:
        read_volume(path)
    assert err.value.field == field


@pytest.mark.parametrize("kind", ["labels", "probs"])
def test_payload_guard_fires_once_the_sidecar_is_valid(tmp_path, rng, monkeypatch, kind):
    path = _sidecar_fault_volume(tmp_path, rng, kind, lambda side: None)
    forbid_payload_read(monkeypatch)
    with pytest.raises(AssertionError, match="payload read"):
        read_volume(path)


@pytest.mark.parametrize("kind", ["labels", "probs"])
@pytest.mark.parametrize("value", ["3", 2.5])
def test_sidecar_class_count_of_another_kind_is_named_as_such(tmp_path, rng, kind, value):
    # the kind check comes before the count is compared with the payload
    path = _sidecar_fault_volume(tmp_path, rng, kind, _set("num_classes", value))
    with pytest.raises(VolumeFormatError) as err:
        read_volume(path)
    assert str(err.value) == f"num_classes: num_classes must be an integer, got {json.dumps(value)}"


def test_probability_class_count_must_match_the_payloads(tmp_path, rng):
    path = tmp_path / "v.svlv"
    write_volume(one_hot_encode(random_labels(rng, (4, 5), 3)), path)
    _set("num_classes", 5)(tmp_path / "v.svlv.json")
    with pytest.raises(VolumeFormatError) as err:
        read_volume(path)
    assert str(err.value) == "num_classes: sidecar says 5 classes, payload has 3"


def header_of(path):
    """What opening `path` checks of its header and sidecar, with no payload read."""
    with open_volume(path) as volume:
        return volume.dims, volume.num_classes, volume.spacing, volume.kind, volume.provenance


@pytest.mark.parametrize("reader", [header_of, read_volume, read_logits])
def test_f32_class_axis_of_one_is_rejected_before_the_payload(tmp_path, monkeypatch, reader):
    # header and sidecar agree on one class; the payload holds the plane of class 0
    path = tmp_path / "v.svlv"
    write_volume(LogitVolume(np.zeros((2, 3, 4), np.float32), (1.0, 1.0)), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 16, 1)
    path.write_bytes(bytes(blob[:28 + 4 * 12]))
    _set("num_classes", 1)(tmp_path / "v.svlv.json")
    forbid_payload_read(monkeypatch)
    with pytest.raises(VolumeFormatError) as err:
        reader(path)
    assert str(err.value) == "num_classes: need at least 2 classes, got 1"


def test_valid_sidecar_numbers_read_as_floats(tmp_path, rng):
    path = _sidecar_fault_volume(tmp_path, rng, "labels", _set("spacing", [2, 0.5]))
    vol = read_volume(path)
    assert vol.spacing == (2.0, 0.5) and all(type(s) is float for s in vol.spacing)
    assert vol.num_classes == 3


def _four_more_bytes(monkeypatch):
    """Make every stat, of an open file and of a path, see 4 bytes more than the file holds."""
    for name in ("fstat", "stat"):
        def grown(*args, real=getattr(tensor_io.os, name), **kw):
            st = real(*args, **kw)
            return SimpleNamespace(st_dev=st.st_dev, st_ino=st.st_ino, st_size=st.st_size + 4,
                                   st_mtime_ns=st.st_mtime_ns)

        monkeypatch.setattr(tensor_io.os, name, grown)


@pytest.mark.parametrize("kind", ["labels", "probs", "logits"])
def test_readers_hand_over_an_array_owning_its_memory(tmp_path, rng, kind):
    labels = random_labels(rng, (3, 4), 3)
    vol = {"labels": labels, "probs": one_hot_encode(labels),
           "logits": LogitVolume(np.zeros((3, 3, 4), np.float32), labels.spacing)}[kind]
    path = tmp_path / "v.svlv"
    write_volume(vol, path)
    back = read_logits(path) if kind == "logits" else read_volume(path)
    assert back.data.flags.owndata and not back.data.flags.writeable
    assert back.data.tobytes() == vol.data.tobytes()


def _three_class_rows(tmp_path, rows=5):
    """A 3-class probability file of `rows` x 2 x 3 voxels whose values tell
    class, row and voxel apart; its path and volume."""
    raw = np.arange(1, 3 * rows * 6 + 1, dtype=np.float64).reshape(3, rows, 2, 3)
    vol = SoftLabelVolume((raw / raw.sum(axis=0)).astype(np.float32), (1.0, 2.0, 0.5))
    path = tmp_path / "v.svlv"
    write_volume(vol, path)
    return path, vol


@pytest.mark.parametrize("rows", [slice(0, 5), slice(0, 1), slice(2, 4), slice(4, 5), slice(3, None), slice(-2, 9)])
def test_row_read_holds_those_rows_of_every_class_plane(tmp_path, rows):
    path, vol = _three_class_rows(tmp_path)
    part = read_volume(path, rows)
    assert type(part) is SoftLabelVolume and part.spacing == vol.spacing
    assert part.data.tobytes() == np.ascontiguousarray(vol.data[:, rows]).tobytes()
    # one fresh array, adopted without a copy
    assert part.data.flags.owndata and not part.data.flags.writeable


@pytest.mark.parametrize("kind", ["labels", "logits"])
def test_row_read_of_labels_and_logits(tmp_path, rng, kind):
    labels = random_labels(rng, (4, 3, 2), 3)
    vol = labels if kind == "labels" else LogitVolume(rng.normal(size=(3, 4, 3, 2)).astype(np.float32), labels.spacing)
    path = tmp_path / "v.svlv"
    write_volume(vol, path)
    part = read_volume(path, slice(1, 3)) if kind == "labels" else read_logits(path, slice(1, 3))
    assert type(part) is type(vol)
    expected = vol.data[1:3] if kind == "labels" else vol.data[:, 1:3]
    assert part.data.tobytes() == np.ascontiguousarray(expected).tobytes()
    if kind == "labels":
        assert part.num_classes == 3


@pytest.mark.parametrize("rows", [slice(2, 2), slice(0, 4, 2), slice(5, 9), slice(4, 1)])
def test_row_read_rejects_an_empty_or_strided_run(tmp_path, rows):
    path, _ = _three_class_rows(tmp_path)
    with pytest.raises(ValueError, match=r"rows must be a non-empty run of the 5 rows"):
        read_volume(path, rows)


def test_row_read_names_its_rows_and_file_in_a_payload_fault(tmp_path):
    path, vol = _three_class_rows(tmp_path)
    blob = bytearray(path.read_bytes())
    # class 2 of voxel (3, 1, 0): the sum of row 3 is off by 0.1
    offset = 16 + 16 + 4 * (2 * 30 + 3 * 6 + 1 * 3 + 0)
    struct.pack_into("<f", blob, offset, struct.unpack_from("<f", blob, offset)[0] + 0.1)
    path.write_bytes(bytes(blob))
    assert read_volume(path, slice(0, 3)).data.tobytes() == vol.data[:, :3].tobytes()
    assert read_volume(path, slice(4, 5)).data.tobytes() == vol.data[:, 4:].tobytes()
    with pytest.raises(VolumeFormatError) as err:
        read_volume(path, slice(2, 4))
    assert err.value.field == "payload"
    # the voxel index is the slab's own
    assert str(err.value).startswith(f"payload: rows 2:4 of {path}: voxel (1, 1, 0) probabilities sum to 1.1")
    with pytest.raises(VolumeFormatError) as err:
        read_volume(path)
    assert str(err.value).startswith("payload: voxel (3, 1, 0) probabilities sum to 1.1")


SHORT_READS = {
    "whole": read_volume,
    "rows": lambda volume: read_volume(volume, slice(3, 5)),
    "plane": lambda volume: volume.data[2],
    "slab-check": lambda volume: volume.check_slabs(SoftLabelVolume),
}


@pytest.mark.parametrize("read", SHORT_READS)
def test_a_short_read_is_an_os_error(tmp_path, monkeypatch, read):
    path, vol = _three_class_rows(tmp_path)
    path.write_bytes(path.read_bytes()[:-4])
    # the size check sees the payload bytes it wants; the last plane's read finds 4 fewer
    _four_more_bytes(monkeypatch)
    with open_volume(path) as volume:
        with sum_block(12), pytest.raises(OSError) as err:  # slabs of two rows
            SHORT_READS[read](volume)
        assert str(err.value) == f"{path} changed while it was being read"
        # reads that end before the missing bytes still succeed
        assert read_volume(volume, slice(0, 3)).dims == (3, 2, 3)
        assert volume.data[1].tobytes() == vol.data[1].tobytes()


def test_prediction_reads_each_class_plane_on_demand(tmp_path):
    path, vol = _three_class_rows(tmp_path)
    with open_volume(path) as pred:
        assert (pred.dims, pred.num_classes, pred.spacing) == (vol.dims, 3, vol.spacing)
        assert len(pred.data) == 3
        for c in (0, 1, 2, -1):
            plane = pred.data[c]
            assert plane.dtype == np.float32 and plane.tobytes() == vol.data[c].tobytes()
            assert plane.flags.owndata and not plane.flags.writeable
        assert pred.data[1] is not pred.data[1]  # read afresh each time
        with pytest.raises(IndexError):
            pred.data[3]
        labels, top = top_class(pred.data)
        want_labels, want_top = top_class(vol.data)
        assert labels.tobytes() == want_labels.tobytes() and top.tobytes() == want_top.tobytes()


@pytest.mark.parametrize("row", [0, 3, 4])
def test_prediction_is_checked_slab_by_slab_and_names_the_rows_of_a_fault(tmp_path, row):
    path, _ = _three_class_rows(tmp_path)
    blob = bytearray(path.read_bytes())
    offset = 16 + 16 + 4 * (1 * 30 + row * 6 + 2)  # class 1 of voxel (row, 0, 2)
    struct.pack_into("<f", blob, offset, float("nan"))
    path.write_bytes(bytes(blob))
    with sum_block(12), pytest.raises(VolumeFormatError) as err:  # slabs of two rows
        with open_volume(path) as pred:
            pred.check_slabs(SoftLabelVolume)
    start = row - row % 2
    assert err.value.field == "payload"
    assert str(err.value).startswith(f"payload: rows {start}:{min(start + 2, 5)} of {path}: probabilities must lie")


def test_prediction_reader_rejects_a_label_file_before_its_payload(tmp_path, rng, monkeypatch):
    # a 3-class label file has no class planes: each item is a dtype fault, not a read of float32
    path = tmp_path / "v.svlv"
    write_volume(random_labels(rng, (4, 4, 4), 3), path)
    forbid_payload_read(monkeypatch)
    with open_volume(path) as labels:
        assert labels.kind is LabelVolume and len(labels.data) == 3
        for c in range(3):
            with pytest.raises(VolumeFormatError) as err:
                labels.data[c]
            assert err.value.field == "dtype"
            assert str(err.value) == f"dtype: {path} holds labels, which have no class planes"


def _other_prediction(tmp_path, vol):
    """A valid file of `vol`'s grid and size that holds other values; its path."""
    other = tmp_path / "other.svlv"
    write_volume(SoftLabelVolume(vol.data[::-1].copy(), vol.spacing), other)
    return other


@pytest.mark.parametrize("change", [rename_over, rewrite_in_place], ids=["renamed-over", "rewritten-in-place"])
def test_a_plane_read_of_a_changed_file_is_an_os_error(tmp_path, change):
    path, vol = _three_class_rows(tmp_path)
    other = _other_prediction(tmp_path, vol)
    with open_volume(path) as pred:
        assert pred.data[0].tobytes() == vol.data[0].tobytes()
        change(path, other)
        with pytest.raises(OSError, match=f"{path} changed while it was being read"):
            pred.data[1]


def test_a_file_changed_during_the_slab_check_is_an_os_error(tmp_path, monkeypatch):
    path, vol = _three_class_rows(tmp_path)
    other = _other_prediction(tmp_path, vol)
    checked = []

    read = tensor_io.VolumeFile._read

    def read_then_swap(volume, kind, rows, name=None):
        checked.append(rows)
        part = read(volume, kind, rows, name)
        if rows.stop == 5:  # the last slab: the next read would be a plane's
            rename_over(path, other)
        return part

    monkeypatch.setattr(tensor_io.VolumeFile, "_read", read_then_swap)
    with sum_block(12), pytest.raises(OSError, match="changed while it was being read"):
        with open_volume(path) as pred:
            pred.check_slabs(SoftLabelVolume)
            pytest.fail("a file changed during its check passed it")
    assert checked == [slice(0, 2), slice(2, 4), slice(4, 5)]


def test_a_short_plane_read_is_an_os_error(tmp_path, rng, monkeypatch):
    # planes of 16 KiB, past what the file's read buffer holds of them
    path = tmp_path / "v.svlv"
    write_volume(one_hot_encode(random_labels(rng, (4, 32, 32), 3)), path)
    with open_volume(path) as pred:
        recorded, stat = os.stat(path), os.stat
        os.truncate(path, recorded.st_size - 4)
        # a change no stat shows: the reader relies on the read's length alone
        monkeypatch.setattr(os, "stat", lambda p, **kw: recorded if p == path else stat(p, **kw))
        assert pred.data[1].nbytes == 4 * 32 * 32 * 4
        with pytest.raises(OSError, match="changed while it was being read"):
            pred.data[2]


@pytest.mark.parametrize("case", SIDECAR_FAULTS)
def test_header_read_checks_the_sidecar_without_the_payload(tmp_path, rng, monkeypatch, case):
    kind, fault, field = SIDECAR_FAULTS[case]
    path = _sidecar_fault_volume(tmp_path, rng, kind, fault)
    forbid_payload_read(monkeypatch)
    with pytest.raises(VolumeFormatError) as err:
        header_of(path)
    assert err.value.field == field


@pytest.mark.parametrize("kind", ["labels", "probs"])
def test_header_read_declares_the_volumes_grid(tmp_path, rng, monkeypatch, kind):
    path = _sidecar_fault_volume(tmp_path, rng, kind, _set("spacing", [2, 0.5]))
    forbid_payload_read(monkeypatch)
    dims, num_classes, spacing, read_as, provenance = header_of(path)
    assert (dims, num_classes, spacing) == ((3, 4), 3, (2.0, 0.5))
    assert all(type(s) is float for s in spacing)
    assert read_as is (LabelVolume if kind == "labels" else SoftLabelVolume)
    assert provenance == {"tool_version": svls.__version__}


def test_logit_reader_rejects_a_label_file_before_its_payload(tmp_path, rng, monkeypatch):
    path = _sidecar_fault_volume(tmp_path, rng, "labels", lambda side: None)
    forbid_payload_read(monkeypatch)
    with pytest.raises(VolumeFormatError, match="logits must use the f32 dtype code") as err:
        read_logits(path, slice(0, 1))
    assert err.value.field == "dtype"
    with pytest.raises(VolumeFormatError, match="logits must use the f32 dtype code"):
        read_logits(path)


@pytest.mark.parametrize("score", [1e300, -1e300, 3.5e38])
def test_scores_beyond_float32_range_are_rejected_before_any_file(tmp_path, score):
    data = np.zeros((2, 2, 3))
    data[1, 1, 2] = score
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        with pytest.raises(ValueError, match="beyond float32 range"):
            write_volume(LogitVolume(data, (1.0, 1.0)), tmp_path / "out" / "v.svlv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [object(), float("nan"), float("inf")], ids=["no-json-kind", "nan", "inf"])
@pytest.mark.parametrize("sub", ["", "out"])
def test_provenance_json_cannot_hold_is_rejected_before_any_file(tmp_path, rng, value, sub):
    with pytest.raises((TypeError, ValueError)):
        write_volume(random_labels(rng, (3, 4), 3), tmp_path / sub / "v.svlv", provenance={"x": value})
    assert list(tmp_path.iterdir()) == []  # no volume, sidecar, directory or temp file


def test_scores_rounding_to_the_float32_extreme_are_written(tmp_path):
    # the largest float32 and values within half an ulp above it round to it
    top = float(np.finfo(np.float32).max)
    data = np.zeros((2, 1, 3))
    data[0] = [top, -top, math.nextafter(top, math.inf)]
    write_volume(LogitVolume(data, (1.0, 1.0)), tmp_path / "v.svlv")
    assert read_logits(tmp_path / "v.svlv").data[0].tolist() == [[top, -top, top]]


GOLDEN_SIDECARS = {
    "labels": """\
{
  "spacing": [
    1.0,
    0.5
  ],
  "num_classes": 3,
  "provenance": {
    "method": "svls",
    "sigma": 1.0,
    "tool_version": "%s"
  }
}
""",
    "probs": """\
{
  "spacing": [
    2.0,
    1.0,
    0.25
  ],
  "num_classes": 2,
  "provenance": {
    "tool_version": "%s"
  }
}
""",
}


@pytest.mark.parametrize("kind", GOLDEN_SIDECARS)
def test_sidecar_bytes_are_pinned(tmp_path, kind):
    if kind == "labels":
        vol = LabelVolume(np.zeros((2, 3), dtype=np.uint8), (1.0, 0.5), 3)
        provenance = {"method": "svls", "sigma": 1.0}
    else:
        vol = one_hot_encode(LabelVolume(np.zeros((2, 2, 2), dtype=np.uint8), (2.0, 1.0, 0.25), 2))
        provenance = None
    path = tmp_path / "v.svlv"
    write_volume(vol, path, provenance=provenance)
    expected = GOLDEN_SIDECARS[kind] % svls.__version__
    assert (tmp_path / "v.svlv.json").read_bytes() == expected.encode()


def test_extent_product_overflowing_int64_is_truncated_payload(tmp_path):
    # 2**22 * 2**21 * 2**21 == 2**64, which wraps to 0 in int64 arithmetic
    path = tmp_path / "v.svlv"
    path.write_bytes(b"SVLV" + struct.pack("<3I", 1, 0, 3) + struct.pack("<3I", 2**22, 2**21, 2**21))
    (tmp_path / "v.svlv.json").write_text(json.dumps({"spacing": [1.0, 1.0, 1.0], "num_classes": 2}))
    with pytest.raises(VolumeFormatError, match="payload bytes") as err:
        read_volume(path)
    assert err.value.field == "payload"


def test_logits_roundtrip(tmp_path):
    scores = LogitVolume(np.arange(-4.0, 4.0).reshape(2, 2, 2), (1.0, 1.0))
    path = tmp_path / "logits.svlv"
    write_volume(scores, path, provenance={"method": "logits"})
    back = read_logits(path)
    assert isinstance(back, LogitVolume)
    assert np.array_equal(back.data, scores.data.astype(np.float32).astype(np.float64))
    # the probability reader refuses score payloads
    with pytest.raises(VolumeFormatError) as err:
        read_volume(path)
    assert err.value.field == "payload"


def test_provenance_recorded(tmp_path, rng):
    path = tmp_path / "v.svlv"
    write_volume(random_labels(rng, (2, 2), 2), path, provenance={"method": "svls", "sigma": 1.0})
    meta = json.loads((tmp_path / "v.svlv.json").read_text())
    assert meta["provenance"]["method"] == "svls"
    assert meta["provenance"]["tool_version"] == svls.__version__


def _sample_calibration():
    bins = (
        ReliabilityBin(0.0, 1 / 3, 0, math.nan, math.nan),
        ReliabilityBin(1 / 3, 2 / 3, 2, 0.5, 0.5),
        ReliabilityBin(2 / 3, 1.0, 4, 0.9, 0.75),
    )
    return CalibrationReport(
        ece=0.1, tace=0.01, bins=bins, tace_threshold=1e-3, tace_ranges=15
    )


def test_calibration_csv_layout(tmp_path):
    path = tmp_path / "reliability.csv"
    write_report(_sample_calibration(), path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "lower,upper,count,mean_confidence,accuracy"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[2] == "0"
    assert first[3] == "" and first[4] == ""  # empty cells for the empty bin


def test_calibration_json_fields(tmp_path):
    path = tmp_path / "calibration.json"
    write_report(_sample_calibration(), path)
    doc = json.loads(path.read_text())
    assert doc["ece"] == 0.1
    assert doc["num_bins"] == 3
    assert doc["bins"][0]["accuracy"] is None
    assert doc["bins"][2]["count"] == 4


def test_scores_csv_rows(tmp_path):
    scores = SegmentationScores(
        per_class_dsc={0: 1.0, 1: 0.5, 2: 0.123456789},
        per_class_sd={0: 1.0, 1: 0.75, 2: 0.9},
        tolerance_mm=2.0,
    )
    path = tmp_path / "seg.csv"
    write_report(scores, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "class,dsc,sd"
    assert len(lines) == 4
    assert lines[3].startswith("2,0.123457,")  # 6 significant decimals


def test_loss_report_json(tmp_path):
    report = LossReport(4 * 0.6931471805599453, 4)
    path = tmp_path / "loss.json"
    write_report(report, path)
    doc = json.loads(path.read_text())
    assert doc["total"] == pytest.approx(0.693147, abs=1e-9)
    assert doc["voxels"] == 4


@pytest.mark.parametrize("name, csv", [("r.csv", True), ("r", False), ("r.csv.txt", False)])
def test_report_format_follows_the_path(tmp_path, name, csv):
    write_report(LossReport(6 * 0.6931471805599453, 6), tmp_path / name)
    text = (tmp_path / name).read_text()
    assert text == (GOLDEN_REPORTS["loss", "csv"] if csv else GOLDEN_REPORTS["loss", "json"])


def _sample_scores():
    """Integer class keys, a merged-region key and a composite row, one NaN cell."""
    return SegmentationScores(
        per_class_dsc={0: 1.0, 1: 0.123456789, "tumor": 2 / 3, "comp": 0.5},
        per_class_sd={0: 1.0, 1: math.nan, "tumor": 0.25, "comp": 1 / 7},
        tolerance_mm=2.0,
    )


GOLDEN_REPORTS = {
    ("calibration", "json"): """\
{
  "ece": 0.1,
  "tace": 0.01,
  "num_bins": 3,
  "tace_threshold": 0.001,
  "tace_ranges": 15,
  "bins": [
    {
      "lower": 0.0,
      "upper": 0.333333,
      "count": 0,
      "mean_confidence": null,
      "accuracy": null
    },
    {
      "lower": 0.333333,
      "upper": 0.666667,
      "count": 2,
      "mean_confidence": 0.5,
      "accuracy": 0.5
    },
    {
      "lower": 0.666667,
      "upper": 1.0,
      "count": 4,
      "mean_confidence": 0.9,
      "accuracy": 0.75
    }
  ]
}
""",
    ("calibration", "csv"): """\
lower,upper,count,mean_confidence,accuracy
0,0.333333,0,,
0.333333,0.666667,2,0.5,0.5
0.666667,1,4,0.9,0.75
""",
    ("scores", "json"): """\
{
  "tolerance_mm": 2.0,
  "classes": [
    {
      "class": "0",
      "dsc": 1.0,
      "sd": 1.0
    },
    {
      "class": "1",
      "dsc": 0.123457,
      "sd": null
    },
    {
      "class": "tumor",
      "dsc": 0.666667,
      "sd": 0.25
    },
    {
      "class": "comp",
      "dsc": 0.5,
      "sd": 0.142857
    }
  ]
}
""",
    ("scores", "csv"): """\
class,dsc,sd
0,1,1
1,0.123457,
tumor,0.666667,0.25
comp,0.5,0.142857
""",
    ("loss", "json"): """\
{
  "total": 0.693147,
  "voxels": 6
}
""",
    ("loss", "csv"): """\
total,voxels
0.693147,6
""",
}


@pytest.mark.parametrize("kind, fmt", GOLDEN_REPORTS, ids=[f"{k}-{f}" for k, f in GOLDEN_REPORTS])
def test_report_bytes_are_pinned(tmp_path, kind, fmt):
    report = {
        "calibration": _sample_calibration(),
        "scores": _sample_scores(),
        "loss": LossReport(6 * 0.6931471805599453, 6),
    }[kind]
    path = tmp_path / f"report.{fmt}"
    write_report(report, path)
    assert path.read_bytes() == GOLDEN_REPORTS[kind, fmt].encode()



# Property tests of the container: every volume kind comes back bit-exact, and
# a damaged header or payload length is a VolumeFormatError, never another
# exception.

KINDS = ("labels", "probs", "logits")
HEADER_FIELDS = {"version": 4, "dtype": 8, "rank": 12}


@st.composite
def volumes(draw, kind):
    """A label, probability or logit volume with 2 or 3 small spatial axes."""
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=3)))
    n = draw(st.integers(2, 5))
    spacing = tuple(draw(st.lists(st.sampled_from([0.5, 1.0, 2.5]), min_size=len(dims), max_size=len(dims))))
    if kind == "labels":
        return LabelVolume(draw(arrays(np.uint8, dims, elements=st.integers(0, n - 1))), spacing, n)
    if kind == "probs":
        counts = draw(arrays(np.int64, (n,) + dims, elements=st.integers(0, 8)))
        counts[0] += 1  # no voxel without votes
        return SoftLabelVolume((counts / counts.sum(axis=0)).astype(np.float32), spacing)
    return LogitVolume(draw(arrays(np.float32, (n,) + dims, elements=st.floats(-1e6, 1e6, width=32))), spacing)


def _read(kind, path):
    return read_logits(path) if kind == "logits" else read_volume(path)


def _damage(data, blob: bytes, num_extents: int) -> bytes:
    """Cut the file short, append to it, or set one header field to another value."""
    what = data.draw(st.sampled_from(("truncate", "append", "magic", "version", "dtype", "rank", "extent")))
    if what == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    if what == "append":
        return blob + data.draw(st.binary(min_size=1, max_size=64))
    if what == "magic":
        return data.draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"SVLV")) + blob[4:]
    offset = HEADER_FIELDS.get(what) or 16 + 4 * data.draw(st.integers(0, num_extents - 1))
    old = struct.unpack_from("<I", blob, offset)[0]
    value = data.draw(st.integers(0, 2**32 - 1).filter(lambda v: v != old))
    return blob[:offset] + struct.pack("<I", value) + blob[offset + 4:]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_container_roundtrip_is_bit_exact(tmp_path_factory, kind, data):
    vol = data.draw(volumes(kind))
    path = tmp_path_factory.mktemp("roundtrip") / "v.svlv"
    write_volume(vol, path)
    first = path.read_bytes()
    back = _read(kind, path)
    assert type(back) is type(vol)
    assert back.data.dtype == vol.data.dtype
    assert back.data.tobytes() == vol.data.tobytes()
    assert back.spacing == vol.spacing
    write_volume(back, path)
    assert path.read_bytes() == first


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_damaged_container_raises_format_error(tmp_path_factory, kind, data):
    vol = data.draw(volumes(kind))
    path = tmp_path_factory.mktemp("fuzz") / "v.svlv"
    write_volume(vol, path)
    path.write_bytes(_damage(data, path.read_bytes(), vol.data.ndim))
    with pytest.raises(VolumeFormatError):
        _read(kind, path)
