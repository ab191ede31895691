"""Bit-exact volume interchange and report serialization.

Volume container (extension-agnostic, conventionally `.svlv`), all integers
little-endian regardless of host:

    bytes 0-3   magic "SVLV"
    bytes 4-7   u32 version (1)
    bytes 8-11  u32 dtype code: 0 = u8 labels, 1 = f32 probabilities
    bytes 12-15 u32 spatial rank (2 or 3)
    then        u32 extents: `rank` of them for labels, `rank + 1` for
                probability volumes (leading class axis first)
    then        raw row-major little-endian payload, nothing after it

`open_volume` opens a file and checks it once, before it reads a payload
byte: the header against the file size, and the sidecar against the header.
It yields a `VolumeFile`, which holds the file and serves every read of it.
The handle records the file's device, inode, size and `mtime_ns`, and each
read first checks that its path still names that file: a file renamed over
it or rewritten is an `OSError`, `PATH changed while it was being read`.
`read_header` returns what a file and its sidecar declare, as one
`VolumeHeader`. `read_volume` and `read_logits` take a path or an open
`VolumeFile` and read the whole payload, or with `rows` (a slice of the
first spatial axis) only those rows of each class plane, each read at its
plane's offset into one fresh array that the container adopts;
`read_logits` rejects a label dtype code before the payload. A payload
fault of a row read names the rows and the file first:
`payload: rows 33:34 of PATH: voxel (0, 7, 2) probabilities sum to ...`,
where the voxel index is the slab's own. `VolumeFile.check_slabs` checks a
payload so, one `volume.slabs` slab of rows at a time; `open_prediction` is
`open_volume` of a probability file so checked, whose class planes
(`data[c]`) are then read one contiguous run of the file each.

A JSON sidecar at `<path>.json` carries what the payload cannot: spacing
(mm per axis, a list of numbers), num_classes (an integer) and provenance
(an object: method, alpha, sigma, rater files, tool version). Any other key,
such as the class-name map that older versions wrote, is ignored. Readers
reject invalid files, a sidecar value of another JSON kind included, instead
of repairing them, with a VolumeFormatError naming the faulty field.

Every output is one commit (`_write_files`): a volume's payload and sidecar,
or a report, are staged as temp files and then renamed into place, payload
first, so a failed write leaves no file of its output. `write_volume` is the
one writer: it writes a payload one class plane at a time (a
`smoothing.SoftPlanes` builds each plane as it is written), and before the
rename it checks the staged payload with `VolumeFile.check_slabs`, as a
reader checks it. Neither holds a whole volume.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import operator
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .calibration import CalibrationReport
from .loss import LossReport
from .seg_metrics import SegmentationScores
from .smoothing import SoftPlanes
from .volume import (LabelVolume, LogitVolume, SoftLabelVolume, _check_class_axis, _check_num_classes,
                     _check_spacing, slabs)

MAGIC = b"SVLV"
VERSION = 1
DTYPE_LABELS = 0
DTYPE_PROBS = 1


class VolumeFormatError(ValueError):
    """A volume file violated the container contract; `field` names the culprit."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def sidecar_path(path) -> str:
    return str(path) + ".json"


def _write_files(*files, check=None) -> None:
    """Commit one output: stage each `(path, chunks)` as a temp file beside
    `path` (its missing parents made), writing the chunks, bytes or
    C-contiguous arrays, in order; with `check`, call `check(staged)` with
    the first file's temp path, which raises to refuse the output; then
    rename the temp files into place in order. A failure removes the temp
    files and every file already renamed."""
    staged, renamed = [], []
    try:
        for path, chunks in files:
            directory = os.path.dirname(str(path)) or "."
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
            staged.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.chmod(tmp, 0o644)  # mkstemp creates 0600; match regular file creation
        if check is not None:
            check(staged[0])
        for tmp, (path, _) in zip(staged, files):
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for name in [*staged, *renamed]:
            if os.path.lexists(name):
                os.unlink(name)
        raise


def write_volume(volume, path, provenance=None) -> None:
    """Write a volume and its sidecar as one commit: the payload is renamed
    into place first and the sidecar last, and a failure leaves neither.

    The payload is written one class plane at a time (a label volume is one
    plane), and before the rename the staged file is read back and checked
    one `volume.slabs` slab of rows at a time, as its container checks it
    (a `smoothing.SoftPlanes` as a SoftLabelVolume); a fault names its rows
    and `path`. So a SoftPlanes, whose planes are built as they are written,
    is never held whole, and what lands at `path` always reads back.

    LogitVolume payloads use the f32 dtype code and are readable only via
    read_logits (their voxel sums are not probability sums). A float64
    value beyond float32 range is rejected before any file is made, since
    f32 would hold it as inf, and so is a provenance that JSON cannot hold
    (NaN, infinity, or a value of no JSON kind).
    """
    if isinstance(volume, LabelVolume):
        dtype_code, kind, planes = DTYPE_LABELS, LabelVolume, (volume.data,)
    elif isinstance(volume, (SoftLabelVolume, LogitVolume)):
        dtype_code, kind, planes = DTYPE_PROBS, type(volume), volume.data
        with np.errstate(over="ignore"):  # a float64 score beyond float32 range becomes inf, rejected here
            if planes.dtype != np.float32 and not all(np.isfinite(p.astype("<f4")).all() for p in planes):
                raise ValueError("values beyond float32 range cannot be written as f32, "
                                 f"largest magnitude {np.abs(planes).max()}")
    elif isinstance(volume, SoftPlanes):
        dtype_code, kind, planes = DTYPE_PROBS, SoftLabelVolume, volume.data
    else:
        raise TypeError(f"cannot serialize {type(volume).__name__}")
    provenance = dict(provenance or {})
    provenance.setdefault("tool_version", __version__)
    meta = {"spacing": list(volume.spacing), "num_classes": volume.num_classes, "provenance": provenance}
    sidecar = json.dumps(meta, indent=2, allow_nan=False) + "\n"  # before any file: JSON has no NaN
    shape = volume.dims if dtype_code == DTYPE_LABELS else (volume.num_classes, *volume.dims)
    head = VolumeHeader(dtype_code, shape, tuple(volume.spacing), volume.num_classes, provenance)
    dtype = _DTYPES[dtype_code]
    payload = itertools.chain((_header_bytes(head),), (p.astype(dtype, copy=False) for p in planes))

    def check(staged):
        with open(staged, "rb") as fh:
            VolumeFile(fh, staged, head).check_slabs(kind, path)

    _write_files((path, payload), (sidecar_path(path), (sidecar.encode("utf-8"),)), check=check)


def _fault_of(field: str, call, *args, where: str = ""):
    """`call(*args)`, a container or one of its rules, with what it rejects
    reported as a fault of `field`, its message prefixed by `where`."""
    try:
        return call(*args)
    except ValueError as exc:
        raise VolumeFormatError(field, f"{where}{exc}")


@dataclass(frozen=True)
class VolumeHeader:
    """What a volume file and its sidecar declare, checked: the dtype code,
    the extents of the payload (the class axis first in an f32 file), the
    spacing, the class count and the provenance. `dims` and `num_classes`
    are those of the volume it holds, so two headers go through
    `volume.check_same_grid` as volumes do."""

    dtype_code: int
    shape: tuple[int, ...]
    spacing: tuple[float, ...]
    num_classes: int
    provenance: dict

    @property
    def dims(self) -> tuple[int, ...]:
        return self.shape if self.dtype_code == DTYPE_LABELS else self.shape[1:]


_DTYPES = {DTYPE_LABELS: np.dtype("<u1"), DTYPE_PROBS: np.dtype("<f4")}


def _check_header(fh, path, file_size: int) -> VolumeHeader:
    """Check the header of the open file `fh` against its `file_size`,
    and the sidecar's JSON kinds (module docstring) against the header and
    the containers' spacing and class-count rules, an f32 file's class axis
    included. Leaves `fh` at the first payload byte."""
    head = fh.read(16)
    if len(head) < 16:
        raise VolumeFormatError("header", f"file is {len(head)} bytes, header needs 16")
    if head[:4] != MAGIC:
        raise VolumeFormatError("magic", f"expected {MAGIC!r}, got {head[:4]!r}")
    version, dtype_code, rank = struct.unpack_from("<3I", head, 4)
    if version != VERSION:
        raise VolumeFormatError("version", f"expected {VERSION}, got {version}")
    if dtype_code not in _DTYPES:
        raise VolumeFormatError("dtype", f"unknown dtype code {dtype_code}")
    if rank not in (2, 3):
        raise VolumeFormatError("rank", f"rank must be 2 or 3, got {rank}")
    naxes = rank if dtype_code == DTYPE_LABELS else rank + 1
    extents = fh.read(4 * naxes)
    if len(extents) < 4 * naxes:
        raise VolumeFormatError("dims", "header ends before the extent list")
    axes = struct.unpack(f"<{naxes}I", extents)
    if any(a < 1 for a in axes):
        raise VolumeFormatError("dims", f"extents must be >= 1, got {axes}")
    size = _DTYPES[dtype_code].itemsize * math.prod(axes)  # a Python int: no int64 wrap-around
    found = file_size - fh.tell()
    if found != size:
        raise VolumeFormatError("payload", f"expected {size} payload bytes, found {found}")
    side = sidecar_path(path)
    try:
        with open(side, "r", encoding="utf-8") as text:
            meta = json.load(text)
    except FileNotFoundError:
        raise VolumeFormatError("sidecar", f"missing sidecar {side}")
    except json.JSONDecodeError as exc:
        raise VolumeFormatError("sidecar", f"unparseable sidecar {side}: {exc}")
    if not isinstance(meta, dict):
        raise VolumeFormatError("sidecar", f"sidecar {side} must hold a JSON object")
    # a missing key reads as null
    spacing, num_classes, provenance = meta.get("spacing"), meta.get("num_classes"), meta.get("provenance", {})
    if not (isinstance(spacing, list) and all(type(s) in (int, float) for s in spacing)):  # bool is no number
        raise VolumeFormatError("spacing", f"spacing must be a list of numbers, got {json.dumps(spacing)}")
    if type(num_classes) is not int:
        raise VolumeFormatError("num_classes", f"num_classes must be an integer, got {json.dumps(num_classes)}")
    if not isinstance(provenance, dict):
        raise VolumeFormatError("sidecar", f"provenance must be an object, got {json.dumps(provenance)}")
    spacing = _fault_of("spacing", _check_spacing, spacing, rank)
    if dtype_code == DTYPE_PROBS and axes[0] != num_classes:
        raise VolumeFormatError("num_classes", f"sidecar says {num_classes} classes, payload has {axes[0]}")
    _fault_of("num_classes", _check_num_classes if dtype_code == DTYPE_LABELS else _check_class_axis, num_classes)
    return VolumeHeader(dtype_code, axes, spacing, num_classes, provenance)


def _header_bytes(head: VolumeHeader) -> bytes:
    return MAGIC + struct.pack(f"<{3 + len(head.shape)}I", VERSION, head.dtype_code, len(head.dims), *head.shape)


def _identity(stat) -> tuple[int, int, int, int]:
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


class VolumeFile:
    """A volume file held open (module docstring): its header and sidecar
    are checked once, into `header`, unless a staged file's `head` is given.
    Like a volume it has `dims`, `num_classes`, `spacing`, and as `data` its
    class planes: `len()` is the class count, and item c reads plane c of an
    f32 file into a fresh read-only array. So `volume.check_same_grid`,
    `volume.top_class` and the calibration metrics take it as they take a
    SoftLabelVolume."""

    def __init__(self, fh, path, head: VolumeHeader | None = None):
        stat = os.fstat(fh.fileno())
        self._fh, self.path, self._identity = fh, path, _identity(stat)
        self.header = head or _check_header(fh, path, stat.st_size)
        self.dims, self.num_classes, self.spacing = self.header.dims, self.header.num_classes, self.header.spacing
        self._start = 16 + 4 * len(self.header.shape)  # the first payload byte

    @property
    def data(self) -> VolumeFile:
        return self

    def __len__(self) -> int:
        return self.num_classes

    def check_unchanged(self) -> None:
        """Raise an OSError if `path` no longer names the file as opened."""
        if _identity(os.stat(self.path)) != self._identity:
            raise OSError(f"{self.path} changed while it was being read")

    def __getitem__(self, c) -> np.ndarray:
        c = range(self.num_classes)[operator.index(c)]
        self.check_unchanged()
        plane = np.empty(self.dims, _DTYPES[DTYPE_PROBS])
        self._fh.seek(self._start + c * plane.nbytes)
        if self._fh.readinto(plane) != plane.nbytes:
            raise OSError(f"{self.path} changed while it was being read")
        plane.setflags(write=False)
        return plane

    def _read(self, kind, rows, name=None):
        """Rows `rows` (a slice of the first spatial axis, all of them for
        None) of each class plane, each read at its plane's offset into one
        fresh array, as the container `kind`. With `rows`, a payload fault
        names the rows and `name`, by default `path`."""
        head = self.header
        n, *rest = head.dims
        part = range(n)[slice(None) if rows is None else rows]
        if part.step != 1 or not part:
            raise ValueError(f"rows must be a non-empty run of the {n} rows, got {rows}")
        self.check_unchanged()
        lead = head.shape[:1] if head.dtype_code == DTYPE_PROBS else ()  # the class axis
        dtype = _DTYPES[head.dtype_code]
        row = dtype.itemsize * math.prod(rest)
        data = np.empty((*lead, len(part), *rest), dtype)
        read = 0
        for c, plane in enumerate(data if lead else [data]):
            self._fh.seek(self._start + row * (c * n + part.start))
            read += self._fh.readinto(plane)
        if read != data.nbytes:
            raise VolumeFormatError("payload", f"expected {data.nbytes} payload bytes, read {read}")
        data.setflags(write=False)  # fresh: the container adopts it without a copy
        args = (head.num_classes,) if kind is LabelVolume else ()
        where = "" if rows is None else f"rows {part.start}:{part.stop} of {name or self.path}: "
        return _fault_of("payload", kind, data, head.spacing, *args, where=where)

    def check_slabs(self, kind, name=None) -> None:
        """Check the payload one `volume.slabs` slab of rows at a time, as
        its container `kind` checks it, and then that the file is unchanged;
        a fault names its rows and `name`, by default `path`."""
        for rows in slabs(self.dims):
            self._read(kind, rows, name)
        self.check_unchanged()


@contextlib.contextmanager
def open_volume(path):
    """Open a volume file, check its header and sidecar, and yield it as a
    `VolumeFile`, which is closed when the block ends."""
    with open(path, "rb") as fh:
        yield VolumeFile(fh, path)


def read_header(path) -> VolumeHeader:
    """Check a volume file as every read does before its first payload byte,
    and read no payload: the header, the file size and the sidecar."""
    with open_volume(path) as volume:
        return volume.header


def _opened(source):
    """A context holding the open VolumeFile `source`, or the file it names."""
    return contextlib.nullcontext(source) if isinstance(source, VolumeFile) else open_volume(source)


def read_volume(source, rows=None):
    """Read a label or probability volume (decided by the dtype code) from a
    path or an open VolumeFile, or with `rows` only those rows of its first
    spatial axis."""
    with _opened(source) as volume:
        return volume._read(LabelVolume if volume.header.dtype_code == DTYPE_LABELS else SoftLabelVolume, rows)


def read_logits(source, rows=None) -> LogitVolume:
    """Read an f32 volume, from a path or an open VolumeFile, as raw scores,
    skipping the probability checks, or with `rows` only those rows of its
    first spatial axis; a label file is rejected before any payload byte is
    read."""
    with _opened(source) as volume:
        if volume.header.dtype_code != DTYPE_PROBS:
            raise VolumeFormatError("dtype", "logits must use the f32 dtype code")
        return volume._read(LogitVolume, rows)


@contextlib.contextmanager
def open_prediction(path):
    """Open a probability file, check it one `volume.slabs` slab of rows at a
    time, as `read_volume(path, rows)` checks it (a payload fault names its
    rows and the file), and yield it as a `VolumeFile`, which holds no
    plane. A label file is rejected before any payload byte is read."""
    with open_volume(path) as volume:
        if volume.header.dtype_code != DTYPE_PROBS:
            raise VolumeFormatError("dtype", "a prediction must use the f32 dtype code")
        volume.check_slabs(SoftLabelVolume)
        yield volume


def _sig6(x: float):
    """Round to 6 significant decimals; None for NaN (empty cells)."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    return float(f"{float(x):.6g}")


def _report_table(report):
    """A report as (summary fields, name of the row list, column names, rows),
    in output order, each measurement rounded once by `_sig6`. A loss
    report's only row is its summary, and it has no row list."""
    if isinstance(report, CalibrationReport):
        summary = {
            "ece": _sig6(report.ece),
            "tace": _sig6(report.tace),
            "num_bins": report.num_bins,
            "tace_threshold": _sig6(report.tace_threshold),
            "tace_ranges": report.tace_ranges,
        }
        rows = [
            (_sig6(b.lower), _sig6(b.upper), b.count, _sig6(b.mean_confidence), _sig6(b.accuracy))
            for b in report.bins
        ]
        return summary, "bins", ("lower", "upper", "count", "mean_confidence", "accuracy"), rows
    if isinstance(report, SegmentationScores):
        rows = [
            (str(c), _sig6(report.per_class_dsc[c]), _sig6(report.per_class_sd[c]))
            for c in report.per_class_dsc
        ]
        return {"tolerance_mm": _sig6(report.tolerance_mm)}, "classes", ("class", "dsc", "sd"), rows
    if isinstance(report, LossReport):
        summary = {"total": _sig6(report.total), "voxels": report.voxels}
        return summary, None, tuple(summary), [tuple(summary.values())]
    raise TypeError(f"cannot serialize {type(report).__name__}")


def _csv_cell(value) -> str:
    """An empty cell for None (NaN), 6 significant decimals for a float."""
    if value is None:
        return ""
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def write_report(report, path) -> None:
    """Serialize a metric report with fixed field order and 6 significant
    decimals, as CSV when `path` ends in `.csv` (the column names, then one
    line per row) and as JSON otherwise (the summary fields, then the rows
    as objects under the row list's name)."""
    summary, rows_name, columns, rows = _report_table(report)
    if str(path).endswith(".csv"):
        text = "".join(",".join(map(_csv_cell, line)) + "\n" for line in (columns, *rows))
    else:
        doc = dict(summary)
        if rows_name is not None:
            doc[rows_name] = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(doc, indent=2) + "\n"
    _write_files((path, (text.encode("utf-8"),)))
