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

`open_volume`, the one opener, opens a file and checks it once, before it
reads a payload byte: the header against the file size, and the sidecar
against the header. It yields a `VolumeFile`, which holds the file and
serves every read of it; its `kind`, decided once, is LabelVolume for a u8
file and SoftLabelVolume for an f32 one. The handle records the file's
device, inode, size and `mtime_ns`, and each read first checks that its
path still names that file: a file renamed over it or rewritten is an
`OSError`, `PATH changed while it was being read`. Each read then fills a
fresh array from one class plane, from a given row on, with one seek and
one readinto (`VolumeFile._fill`); the size was checked at open, so a short
read also means that the file changed, and is that same `OSError` on whole,
row, class-plane and slab-check reads alike.
`read_volume` and `read_logits` take a path or an open `VolumeFile` and
read the whole payload, or with `rows` (a slice of the first spatial axis)
only those rows of each class plane, each read at its plane's offset into
one fresh array that the container adopts; `read_logits` rejects a label
file before the payload. A payload fault of a row read names the rows and
the file first: `payload: rows 33:34 of PATH: voxel (0, 7, 2) probabilities
sum to ...`, where the voxel index is the slab's own.
`VolumeFile.check_slabs` checks a payload so, one `volume.slabs` slab of
rows at a time. The class planes of an f32 file (`data[c]`) are read one
contiguous run of the file each; a label file has none, and its `data[c]`
is a `dtype` fault before any byte is read.

A JSON sidecar at `<path>.json` carries what the payload cannot: spacing
(mm per axis, a list of numbers), num_classes (an integer) and provenance
(an object: method, alpha, sigma, rater files, tool version). Any other key,
such as the class-name map that older versions wrote, is ignored. Readers
reject invalid files, a sidecar value of another JSON kind included, instead
of repairing them, with a VolumeFormatError naming the faulty field.

Every output is one commit (`_write_files`): a volume's payload and sidecar,
or a report, are staged as temp files and then renamed into place, payload
first, so a failed write leaves no file of its output, nor any directory
made for it. Each payload is written through one path, a function handed
the staged file's `write`. `write_volume` is the one writer: it writes a
payload one class plane at a time (a `smoothing.SoftPlanes` builds each
plane one float32 slab of rows at a time as it is written), and before
the rename it opens and checks the staged pair as a reader opens and
checks an input (`open_volume`, `check_slabs`). Neither holds a whole
volume, nor a SoftPlanes' whole class plane.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import os
import struct
import tempfile

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


def _write_files(path, payload, sidecar=None, check=None) -> None:
    """Commit one output: stage a temp file beside `path`, into which
    `payload(write)` writes through the file's `write`, and the bytes
    `sidecar`, if any, at the temp file's own `sidecar_path`; call
    `check(staged)`, if given, to refuse the output by raising; then rename
    both into place, payload first. A failure removes the staged files,
    every file already renamed and every directory this call made."""
    directory = os.path.dirname(str(path)) or "."
    missing, parent = [], os.path.abspath(directory)
    while not os.path.lexists(parent):  # innermost first
        missing.append(parent)
        parent = os.path.dirname(parent)
    made, renamed = [], []
    try:
        os.makedirs(directory, exist_ok=True)
        fd, staged = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        files = [(staged, path, payload)]
        if sidecar is not None:
            files.append((sidecar_path(staged), sidecar_path(path), lambda write: write(sidecar)))
        for name, _, fill in files:
            if made:  # the sidecar, made exclusively as mkstemp made the payload
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            made.append(name)
            with os.fdopen(fd, "wb") as fh:
                fill(fh.write)
            os.chmod(name, 0o644)  # staged 0600; match regular file creation
        if check is not None:
            check(staged)
        for name, target, _ in files:
            os.replace(name, target)
            renamed.append(target)
    except BaseException:
        for name in [*made, *renamed]:
            if os.path.lexists(name):
                os.unlink(name)
        for name in missing:
            with contextlib.suppress(OSError):  # kept if anything else has landed in it
                os.rmdir(name)
        raise


def _arrays(planes, dtype):
    """A payload that writes each of the arrays `planes` as `dtype`."""
    def write_to(write):
        for plane in planes:
            write(plane.astype(dtype, copy=False))

    return write_to


def write_volume(volume, path, provenance=None) -> None:
    """Write a volume and its sidecar as one commit: the payload is renamed
    into place first and the sidecar last, and a failure leaves neither.

    The payload is written one class plane at a time (a label volume is one
    plane), and a `smoothing.SoftPlanes` writes each class plane one float32
    slab of rows at a time as it is built. Before the rename the staged pair
    is opened with `open_volume` and checked with `check_slabs`, as a reader
    opens and checks an input (a SoftPlanes as a SoftLabelVolume); a slab
    fault names its rows and `path`. So a SoftPlanes is never held whole,
    not even one class plane of it, and what lands at `path` always reads
    back.

    LogitVolume payloads use the f32 dtype code and are readable only via
    read_logits (their voxel sums are not probability sums). A float64
    logit beyond float32 range is rejected before any file is made, since
    f32 would hold it as inf, and so is a provenance that JSON cannot hold
    (NaN, infinity, or a value of no JSON kind).
    """
    if isinstance(volume, LabelVolume):
        dtype_code, kind, write_planes = DTYPE_LABELS, LabelVolume, _arrays((volume.data,), "<u1")
    elif isinstance(volume, SoftLabelVolume):
        dtype_code, kind, write_planes = DTYPE_PROBS, SoftLabelVolume, _arrays(volume.data, "<f4")
    elif isinstance(volume, SoftPlanes):
        dtype_code, kind, write_planes = DTYPE_PROBS, SoftLabelVolume, volume.write_to
    elif isinstance(volume, LogitVolume):
        planes = volume.data
        dtype_code, kind, write_planes = DTYPE_PROBS, LogitVolume, _arrays(planes, "<f4")
        with np.errstate(over="ignore"):  # a float64 score beyond float32 range becomes inf, rejected here
            if planes.dtype != np.float32 and not all(np.isfinite(p.astype("<f4")).all() for p in planes):
                raise ValueError("values beyond float32 range cannot be written as f32, "
                                 f"largest magnitude {np.abs(planes).max()}")
    else:
        raise TypeError(f"cannot serialize {type(volume).__name__}")
    provenance = dict(provenance or {})
    provenance.setdefault("tool_version", __version__)
    meta = {"spacing": list(volume.spacing), "num_classes": volume.num_classes, "provenance": provenance}
    sidecar = json.dumps(meta, indent=2, allow_nan=False) + "\n"  # before any file: JSON has no NaN
    shape = volume.dims if dtype_code == DTYPE_LABELS else (volume.num_classes, *volume.dims)
    header = MAGIC + struct.pack(f"<{3 + len(shape)}I", VERSION, dtype_code, len(volume.dims), *shape)

    def payload(write):
        write(header)
        write_planes(write)

    def check(staged):
        with open_volume(staged) as written:
            written.check_slabs(kind, path)

    _write_files(path, payload, sidecar.encode("utf-8"), check=check)


def _fault_of(field: str, call, *args, where: str = ""):
    """`call(*args)`, a container or one of its rules, with what it rejects
    reported as a fault of `field`, its message prefixed by `where`."""
    try:
        return call(*args)
    except ValueError as exc:
        raise VolumeFormatError(field, f"{where}{exc}")


_DTYPES = {DTYPE_LABELS: np.dtype("<u1"), DTYPE_PROBS: np.dtype("<f4")}


def _check_header(fh, path, file_size: int):
    """Check the header of the open file `fh` against its `file_size`,
    and the sidecar's JSON kinds (module docstring) against the header and
    the containers' spacing and class-count rules, an f32 file's class axis
    included. Returns the checked dtype code, spatial extents, spacing,
    class count and provenance, and leaves `fh` at the first payload
    byte."""
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
    return dtype_code, axes[-rank:], spacing, num_classes, provenance  # an f32 file's class axis comes first


def _identity(stat) -> tuple[int, int, int, int]:
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


class VolumeFile:
    """A volume file held open by `open_volume` (module docstring): its
    header and sidecar are checked once, into `dims`, `num_classes`,
    `spacing`, `kind` and the sidecar's `provenance`. `kind` is the
    container a plain read makes of it: LabelVolume for a u8 file,
    SoftLabelVolume for an f32 one. Like a volume it has `dims`,
    `num_classes`, `spacing`, and as `data` its class planes: `len()` is the
    class count, and item c reads plane c of an f32 file into a fresh
    read-only array; a label file has no class planes, so its item c is a
    `dtype` fault. So `volume.check_same_grid`, `volume.top_class` and the
    calibration metrics take it as they take a SoftLabelVolume."""

    def __init__(self, fh, path):
        stat = os.fstat(fh.fileno())
        self._fh, self.path, self._identity = fh, path, _identity(stat)
        dtype_code, self.dims, self.spacing, self.num_classes, self.provenance = _check_header(fh, path, stat.st_size)
        self.kind = LabelVolume if dtype_code == DTYPE_LABELS else SoftLabelVolume
        self._dtype = _DTYPES[dtype_code]
        self._start = fh.tell()  # the first payload byte

    @property
    def data(self) -> VolumeFile:
        return self

    def __len__(self) -> int:
        return self.num_classes

    def check_unchanged(self) -> None:
        """Raise an OSError if `path` no longer names the file as opened."""
        if _identity(os.stat(self.path)) != self._identity:
            raise OSError(f"{self.path} changed while it was being read")

    def _fill(self, out: np.ndarray, c: int, row: int = 0) -> None:
        """Fill `out` from class plane `c` (a label file's one plane is 0),
        starting at row `row` of its first spatial axis, with one seek and
        one readinto. The size was checked at open and the identity before
        the read, so a short read means the file changed."""
        n, *rest = self.dims
        self._fh.seek(self._start + self._dtype.itemsize * math.prod(rest) * (c * n + row))
        if self._fh.readinto(out) != out.nbytes:
            raise OSError(f"{self.path} changed while it was being read")

    def __getitem__(self, c) -> np.ndarray:
        if self.kind is LabelVolume:
            raise VolumeFormatError("dtype", f"{self.path} holds labels, which have no class planes")
        c = range(self.num_classes)[operator.index(c)]
        self.check_unchanged()
        plane = np.empty(self.dims, self._dtype)
        self._fill(plane, c)
        plane.setflags(write=False)
        return plane

    def _read(self, kind, rows, name=None):
        """Rows `rows` (a slice of the first spatial axis, all of them for
        None) of each class plane, each read at its plane's offset into one
        fresh array, as the container `kind`. With `rows`, a payload fault
        names the rows and `name`, by default `path`."""
        n, *rest = self.dims
        part = range(n)[slice(None) if rows is None else rows]
        if part.step != 1 or not part:
            raise ValueError(f"rows must be a non-empty run of the {n} rows, got {rows}")
        self.check_unchanged()
        lead = () if self.kind is LabelVolume else (self.num_classes,)  # the class axis
        data = np.empty((*lead, len(part), *rest), self._dtype)
        for c, plane in enumerate(data if lead else [data]):
            self._fill(plane, c, part.start)
        data.setflags(write=False)  # fresh: the container adopts it without a copy
        args = (self.num_classes,) if kind is LabelVolume else ()
        where = "" if rows is None else f"rows {part.start}:{part.stop} of {name or self.path}: "
        return _fault_of("payload", kind, data, self.spacing, *args, where=where)

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


def _opened(source):
    """A context holding the open VolumeFile `source`, or the file it names."""
    return contextlib.nullcontext(source) if isinstance(source, VolumeFile) else open_volume(source)


def read_volume(source, rows=None):
    """Read a label or probability volume (its handle's `kind`) from a path
    or an open VolumeFile, or with `rows` only those rows of its first
    spatial axis."""
    with _opened(source) as volume:
        return volume._read(volume.kind, rows)


def read_logits(source, rows=None) -> LogitVolume:
    """Read an f32 volume, from a path or an open VolumeFile, as raw scores,
    skipping the probability checks, or with `rows` only those rows of its
    first spatial axis; a label file is rejected before any payload byte is
    read."""
    with _opened(source) as volume:
        if volume.kind is LabelVolume:
            raise VolumeFormatError("dtype", "logits must use the f32 dtype code")
        return volume._read(LogitVolume, rows)


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
    _write_files(path, lambda write: write(text.encode("utf-8")))
