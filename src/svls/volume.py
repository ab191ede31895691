"""Core volume containers: integer label grids, and per-class probability
and logit grids.

Volumes are 2D or 3D, carry physical voxel spacing (mm per axis), and are
immutable after construction. Probability and logit volumes store the class
axis first so each class plane is contiguous.

Ownership: a container adopts its input array without a copy only when it
is read-only, C-contiguous, of the stored dtype and owns its memory
(`flags.owndata`). Anything else (a writable array, any view, an array over
a bytearray or other foreign buffer, another dtype or layout) is copied, so
a caller's own array is never frozen. Producers that build a fresh array for
a container (the readers, the soft-label encoders, softmax, argmax_labels)
allocate it in its final shape and freeze it once they are done writing, so
they hand it over without a copy.

Float64 scratch that only feeds a per-voxel step (the soft-volume sum check
here, the encoders' class planes and the stencil's weighted shells in them,
softmax's divisor, the loss's class terms) is held one slab at a time:
`slabs` cuts a grid along its first axis into runs of rows of at most
SUM_BLOCK voxels, at least one row each. Every step is per voxel, so a slab
gives each voxel the bytes the whole grid would.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Tolerance for per-voxel probability sums at construction time.
SUM_TOL = 1e-6

MAX_CLASSES = 256  # labels are stored as uint8

SUM_BLOCK = 1 << 14  # values held in float64 scratch at once: 128 KiB


def slabs(shape) -> list[slice]:
    """Slices along the first axis of a grid of `shape`, in order, each
    covering at most SUM_BLOCK voxels and at least one row."""
    rows = max(1, SUM_BLOCK // math.prod(shape[1:]))
    return [slice(i, min(i + rows, shape[0])) for i in range(0, shape[0], rows)]


def _check_int(value, what: str, low: int, high: float = math.inf) -> None:
    """Reject anything but an integer in [low, high], a numpy one too but
    not a bool, with the message `what`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value <= high:
        raise ValueError(what)


def _check_spacing(spacing, rank: int) -> tuple[float, ...]:
    try:
        spacing = tuple(float(s) for s in spacing)
    except OverflowError:  # float() of an integer beyond float range
        raise ValueError("spacing must be positive and finite, got an integer beyond float range") from None
    if len(spacing) != rank:
        raise ValueError(f"spacing has {len(spacing)} entries for a rank-{rank} volume")
    # written so that NaN, which fails every comparison, is rejected too
    if not all(0 < s < math.inf for s in spacing):
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    return spacing


def _owned(arr: np.ndarray, dtype) -> np.ndarray:
    """`arr` itself if the ownership rule lets a container adopt it, else a
    read-only C-contiguous copy of type `dtype`."""
    flags = arr.flags
    if arr.dtype == dtype and flags.c_contiguous and flags.owndata and not flags.writeable:
        return arr
    arr = np.array(arr, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def _check_num_classes(num_classes: int) -> None:
    """Reject a label class count that is not an integer, that uint8 storage
    cannot hold, or below 2."""
    _check_int(num_classes, f"num_classes must be in [2, {MAX_CLASSES}], got {num_classes}", 2, MAX_CLASSES)


def _check_class_axis(num_classes: int) -> None:
    """Reject a class axis of fewer than 2 classes."""
    _check_int(num_classes, f"need at least 2 classes, got {num_classes}", 2)


def check_same_grid(a, b) -> None:
    """Reject two volumes that do not lie on one grid: equal dims, then
    class count, then spacing. Every metric and the loss compare volumes
    voxel by voxel, so each of them needs all three."""
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: dims {a.dims} vs {b.dims}")
    if a.num_classes != b.num_classes:
        raise ValueError(f"class count mismatch: {a.num_classes} vs {b.num_classes}")
    if a.spacing != b.spacing:
        raise ValueError(f"spacing mismatch: {a.spacing} vs {b.spacing}")


@dataclass(frozen=True)
class LabelVolume:
    """Dense integer class-ID grid with voxel spacing in millimeters.

    Every value must lie in [0, num_classes); dims are taken from the data
    array (2 or 3 axes).
    """

    data: np.ndarray
    spacing: tuple[float, ...]
    num_classes: int

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim not in (2, 3):
            raise ValueError(f"label volume must have 2 or 3 axes, got {arr.ndim}")
        if any(n < 1 for n in arr.shape):
            raise ValueError(f"all dims must be >= 1, got {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
        _check_num_classes(self.num_classes)
        if arr.min() < 0 or arr.max() >= self.num_classes:
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), "
                f"found range [{arr.min()}, {arr.max()}]"
            )
        arr = _owned(arr, np.uint8)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing, arr.ndim))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def rank(self) -> int:
        return self.data.ndim


@dataclass(frozen=True)
class _ClassFirstVolume:
    """A per-voxel vector grid, shape (num_classes, *dims), class axis first
    so each class plane is contiguous, with voxel spacing in millimeters.

    Checked in order: the shape (a class axis of at least 2 classes plus 2
    or 3 spatial axes, every extent >= 1), then the values, then the
    spacing. Each kind names itself in `_KIND` and gives its stored dtype and
    its value rule; the array is adopted or copied by the ownership rule.
    """

    data: np.ndarray
    spacing: tuple[float, ...]

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim not in (3, 4):
            raise ValueError(f"{self._KIND} volume must have a class axis plus 2 or 3 spatial axes, got {arr.ndim} axes")
        _check_class_axis(arr.shape[0])
        if any(n < 1 for n in arr.shape[1:]):
            raise ValueError(f"all dims must be >= 1, got {arr.shape[1:]}")
        arr = _owned(arr, self._stored_dtype(arr.dtype))
        self._check_values(arr)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing, arr.ndim - 1))

    @property
    def num_classes(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape[1:]


@dataclass(frozen=True)
class SoftLabelVolume(_ClassFirstVolume):
    """Per-voxel class probability grid, shape (num_classes, *dims).

    Values must lie in [0, 1] and sum to 1 per voxel within SUM_TOL. Storage
    is float32 by default; float64 inputs are kept as-is (the loss evaluator
    needs the extra precision).
    """

    _KIND = "probability"

    def _stored_dtype(self, dtype):
        return np.float64 if dtype == np.float64 else np.float32

    def _check_values(self, arr: np.ndarray) -> None:
        # written so that NaN, which fails every comparison, is rejected too
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError(
                f"probabilities must lie in [0, 1], found range [{arr.min()}, {arr.max()}]"
            )
        # one float64 slab: the deviation is taken in place, and only the
        # failing slab, which holds the first bad voxel, is summed again
        parts = slabs(arr.shape[1:])
        scratch = np.empty((parts[0].stop,) + arr.shape[2:], dtype=np.float64)
        for part in parts:
            deviation = arr[:, part].sum(axis=0, dtype=np.float64, out=scratch[: part.stop - part.start])
            deviation -= 1.0
            failing = np.abs(deviation, out=deviation) > SUM_TOL
            if failing.any():
                bad = np.unravel_index(int(np.argmax(failing)), failing.shape)
                sums = arr[:, part].sum(axis=0, dtype=np.float64)
                idx = (part.start + int(bad[0]),) + tuple(int(i) for i in bad[1:])
                raise ValueError(f"voxel {idx} probabilities sum to {float(sums[bad])}, expected 1 +/- {SUM_TOL}")


@dataclass(frozen=True)
class LogitVolume(_ClassFirstVolume):
    """Per-voxel real-valued score vectors, shape (num_classes, *dims).

    float32 and float64 scores are stored as given (a float32 read stays
    float32); any other dtype becomes float64. Every score must be finite.
    """

    _KIND = "logit"

    def _stored_dtype(self, dtype):
        return dtype if dtype in (np.float32, np.float64) else np.float64

    def _check_values(self, arr: np.ndarray) -> None:
        if not np.isfinite(arr).all():
            raise ValueError("logits must be finite")


def top_class(planes) -> tuple[np.ndarray, np.ndarray]:
    """Each voxel's top class (uint8) and its value (the planes' dtype), from
    one sweep over a sequence of class planes: a class-first array, or any
    `len()`-able sequence whose item c is plane c, such as the `data` of a
    `tensor_io.VolumeFile`, which reads each plane from its file in turn.

    Ties keep the lowest class: a plane takes a voxel only where it is
    strictly greater than the running maximum, and since the class index
    rises through the sweep, `labels = max(labels, better * c)` records it
    without a branch. The labels equal `np.argmax(planes, axis=0)` and the
    values `planes.max(axis=0)`, for any planes without NaN. More classes
    than uint8 labels hold are rejected, as a LabelVolume rejects them.
    """
    _check_num_classes(len(planes))
    top = planes[0].copy()
    labels = np.zeros(top.shape, dtype=np.uint8)
    better = np.empty(top.shape, dtype=np.uint8)
    for c in range(1, len(planes)):
        plane = planes[c]
        np.greater(plane, top, out=better)
        better *= np.uint8(c)
        np.maximum(labels, better, out=labels)
        np.maximum(top, plane, out=top)
        del plane  # freed before the next one is read
    return labels, top


def argmax_labels(probs: SoftLabelVolume) -> LabelVolume:
    """Collapse a probability volume to hard labels (ties go to the lowest
    class), taken by the one class-plane sweep of `top_class`; the volume
    may also be a `tensor_io.VolumeFile` whose slabs were checked.

    There is no second simplex check: every SoftLabelVolume passed it at
    construction, and its data is read-only, as every slab of a checked
    VolumeFile did. The labels are fresh, so they are frozen and the
    LabelVolume adopts them.
    """
    labels, _ = top_class(probs.data)
    labels.setflags(write=False)
    return LabelVolume(labels, probs.spacing, probs.num_classes)
