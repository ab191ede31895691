"""Soft-label generation from expert label volumes.

Every soft target is built by one loop over classes (`_class_planes`): for
each class it counts the raters that label each voxel with that class (0 or
1 for a single annotation) and transforms that integer vote plane straight
into the class's float32 output plane, one slab of rows (`volume.slabs`) at
a time. Each slab is taken in float64 and rounded once, so no float64 array
is a whole plane. The loop asks each rater for its labels (`data`) as it
counts that rater's votes for the class: a LabelVolume gives its own array,
and a rater that reads its labels when asked, as the CLI's open label files
do, is read once per class, so no rater's labels are held beyond one class's
vote count, whatever the rater count.

  - one_hot_encode: the vote plane of one annotation as is.
  - label_smooth:   mix each one-hot vector with the uniform distribution.
  - svls_smooth:    correlate each class plane with the normalized Gaussian
    stencil over a 1-voxel replicated border, so probability mass spreads
    only across spatial neighborhoods. Homogeneous regions stay exactly
    one-hot; an isolated center voxel splits 50/50 with its surroundings.
    It is msvls_fuse of a single rater.
  - msvls_fuse:     SVLS of the rater vote shares. The stencil is linear, so
    this equals the mean of the per-rater SVLS maps, but it takes one
    stencil pass per class whatever the number of raters. The stencil runs
    on the exact integer counts; each float64 slab of its result is divided
    by the rater count and then by the total weight.
  - moh_fuse:       per-voxel rater vote shares, ignoring all spatial
    context.

An SVLS or MSVLS target is fixed by its label map(s) and one sigma: the
stencil is `engine.SvlsKernel(rank, sigma)` of the volume's own rank.
Votes are counted in the smallest unsigned dtype holding the rater count.
`engine.correlate_padded` takes only such counts, and widens them where the
widest shell (4 voxels in 2D, 12 in 3D) times the rater count would not fit.

What each entry point returns follows from its raters. From LabelVolumes
alone it returns a SoftLabelVolume that adopts the one float32 array its
planes were built into. If any rater reads its labels when asked, it builds
nothing yet: it returns a `SoftPlanes`, which runs the same loop when it is
written, each class plane into a `_RowWriter` that rounds each float64 slab
to float32 and hands it to the output file as it is built. So no whole
class plane of the soft volume is held, float32 or float64, nor any whole
label volume (how the CLI's `encode` and `fuse` write from their open label
files).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import engine
from .volume import LabelVolume, SoftLabelVolume, check_same_grid, slabs


@dataclass(frozen=True)
class RaterSet:
    """Ordered annotations of the same volume by D >= 1 experts.

    Each is a LabelVolume, or anything with a label volume's `dims`,
    `rank`, `num_classes` and `spacing` whose `data` gives its labels each
    time it is asked; one such rater makes the encoders return a
    `SoftPlanes` (module docstring). The grids are checked on those
    attributes alone, before any labels are asked for."""

    raters: tuple[LabelVolume, ...]

    def __post_init__(self):
        raters = tuple(self.raters)
        if len(raters) < 1:
            raise ValueError("rater set must contain at least one annotation")
        for i, r in enumerate(raters[1:], start=1):
            try:
                check_same_grid(r, raters[0])
            except ValueError as exc:
                raise ValueError(f"rater {i} vs rater 0: {exc}") from None
        object.__setattr__(self, "raters", raters)

    def __len__(self) -> int:
        return len(self.raters)


class _RowWriter:
    """A class plane of `shape` that is written as it is filled: `out[rows]
    = slab` rounds the slab to little-endian float32 and hands it to
    `write`. The slabs must come in row order, each starting where the last
    one stopped, so the plane reaches the file in its own byte order."""

    def __init__(self, write, shape: tuple[int, ...]):
        self._write, self.shape, self.size = write, shape, math.prod(shape)
        self._next = 0  # the first row not yet written

    def __setitem__(self, rows: slice, slab: np.ndarray) -> None:
        start, stop, step = rows.indices(self.shape[0])
        if (start, step) != (self._next, 1) or slab.shape != (stop - start, *self.shape[1:]):
            raise ValueError(f"the {self.shape} plane is written up to row {self._next}; "
                             f"rows {start}:{stop} of shape {slab.shape} do not continue it")
        self._write(slab.astype("<f4"))
        self._next = stop


@dataclass(frozen=True)
class SoftPlanes:
    """A soft-label volume built one class plane at a time as it is written:
    `write_to(write)` builds class 0, 1, ... in turn, each into a
    `_RowWriter` that hands each float32 slab of rows to `write`."""

    write_to: Callable[[Callable], None]
    dims: tuple[int, ...]
    num_classes: int
    spacing: tuple[float, ...]


def _class_planes(raters: RaterSet, fill, out) -> None:
    """Let `fill(votes, num_raters, plane)` write each class's plane `out[c]`,
    in class order, from its unsigned vote count."""
    first, *rest = raters.raters
    dtype = np.min_scalar_type(len(raters))
    for c in range(first.num_classes):
        votes = (first.data == c).astype(dtype)
        for rater in rest:
            votes += rater.data == c
        fill(votes, len(raters), out[c])
        del votes  # freed before the next class's votes are counted


def _encoded(raters: RaterSet, fill):
    """The soft volume whose class planes `fill` writes: from LabelVolumes
    alone, built whole into one fresh array; if any rater reads its labels
    when asked, a `SoftPlanes` that builds them as it is written (module
    docstring)."""
    first = raters.raters[0]
    if all(isinstance(r, LabelVolume) for r in raters.raters):
        out = np.empty((first.num_classes,) + first.dims, dtype=np.float32)
        _class_planes(raters, fill, out)
        out.setflags(write=False)  # fresh: the container adopts it without a copy
        return SoftLabelVolume(out, first.spacing)

    def write_to(write):
        _class_planes(raters, fill, [_RowWriter(write, first.dims) for _ in range(first.num_classes)])

    return SoftPlanes(write_to, first.dims, first.num_classes, first.spacing)


def _voxelwise(transform):
    """A fill that writes `transform(votes, num_raters)`, a float64 per-voxel
    step, one slab of rows at a time."""
    def fill(votes, num_raters, plane):
        for part in slabs(votes.shape):
            plane[part] = transform(votes[part], num_raters)

    return fill


def moh_fuse(raters: RaterSet) -> SoftLabelVolume | SoftPlanes:
    """Per-voxel fraction of raters voting for each class."""
    return _encoded(raters, _voxelwise(lambda votes, num_raters: votes / num_raters))


def msvls_fuse(raters: RaterSet, sigma: float) -> SoftLabelVolume | SoftPlanes:
    """SVLS of the rater vote shares, equal by linearity to the mean of the
    per-rater SVLS maps.

    Each class's vote count plane is correlated with the stencil of the
    volume's rank and `sigma` over a replicated border, then divided by the
    rater count and by the total weight (2). The stencil is
    reflection-symmetric, so correlation and convolution agree.
    """
    kernel = engine.SvlsKernel(raters.raters[0].rank, sigma)

    def smooth(votes, num_raters, plane):
        engine.correlate_padded(votes, kernel.weights, (num_raters, kernel.total_weight), plane)

    return _encoded(raters, smooth)


def svls_smooth(labels: LabelVolume, sigma: float) -> SoftLabelVolume | SoftPlanes:
    """Spatially varying soft targets for one annotation, from the stencil of its rank and `sigma`."""
    return msvls_fuse(RaterSet((labels,)), sigma)


def check_alpha(alpha: float) -> None:
    """Reject a smoothing weight outside [0, 1], NaN included."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")


def label_smooth(labels: LabelVolume, alpha: float) -> SoftLabelVolume | SoftPlanes:
    """Uniformly smoothed targets: annotated class gets (1-alpha)+alpha/N,
    every other class gets alpha/N."""
    check_alpha(alpha)
    n = labels.num_classes
    return _encoded(RaterSet((labels,)), _voxelwise(lambda votes, _: alpha / n + votes * (1.0 - alpha)))


def one_hot_encode(labels: LabelVolume) -> SoftLabelVolume | SoftPlanes:
    """Expand a label volume into indicator probability planes, one per class."""
    return moh_fuse(RaterSet((labels,)))
