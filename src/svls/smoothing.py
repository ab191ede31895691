"""Soft-label generation from expert label volumes.

Four ways to turn hard annotations into per-class probability targets:

  - label_smooth: mix each one-hot vector with the uniform distribution.
  - svls_smooth:  correlate each class plane with the normalized Gaussian
    stencil over a 1-voxel replicated border, so probability mass spreads
    only across spatial neighborhoods. Homogeneous regions stay exactly
    one-hot; an isolated center voxel splits 50/50 with its surroundings.
  - msvls_fuse:   smooth each rater's annotation, then average the soft
    labels across raters (in that order).
  - moh_fuse:     per-voxel rater vote fractions, ignoring all spatial
    context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .kernel import SvlsKernel
from .volume import LabelVolume, SoftLabelVolume, one_hot_encode


@dataclass(frozen=True)
class RaterSet:
    """Ordered annotations of the same volume by D >= 1 experts."""

    raters: tuple[LabelVolume, ...]

    def __post_init__(self):
        raters = tuple(self.raters)
        if len(raters) < 1:
            raise ValueError("rater set must contain at least one annotation")
        first = raters[0]
        for i, r in enumerate(raters[1:], start=1):
            if r.dims != first.dims:
                raise ValueError(f"rater {i} dims {r.dims} differ from rater 0 dims {first.dims}")
            if r.spacing != first.spacing:
                raise ValueError(f"rater {i} spacing {r.spacing} differs from rater 0")
            if r.num_classes != first.num_classes:
                raise ValueError(f"rater {i} has {r.num_classes} classes, rater 0 has {first.num_classes}")
        object.__setattr__(self, "raters", raters)

    def __len__(self) -> int:
        return len(self.raters)


def label_smooth(labels: LabelVolume, alpha: float) -> SoftLabelVolume:
    """Uniformly smoothed targets: annotated class gets (1-alpha)+alpha/N,
    every other class gets alpha/N."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    n = labels.num_classes
    planes = np.full((n,) + labels.dims, alpha / n, dtype=np.float64)
    class_ids = np.arange(n, dtype=np.uint8).reshape((-1,) + (1,) * labels.rank)
    planes += (labels.data[None, ...] == class_ids) * (1.0 - alpha)
    return SoftLabelVolume(planes.astype(np.float32), labels.spacing)


def svls_smooth(labels: LabelVolume, kernel: SvlsKernel) -> SoftLabelVolume:
    """Spatially varying soft targets for one annotation.

    Each class plane of the one-hot encoding is correlated with the stencil
    over a replicated border and divided by the total weight (2). The
    stencil is reflection-symmetric, so correlation and convolution agree.
    """
    if kernel.rank != labels.rank:
        raise ValueError(f"kernel rank {kernel.rank} does not match volume rank {labels.rank}")
    n = labels.num_classes
    out = np.empty((n,) + labels.dims, dtype=np.float32)
    for c in range(n):
        plane = (labels.data == c).astype(np.float64)
        out[c] = engine.correlate_padded(plane, kernel.taps) / kernel.total_weight
    return SoftLabelVolume(out, labels.spacing)


def msvls_fuse(raters: RaterSet, kernel: SvlsKernel) -> SoftLabelVolume:
    """Smooth each rater independently, then average the soft labels."""
    acc = None
    for rater in raters.raters:
        soft = svls_smooth(rater, kernel)
        if acc is None:
            acc = soft.data.astype(np.float64)
        else:
            acc += soft.data
    acc /= len(raters)
    return SoftLabelVolume(acc.astype(np.float32), raters.raters[0].spacing)


def moh_fuse(raters: RaterSet) -> SoftLabelVolume:
    """Per-voxel fraction of raters voting for each class."""
    first = raters.raters[0]
    acc = np.zeros((first.num_classes,) + first.dims, dtype=np.float64)
    for rater in raters.raters:
        acc += one_hot_encode(rater).data
    acc /= len(raters)
    return SoftLabelVolume(acc.astype(np.float32), first.spacing)
