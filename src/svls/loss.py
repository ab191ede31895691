"""Cross-entropy against soft targets, with the analytic score gradient.

Lets the smoothing methods be verified end to end without a deep-learning
stack: softmax turns raw scores into predicted probabilities, cross_entropy
evaluates the loss against any soft target, and ce_gradient gives the exact
derivative with respect to the scores (softmax minus target).

Logit volumes keep float32 or float64 scores as given; softmax and the loss
compute in float64 whatever the stored dtype. Values are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import SoftLabelVolume, _check_class_axis, _check_spacing, _owned, check_same_grid, slabs

LOG_FLOOR = 1e-12  # the loss is undefined at p=0; predictions are clamped here


@dataclass(frozen=True)
class LogitVolume:
    """Per-voxel real-valued score vectors, shape (num_classes, *dims).

    float32 and float64 scores are stored as given (a float32 read stays
    float32); any other dtype becomes float64. The array is adopted or
    copied by the ownership rule of the `volume` module.
    """

    data: np.ndarray
    spacing: tuple[float, ...]

    def __post_init__(self):
        arr = np.asarray(self.data)
        _check_class_axis(arr, "logit")
        arr = _owned(arr, arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("logits must be finite")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing, arr.ndim - 1))

    @property
    def num_classes(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape[1:]


@dataclass(frozen=True)
class LossReport:
    """Mean cross-entropy over voxels plus the per-voxel grid behind it."""

    total: float
    per_voxel: np.ndarray


def softmax(logits: LogitVolume) -> SoftLabelVolume:
    """Exponential normalization per voxel, shifted by the max for stability.

    Computed in float64 for either score dtype: each class plane minus the
    class max is cast into one fresh float64 volume, which is exponentiated
    in place and divided by its class sum one slab of rows at a time
    (`volume.slabs`), so the sum is one float64 slab, then handed to the
    container without a copy. Widening float32 is exact, so float32 scores
    give the bytes of the same scores given as float64.
    """
    scores = logits.data
    top = scores.max(axis=0)
    probs = np.empty(scores.shape, dtype=np.float64)
    for z_c, p_c in zip(scores, probs):
        np.subtract(z_c, top, out=p_c, dtype=np.float64)
    np.exp(probs, out=probs)
    for part in slabs(top.shape):
        slab = probs[:, part]
        slab /= slab.sum(axis=0)
    probs.setflags(write=False)
    return SoftLabelVolume(probs, logits.spacing)


def cross_entropy(target: SoftLabelVolume, predicted: SoftLabelVolume) -> LossReport:
    """Per-voxel -sum_c target*log(predicted) and its unweighted voxel mean.

    The terms are summed one slab of rows (`volume.slabs`) at a time, in
    class order from class 0's term and negated at the end: per voxel the
    operations and order of one float64 sum over the class axis, without a
    float64 copy of either whole volume. Class 0's term is computed in the
    sum's own slab and each later term in one reusable float64 slab of
    scratch, so the loss holds its float64 per-voxel plane and one slab
    whatever the class count.
    """
    for operand in (target, predicted):
        if not isinstance(operand, SoftLabelVolume):
            raise TypeError(f"cross_entropy scores probability volumes, got a {type(operand).__name__}")
    check_same_grid(target, predicted)
    per_voxel = np.empty(target.dims, dtype=np.float64)
    parts = slabs(target.dims)
    scratch = np.empty_like(per_voxel[parts[0]])
    for part in parts:
        acc = per_voxel[part]
        for c, (t, p) in enumerate(zip(target.data[:, part], predicted.data[:, part])):
            term = scratch[: part.stop - part.start] if c else acc
            np.maximum(p, LOG_FLOOR, out=term, dtype=np.float64)
            np.log(term, out=term)
            term *= t
            if c:
                acc += term
    np.negative(per_voxel, out=per_voxel)
    return LossReport(total=float(per_voxel.mean()), per_voxel=per_voxel)


def ce_gradient(target: SoftLabelVolume, logits: LogitVolume) -> np.ndarray:
    """Derivative of the per-voxel cross-entropy w.r.t. the scores.

    Equals softmax(logits) - target; each voxel's gradient components sum
    to 0 because both terms sum to 1.
    """
    check_same_grid(target, logits)
    return softmax(logits).data - target.data
