"""Cross-entropy against soft targets, with the analytic score gradient.

Lets the smoothing methods be verified end to end without a deep-learning
stack: softmax turns raw scores into predicted probabilities, cross_entropy
evaluates the loss against any soft target, and ce_gradient gives the exact
derivative with respect to the scores (softmax minus target).

Logit volumes (`volume.LogitVolume`, also importable from here) keep
float32 or float64 scores as given; softmax and the loss compute in float64
whatever the stored dtype. Values are in nats. This module holds only the
loss math: both containers and their checks live in `volume`.

Every step of softmax and cross_entropy is per voxel, so a slab of rows
scores as it would inside the whole volume. The loss total has one slab
rule: the `math.fsum` of the float64 numpy sums of the `volume.slabs` slabs
of the per-voxel losses, over the voxel count. cross_entropy keeps no
per-voxel grid, and the `loss` subcommand (`cli.streamed_loss`) scores a
file one such slab of rows at a time, adds up their sums and gets the
library's report, holding no whole operand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .volume import LogitVolume, SoftLabelVolume, check_same_grid, slabs

LOG_FLOOR = 1e-12  # the loss is undefined at p=0; predictions are clamped here


@dataclass(frozen=True)
class LossReport:
    """The summed cross-entropy of `voxels` voxels by the slab rule of the
    module docstring. Reports of disjoint slabs add up: their union's
    `loss_sum` is the `math.fsum` of theirs.
    """

    loss_sum: float
    voxels: int

    @property
    def total(self) -> float:  # the unweighted voxel mean
        return self.loss_sum / self.voxels


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
    """The sum of the per-voxel -sum_c target*log(predicted) by the slab rule.

    The terms are summed one slab of rows (`volume.slabs`) at a time, in
    class order from class 0's term, then negated: per voxel one float64 sum
    over the class axis, without a float64 copy of either whole volume.
    Class 0's term is computed in the slab that holds the sum and each later
    term in a second one, both reused for every slab, so the loss holds two
    float64 slabs whatever the volume size and class count.
    """
    for operand in (target, predicted):
        if not isinstance(operand, SoftLabelVolume):
            raise TypeError(f"cross_entropy scores probability volumes, got a {type(operand).__name__}")
    check_same_grid(target, predicted)
    parts = slabs(target.dims)
    acc_slab = np.empty((parts[0].stop,) + target.dims[1:], dtype=np.float64)
    term_slab = np.empty_like(acc_slab)
    sums = []
    for part in parts:
        acc = acc_slab[: part.stop - part.start]
        for c, (t, p) in enumerate(zip(target.data[:, part], predicted.data[:, part])):
            term = term_slab[: len(acc)] if c else acc
            np.maximum(p, LOG_FLOOR, out=term, dtype=np.float64)
            np.log(term, out=term)
            term *= t
            if c:
                acc += term
        np.negative(acc, out=acc)
        sums.append(acc.sum())
    return LossReport(math.fsum(sums), math.prod(target.dims))


def ce_gradient(target: SoftLabelVolume, logits: LogitVolume) -> np.ndarray:
    """Derivative of the per-voxel cross-entropy w.r.t. the scores.

    Equals softmax(logits) - target; each voxel's gradient components sum
    to 0 because both terms sum to 1.
    """
    check_same_grid(target, logits)
    return softmax(logits).data - target.data
