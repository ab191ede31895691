"""Deterministic synthetic volumes for tests, demos, and metric validation.

Every generator is a pure function of (spec, seed): the same inputs produce
bit-identical output on any platform (numpy's PCG64 generator is stable).
`generate_labels` builds the labels of nested_spheres and miscalibrated_pred
one `volume.slabs` slab of rows at a time, so their float64 distances and
int64 draws are held one slab at a time: each voxel's distance is computed
alone, and successive int64 draws of one generator continue its stream.
`generate_raters` yields the jittered raters of a phantom one at a time, so
`phantom --raters D` writes each as it is made; `generate_rater_set` holds
the same raters as one RaterSet.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .smoothing import RaterSet
from .volume import LabelVolume, SoftLabelVolume, _check_int, slabs

KINDS = (
    "homogeneous",
    "isolated_center",
    "straight_boundary",
    "nested_spheres",
    "fig3_multirater",
    "miscalibrated_pred",
)

DEFAULT_SPACING = 1.0
MAX_EXTENT = 2**32 - 1  # the container stores each extent as a u32
MAX_JITTER = 2**63 - 1  # generate_raters draws its offsets as int64
BASE_ACCURACY = 0.7  # share of generate_miscalibrated's voxels whose predicted class is the label


def _check_seed(seed: int) -> None:
    _check_int(seed, f"seed must be >= 0, got {seed}", 0)


@dataclass(frozen=True)
class PhantomSpec:
    """Parameters of a synthetic volume. The extents, class count and seed
    are integers, numpy ones too, but not bools."""

    kind: str
    dims: tuple[int, ...]
    num_classes: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        dims = tuple(self.dims)
        what = f"dims must be 2 or 3 positive extents, got {self.dims}"
        if len(dims) not in (2, 3):
            raise ValueError(what)
        for d in dims:
            _check_int(d, what, 1)
        if max(dims) > MAX_EXTENT:
            raise ValueError(f"dims must be at most {MAX_EXTENT}, the container's u32 limit, got {self.dims}")
        _check_int(self.num_classes, f"num_classes must be >= 2, got {self.num_classes}", 2)
        _check_seed(self.seed)
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))


def _spacing(spec: PhantomSpec) -> tuple[float, ...]:
    return (DEFAULT_SPACING,) * len(spec.dims)


def _center_distances(dims, rows: slice) -> np.ndarray:
    """Per-voxel Euclidean distance (in voxel units) from the volume center,
    of rows `rows` of the first axis."""
    axes = [np.arange(d) - (d - 1) / 2.0 for d in dims]
    axes[0] = axes[0][rows]
    d2 = sum(np.ix_(*[a**2 for a in axes]))
    return np.sqrt(d2, out=d2)


def nested_sphere_radii(dims) -> tuple[float, float]:
    """Inner/outer radii used by the nested_spheres kind, in voxel units."""
    r2 = 0.4 * min(dims)
    return 0.5 * r2, r2


def generate_labels(spec: PhantomSpec) -> LabelVolume:
    """Build the deterministic label volume described by the spec."""
    dims = spec.dims
    if spec.kind == "homogeneous":
        data = np.ones(dims, dtype=np.uint8)
    elif spec.kind == "isolated_center":
        if any(d < 3 for d in dims):
            raise ValueError(f"isolated_center needs all dims >= 3, got {dims}")
        data = np.zeros(dims, dtype=np.uint8)
        data[tuple(d // 2 for d in dims)] = 1
    elif spec.kind == "straight_boundary":
        if dims[0] < 2:
            raise ValueError(f"straight_boundary needs dims[0] >= 2, got {dims}")
        data = np.zeros(dims, dtype=np.uint8)
        data[dims[0] // 2 :] = 1
    elif spec.kind == "nested_spheres":
        if spec.num_classes < 3:
            raise ValueError("nested_spheres needs at least 3 classes")
        if any(d < 5 for d in dims):
            raise ValueError(f"nested_spheres needs all dims >= 5, got {dims}")
        r_inner, r_outer = nested_sphere_radii(dims)
        data = np.empty(dims, dtype=np.uint8)
        for part in slabs(dims):
            dist = _center_distances(dims, part)
            # 1 in the outer sphere, 2 in the inner one, which it holds
            np.add(dist <= r_outer, dist <= r_inner, out=data[part], dtype=np.uint8)
            del dist  # freed before the next slab's are built
    elif spec.kind == "fig3_multirater":
        if spec.num_classes < 3:
            raise ValueError("fig3_multirater needs at least 3 classes")
        if any(d < 4 for d in dims):
            raise ValueError(f"fig3_multirater needs all dims >= 4, got {dims}")
        # central box split along the last axis: class 1 touching class 2,
        # background around, so class 2 sits in class-1 neighborhoods
        data = np.zeros(dims, dtype=np.uint8)
        box = tuple(slice(d // 4, d - d // 4) for d in dims)
        lo, hi = box[-1].start, box[-1].stop
        mid = (lo + hi) // 2
        data[box[:-1] + (slice(lo, mid),)] = 1
        data[box[:-1] + (slice(mid, hi),)] = 2
    else:  # miscalibrated_pred, the last kind PhantomSpec admits
        # base labels for the miscalibration generator: seeded uniform draws
        rng = np.random.default_rng(spec.seed)
        data = np.empty(dims, dtype=np.uint8)
        for part in slabs(dims):
            data[part] = rng.integers(0, spec.num_classes, size=data[part].shape)
    data.setflags(write=False)  # fresh: the container adopts it without a copy
    return LabelVolume(data, _spacing(spec), spec.num_classes)


def generate_raters(spec: PhantomSpec, num_raters: int, jitter: int) -> Iterator[LabelVolume]:
    """Yield D copies of the base phantom, one at a time, each translated by
    at most `jitter` voxels, so a caller that writes each as it comes holds
    one rater besides the base.

    Each rater draws its own integer offset vector from a stream seeded with
    (spec.seed, rater index); out-of-range reads replicate the border. With
    jitter 0 all raters are identical to the base volume. The offsets are
    int64 draws, so a jitter above 2**63 - 1 is rejected.
    """
    _check_int(num_raters, f"need at least 1 rater, got {num_raters}", 1)
    _check_int(jitter, f"jitter must be >= 0, got {jitter}", 0)
    _check_int(jitter, f"jitter must be <= {MAX_JITTER} (an int64 offset), got {jitter}", 0, MAX_JITTER)
    base = generate_labels(spec)
    for j in range(num_raters):
        rng = np.random.default_rng([spec.seed, j])
        offsets = rng.integers(-jitter, jitter + 1, size=base.rank)
        index = [np.clip(np.arange(n) - off, 0, n - 1) for n, off in zip(base.dims, offsets)]
        shifted = base.data[np.ix_(*index)]
        shifted.setflags(write=False)  # fresh: the container adopts it without a copy
        yield LabelVolume(shifted, base.spacing, base.num_classes)


def generate_rater_set(spec: PhantomSpec, num_raters: int, jitter: int) -> RaterSet:
    """The raters of `generate_raters`, held together as one RaterSet."""
    return RaterSet(tuple(generate_raters(spec, num_raters, jitter)))


def generate_miscalibrated(labels: LabelVolume, strength: float, seed: int = 0) -> SoftLabelVolume:
    """Predictions with a known calibration gap of approximately `strength`.

    Each voxel's predicted class matches the label with probability
    BASE_ACCURACY (otherwise a random other class), and every prediction
    carries confidence clamp(BASE_ACCURACY + strength, 1). All confidences
    land in one reliability bin whose accuracy converges to BASE_ACCURACY,
    so the expected ECE is the injected strength. BASE_ACCURACY exceeds 1/N
    for every class count N >= 2, so the confidence is each voxel's largest
    probability and the predicted class its argmax.
    """
    if not 0 <= strength < math.inf:  # NaN fails too
        raise ValueError(f"strength must be >= 0 and finite, got {strength}")
    _check_seed(seed)
    n = labels.num_classes
    confidence = min(BASE_ACCURACY + strength, 1.0)
    rng = np.random.default_rng(seed)
    correct = rng.random(labels.dims) < BASE_ACCURACY
    shift = rng.integers(1, n, size=labels.dims).astype(np.int64)
    predicted = np.where(correct, labels.data, (labels.data + shift) % n)
    planes = np.full((n,) + labels.dims, (1.0 - confidence) / (n - 1), dtype=np.float32)
    np.put_along_axis(planes, predicted[None, ...], confidence, axis=0)
    planes.setflags(write=False)  # fresh: the container adopts it without a copy
    return SoftLabelVolume(planes, labels.spacing)
