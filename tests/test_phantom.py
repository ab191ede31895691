import hashlib
import math

import numpy as np
import pytest

from svls import (
    LabelVolume,
    PhantomSpec,
    calibrate_report,
    generate_labels,
    generate_miscalibrated,
    generate_rater_set,
    moh_fuse,
    msvls_fuse,
    one_hot_encode,
    svls_smooth,
)
from svls.phantom import BASE_ACCURACY, KINDS, nested_sphere_radii


def test_homogeneous():
    vol = generate_labels(PhantomSpec(kind="homogeneous", dims=(4, 4, 4)))
    assert np.all(vol.data == 1)


def test_isolated_center():
    vol = generate_labels(PhantomSpec(kind="isolated_center", dims=(3, 3)))
    assert vol.data[1, 1] == 1
    assert vol.data.sum() == 1


def test_isolated_center_needs_room():
    with pytest.raises(ValueError, match="dims"):
        generate_labels(PhantomSpec(kind="isolated_center", dims=(2, 3)))


def test_straight_boundary_plane():
    vol = generate_labels(PhantomSpec(kind="straight_boundary", dims=(6, 4)))
    assert np.all(vol.data[:3] == 0)
    assert np.all(vol.data[3:] == 1)


def test_nested_spheres_counts_match_lattice_oracle():
    dims = (15, 15, 15)
    vol = generate_labels(PhantomSpec(kind="nested_spheres", dims=dims, num_classes=3))
    r_inner, r_outer = nested_sphere_radii(dims)
    center = [(d - 1) / 2.0 for d in dims]
    inner = outer = 0
    for idx in np.ndindex(*dims):
        d = np.sqrt(sum((i - c) ** 2 for i, c in zip(idx, center)))
        if d <= r_inner:
            inner += 1
        elif d <= r_outer:
            outer += 1
    assert int((vol.data == 2).sum()) == inner
    assert int((vol.data == 1).sum()) == outer


def test_reproducible_given_seed():
    spec = PhantomSpec(kind="miscalibrated_pred", dims=(6, 6, 6), num_classes=3, seed=11)
    assert np.array_equal(generate_labels(spec).data, generate_labels(spec).data)
    labels = generate_labels(spec)
    a = generate_miscalibrated(labels, 0.1, seed=3)
    b = generate_miscalibrated(labels, 0.1, seed=3)
    assert np.array_equal(a.data, b.data)


def test_straight_boundary_uncertainty_confined_to_plane():
    spec = PhantomSpec(kind="straight_boundary", dims=(8, 6, 6))
    soft = svls_smooth(generate_labels(spec), 1.0)
    fractional = (soft.data > 0.0) & (soft.data < 1.0)
    mixed_rows = sorted(set(np.argwhere(fractional)[:, 1]))
    assert mixed_rows == [3, 4]  # within one voxel of the plane between rows 3 and 4
    pure = np.ones(soft.dims, dtype=bool)
    pure[3:5] = False
    assert np.all((soft.data[:, pure] == 0.0) | (soft.data[:, pure] == 1.0))


def test_rater_set_no_jitter_is_unanimous():
    spec = PhantomSpec(kind="straight_boundary", dims=(6, 6))
    raters = generate_rater_set(spec, num_raters=4, jitter=0)
    fused = moh_fuse(raters)
    assert np.array_equal(fused.data, one_hot_encode(raters.raters[0]).data)


def test_rater_jitter_confined_to_boundary_band():
    spec = PhantomSpec(kind="straight_boundary", dims=(10, 6), seed=5)
    base = generate_labels(spec)
    plane = spec.dims[0] // 2
    raters = generate_rater_set(spec, num_raters=2, jitter=1)
    for rater in raters.raters:
        rows_with_diffs = {int(r) for r, _ in np.argwhere(rater.data != base.data)}
        assert rows_with_diffs <= {plane - 1, plane}


def test_rater_single_equals_base_smoothing():
    spec = PhantomSpec(kind="nested_spheres", dims=(9, 9, 9), num_classes=3)
    raters = generate_rater_set(spec, num_raters=1, jitter=0)
    assert np.array_equal(msvls_fuse(raters, 1.0).data, svls_smooth(generate_labels(spec), 1.0).data)


def test_rater_set_validation():
    spec = PhantomSpec(kind="homogeneous", dims=(3, 3))
    with pytest.raises(ValueError, match="^need at least 1 rater, got 0$"):
        generate_rater_set(spec, num_raters=0, jitter=0)
    with pytest.raises(ValueError, match="^jitter must be >= 0, got -1$"):
        generate_rater_set(spec, num_raters=2, jitter=-1)


def test_fig3_multirater_geometry():
    spec = PhantomSpec(kind="fig3_multirater", dims=(8, 8), num_classes=3)
    vol = generate_labels(spec)
    assert set(np.unique(vol.data)) == {0, 1, 2}
    # the two foreground classes touch along the last axis
    touching = (vol.data[:, :-1] == 1) & (vol.data[:, 1:] == 2)
    assert touching.any()
    # the box spans the middle half of each axis, split at the middle of the last
    expected = np.zeros((6, 12), np.uint8)
    expected[1:5, 3:6], expected[1:5, 6:9] = 1, 2
    assert np.array_equal(generate_labels(PhantomSpec(kind="fig3_multirater", dims=(6, 12), num_classes=3)).data,
                          expected)


def test_miscalibrated_on_simplex():
    labels = generate_labels(PhantomSpec(kind="miscalibrated_pred", dims=(8, 8, 8), num_classes=4))
    soft = generate_miscalibrated(labels, 0.2)
    sums = soft.data.sum(axis=0, dtype=np.float64)
    assert np.abs(sums - 1.0).max() <= 1e-6


def test_miscalibrated_strength_zero_is_calibrated():
    labels = generate_labels(
        PhantomSpec(kind="miscalibrated_pred", dims=(22, 22, 22), num_classes=3, seed=2)
    )
    report = calibrate_report(labels, generate_miscalibrated(labels, 0.0, seed=2))
    assert report.ece <= 0.01


def test_miscalibrated_ece_increases_with_strength():
    labels = generate_labels(
        PhantomSpec(kind="miscalibrated_pred", dims=(22, 22, 22), num_classes=3, seed=6)
    )
    measured = [
        calibrate_report(labels, generate_miscalibrated(labels, s, seed=6)).ece
        for s in (0.0, 0.1, 0.2, 0.3)
    ]
    assert all(a < b for a, b in zip(measured, measured[1:]))


def test_miscalibrated_flipped_labels_full_confidence():
    # exact one-hot predictions that disagree with the reference on 30% of
    # voxels: confidence 1.0, accuracy 0.7, so the gap is 0.3
    rng = np.random.default_rng(9)
    labels = generate_labels(
        PhantomSpec(kind="miscalibrated_pred", dims=(22, 22, 22), num_classes=3, seed=4)
    )
    flipped = np.array(labels.data)
    flip = rng.random(labels.dims) < 0.3
    flipped[flip] = (flipped[flip] + 1) % 3
    noisy = LabelVolume(flipped, labels.spacing, 3)
    report = calibrate_report(labels, one_hot_encode(noisy))
    assert report.ece == pytest.approx(0.3, abs=0.02)


def test_miscalibrated_argmax_matches_noisy_copy():
    labels = generate_labels(
        PhantomSpec(kind="miscalibrated_pred", dims=(16, 16, 16), num_classes=4, seed=8)
    )
    soft = generate_miscalibrated(labels, 0.1, seed=8)
    hard = np.argmax(soft.data, axis=0)
    agreement = (hard == labels.data).mean()
    assert agreement == pytest.approx(BASE_ACCURACY, abs=0.03)


def test_phantom_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        PhantomSpec(kind="cube", dims=(3, 3))
    with pytest.raises(ValueError, match="dims"):
        PhantomSpec(kind="homogeneous", dims=(3,))
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        PhantomSpec(kind="homogeneous", dims=(3, 3), seed=-1)
    with pytest.raises(ValueError, match="^num_classes must be >= 2, got 1$"):
        PhantomSpec(kind="homogeneous", dims=(3, 3), num_classes=1)
    with pytest.raises(ValueError, match="classes"):
        generate_labels(PhantomSpec(kind="nested_spheres", dims=(9, 9, 9), num_classes=2))


@pytest.mark.parametrize("field, value, message", [
    ("dims", (2.7, 3.9), "dims must be 2 or 3 positive extents, got (2.7, 3.9)"),
    ("dims", (True, 3), "dims must be 2 or 3 positive extents, got (True, 3)"),
    ("num_classes", 2.5, "num_classes must be >= 2, got 2.5"),
    ("seed", 1.5, "seed must be >= 0, got 1.5"),
    ("seed", True, "seed must be >= 0, got True"),
])
def test_spec_rejects_extents_class_counts_and_seeds_that_are_not_integers(field, value, message):
    kwargs = dict(kind="homogeneous", dims=(2, 3), num_classes=2, seed=0)
    kwargs[field] = value
    with pytest.raises(ValueError) as info:
        PhantomSpec(**kwargs)
    assert str(info.value) == message


def test_spec_takes_numpy_integers_as_python_ints():
    spec = PhantomSpec("homogeneous", (np.int64(2), np.uint8(3)), num_classes=np.int32(2), seed=np.int64(1))
    assert spec.dims == (2, 3) and all(type(d) is int for d in spec.dims)


@pytest.mark.parametrize("num_raters, jitter, message", [
    (2.5, 0, "need at least 1 rater, got 2.5"),
    (True, 0, "need at least 1 rater, got True"),
    (2, 1.5, "jitter must be >= 0, got 1.5"),
])
def test_rater_set_rejects_a_count_or_jitter_that_is_not_an_integer(num_raters, jitter, message):
    with pytest.raises(ValueError) as info:
        generate_rater_set(PhantomSpec("homogeneous", (3, 3)), num_raters, jitter)
    assert str(info.value) == message


def test_miscalibrated_rejects_a_seed_that_is_not_an_integer():
    labels = generate_labels(PhantomSpec(kind="homogeneous", dims=(4, 4)))
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got 1.5$"):
        generate_miscalibrated(labels, 0.1, seed=1.5)


def test_miscalibrated_rejects_a_negative_seed():
    labels = generate_labels(PhantomSpec(kind="homogeneous", dims=(4, 4)))
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        generate_miscalibrated(labels, 0.1, seed=-1)


def test_miscalibrated_rejects_a_strength_that_is_negative_or_not_finite():
    labels = generate_labels(PhantomSpec(kind="homogeneous", dims=(4, 4)))
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="strength must be >= 0 and finite"):
            generate_miscalibrated(labels, bad)


@pytest.mark.parametrize("kind, dims", [("homogeneous", (1, 1)), ("straight_boundary", (2, 1)),
                                        ("nested_spheres", (5, 5, 5)), ("fig3_multirater", (4, 4))])
def test_each_kind_accepts_its_smallest_dims(kind, dims):
    assert generate_labels(PhantomSpec(kind, dims, num_classes=3)).dims == dims


@pytest.mark.parametrize("kind, dims, classes, message", [
    ("straight_boundary", (1, 4), 2, r"straight_boundary needs dims\[0\] >= 2, got \(1, 4\)"),
    ("nested_spheres", (5, 5, 4), 3, r"nested_spheres needs all dims >= 5, got \(5, 5, 4\)"),
    ("fig3_multirater", (4, 3), 3, r"fig3_multirater needs all dims >= 4, got \(4, 3\)"),
    ("fig3_multirater", (4, 4), 2, "fig3_multirater needs at least 3 classes"),
])
def test_each_kind_rejects_a_volume_it_cannot_draw(kind, dims, classes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_labels(PhantomSpec(kind, dims, num_classes=classes))


def test_defaults_are_two_classes_and_seed_0():
    spec = PhantomSpec("miscalibrated_pred", (4, 5))
    assert spec == PhantomSpec("miscalibrated_pred", (4, 5), num_classes=2, seed=0)
    labels = generate_labels(spec)
    assert np.array_equal(generate_miscalibrated(labels, 0.1).data, generate_miscalibrated(labels, 0.1, seed=0).data)


# sha256 of the payload bytes (C order) at one small seeded spec per kind,
# and of the generators built on them. The benchmark makes its inputs with
# these generators, so a change to any of their bytes shows here first.
PINNED_SHA256 = {
    "homogeneous": "b903db3ce6fb94f87d5ac10072caa143977f6a7c325bb0ef4f91d12d6a45bcf9",
    "isolated_center": "b7b64df837102659e32304d2f099a1ad20b3e049afc3f89d8dc59b29fb7ca9c7",
    "straight_boundary": "50b36530fe727c51e9537b874e236eb066268008c4399ccaf5926af6388d34da",
    "nested_spheres": "60846372efa9255392e5bc1455d26831e758925f15e6426467a57fc6fbee6de7",
    "fig3_multirater": "850a7463d030b98455c36503569afc613c7b74cf5b6f5368bfbe8fa891ca479a",
    "miscalibrated_pred": "08236d38637cbb9ca5afcc2f5eb042e11f5d92cb16d91c1805d7116634b3f951",
    "generate_miscalibrated": "6c53f1e7579e0b0dffb4c899d57f84d0e6bca2fada46a2aeeb71b5a41b3057c1",
    "generate_rater_set": "1044585f3dc921b35dec3b185dd4a4b11d020bbda3d5d481314423a76253ad99",
}


def pin_spec(kind: str) -> PhantomSpec:
    return PhantomSpec(kind, (9, 10, 11), num_classes=3, seed=5)


def payload_sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", KINDS)
def test_phantom_kind_payload_is_pinned(kind):
    data = generate_labels(pin_spec(kind)).data
    assert (data.dtype, data.shape) == (np.uint8, (9, 10, 11))
    assert payload_sha256(data) == PINNED_SHA256[kind]


def test_miscalibrated_payload_is_pinned():
    data = generate_miscalibrated(generate_labels(pin_spec("nested_spheres")), 0.1, seed=5).data
    assert (data.dtype, data.shape) == (np.float32, (3, 9, 10, 11))
    assert payload_sha256(data) == PINNED_SHA256["generate_miscalibrated"]


def test_jittered_rater_set_payload_is_pinned():
    base = generate_labels(pin_spec("nested_spheres")).data
    raters = [r.data for r in generate_rater_set(pin_spec("nested_spheres"), 3, 2).raters]
    assert any(not np.array_equal(r, base) for r in raters)  # the pin covers the jitter's direction
    assert payload_sha256(*raters) == PINNED_SHA256["generate_rater_set"]
