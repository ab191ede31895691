"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import time

import numpy as np

from svls import (
    LabelVolume,
    PhantomSpec,
    RaterSet,
    SvlsKernel,
    calibrate_report,
    dice,
    generate_labels,
    generate_miscalibrated,
    generate_rater_set,
    label_smooth,
    moh_fuse,
    msvls_fuse,
    one_hot_encode,
    surface_dice,
    svls_smooth,
)
from svls.calibration import ece, reliability, tace
from svls.cli import main as cli_main
from svls.loss import LogitVolume, ce_gradient, cross_entropy, softmax
from svls.volume import SoftLabelVolume

from oracles import hp_svls_taps, naive_surface_dice, naive_svls


def report(num: int, name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num:02d} {name} failed{suffix}"


def unit_volume(data, num_classes=2):
    data = np.asarray(data, dtype=np.uint8)
    return LabelVolume(data, (1.0,) * data.ndim, num_classes)


def test_criterion_01_kernel_exactness():
    start = time.perf_counter()
    worst_tap = 0.0
    worst_total = 0.0
    for rank in (2, 3):
        for sigma in (0.5, 1.0, 2.0):
            k = SvlsKernel(rank, sigma)
            worst_total = max(worst_total, abs(k.total_weight - 2.0))
            if sigma == 1.0:
                worst_tap = max(worst_tap, np.abs(k.taps - hp_svls_taps(rank, sigma)).max())
    elapsed = time.perf_counter() - start
    ok = worst_tap <= 1e-9 and worst_total <= 1e-12 and elapsed < 1.0
    report(1, "kernel exactness", ok,
           f"max tap err {worst_tap:.2e}, max total err {worst_total:.2e}, {elapsed:.2f}s")


def test_criterion_02_convolution_oracle():
    rng = np.random.default_rng(7130)
    kernels = {2: SvlsKernel(2, 1.0), 3: SvlsKernel(3, 1.0)}
    start = time.perf_counter()
    worst = 0.0
    for rank in (2, 3):
        for _ in range(100):
            dims = tuple(int(d) for d in rng.integers(1, 10, size=rank))
            n = int(rng.integers(2, 6))
            vol = unit_volume(rng.integers(0, n, size=dims), num_classes=n)
            expected = naive_svls(vol.data, n, kernels[rank].taps)
            got = svls_smooth(vol, kernels[rank].sigma).data.astype(np.float64)
            worst = max(worst, float(np.abs(got - expected).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    report(2, "convolution matches naive oracle", ok,
           f"200 volumes, max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_structural_smoothing_properties():
    # isolated center: exact 50/50 split
    iso2 = np.zeros((3, 3), dtype=np.uint8)
    iso2[1, 1] = 1
    soft2 = svls_smooth(unit_volume(iso2), 1.0)
    iso3 = np.zeros((3, 3, 3), dtype=np.uint8)
    iso3[1, 1, 1] = 1
    soft3 = svls_smooth(unit_volume(iso3), 1.0)
    split_ok = (
        soft2.data[0, 1, 1] == np.float32(0.5)
        and soft2.data[1, 1, 1] == np.float32(0.5)
        and soft3.data[0, 1, 1, 1] == np.float32(0.5)
        and soft3.data[1, 1, 1, 1] == np.float32(0.5)
    )

    # homogeneous neighborhoods: exact one-hot
    homo = svls_smooth(unit_volume(np.ones((5, 5, 5))), 1.0)
    homo_ok = bool(np.all(homo.data[1] == 1.0) and np.all(homo.data[0] == 0.0))

    # neighbor monotonicity, exhaustive over all 2^8 two-class 3x3 neighborhoods
    positions = [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
    center_p1 = {}
    for code in range(256):
        data = np.zeros((3, 3), dtype=np.uint8)
        for bit, pos in enumerate(positions):
            data[pos] = (code >> bit) & 1
        center_p1[code] = float(svls_smooth(unit_volume(data), 1.0).data[1, 1, 1])
    mono_ok = True
    for code in range(256):
        for bit in range(8):
            if not (code >> bit) & 1:
                mono_ok &= center_p1[code | (1 << bit)] > center_p1[code]
    report(3, "isolated-center split, interior identity, monotonicity",
           split_ok and homo_ok and bool(mono_ok))


def test_criterion_04_simplex_preservation():
    rng = np.random.default_rng(41)
    worst = 0.0
    in_range = True
    for i in range(100):
        method = ("ls", "svls", "msvls", "moh")[i % 4]
        rank = 2 if i % 2 == 0 else 3
        dims = tuple(int(d) for d in rng.integers(2, 7, size=rank))
        n = int(rng.integers(2, 6))
        if method == "ls":
            vol = unit_volume(rng.integers(0, n, size=dims), n)
            soft = label_smooth(vol, float(rng.uniform(0, 1)))
        elif method == "svls":
            vol = unit_volume(rng.integers(0, n, size=dims), n)
            soft = svls_smooth(vol, 1.0)
        else:
            raters = RaterSet(
                tuple(unit_volume(rng.integers(0, n, size=dims), n) for _ in range(3))
            )
            soft = msvls_fuse(raters, 1.0) if method == "msvls" else moh_fuse(raters)
        worst = max(worst, float(np.abs(soft.data.sum(axis=0, dtype=np.float64) - 1.0).max()))
        in_range &= bool(soft.data.min() >= 0.0 and soft.data.max() <= 1.0)
    ok = worst <= 1e-6 and in_range
    report(4, "simplex preservation over 100 random inputs", ok, f"max sum err {worst:.2e}")


def test_criterion_05_uniform_smoothing_spot_values():
    expected = {0.1: np.float32(0.925), 0.2: np.float32(0.85), 0.3: np.float32(0.775)}
    vol = unit_volume([[1]], num_classes=4)
    ok = True
    for alpha, want in expected.items():
        soft = label_smooth(vol, alpha)
        ok &= soft.data[1, 0, 0] == want
    report(5, "uniform smoothing target-class spot values", bool(ok))


def test_criterion_06_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    h = 1e-4
    spacing = (1.0, 1.0)
    worst = 0.0
    for _ in range(100):
        dims = (2, 2)
        raw = rng.random((3,) + dims) + 1e-3
        target = SoftLabelVolume(raw / raw.sum(axis=0), spacing)
        base = rng.normal(size=(3,) + dims)
        grad = ce_gradient(target, LogitVolume(base, spacing))
        for idx in np.ndindex(*base.shape):
            plus, minus = base.copy(), base.copy()
            plus[idx] += h
            minus[idx] -= h
            # a score moves only its own voxel's loss, so the sum's difference is that voxel's
            fd = (
                cross_entropy(target, softmax(LogitVolume(plus, spacing))).loss_sum
                - cross_entropy(target, softmax(LogitVolume(minus, spacing))).loss_sum
            ) / (2 * h)
            worst = max(worst, abs(fd - grad[idx]))
    ok = worst <= 1e-5
    report(6, "analytic gradient vs finite differences", ok, f"100 pairs, max err {worst:.2e}")


def test_criterion_07_metric_edge_cases_and_oracle():
    checks = []

    ident = np.zeros((5, 5, 5), dtype=np.uint8)
    ident[1:4, 1:4, 1:4] = 1
    vi = unit_volume(ident)
    checks.append(dice(vi, vi, 1) == 1.0)
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[0, 0] = 1
    b[3, 3] = 1
    checks.append(dice(unit_volume(a), unit_volume(b), 1) == 0.0)
    t = np.zeros((10, 20), dtype=np.uint8)
    p = np.zeros((10, 20), dtype=np.uint8)
    t[:, :10] = 1
    p[:, 5:15] = 1
    checks.append(dice(unit_volume(t), unit_volume(p), 1) == 0.5)
    empty = unit_volume(np.zeros((4, 4, 4), dtype=np.uint8))
    checks.append(dice(empty, empty, 1) == 1.0)

    checks.append(surface_dice(vi, vi, 1, 0.0) == 1.0)
    diag = np.sqrt(3.0) * 5
    inv = LabelVolume(1 - vi.data, vi.spacing, 2)
    checks.append(surface_dice(vi, inv, 1, diag) == 1.0)
    sa = np.zeros((8, 8, 8), dtype=np.uint8)
    sb = np.zeros((8, 8, 8), dtype=np.uint8)
    sa[2:5, 2:5, 2:5] = 1
    sb[3:6, 2:5, 2:5] = 1
    checks.append(surface_dice(unit_volume(sa), unit_volume(sb), 1, 1.0) == 1.0)
    checks.append(surface_dice(unit_volume(sa), unit_volume(sb), 1, 0.5) < 1.0)
    empty5 = unit_volume(np.zeros((5, 5, 5), dtype=np.uint8))
    checks.append(surface_dice(empty5, empty5, 1, 1.0) == 1.0)
    checks.append(surface_dice(empty5, vi, 1, 1.0) == 0.0)
    trivial_ok = all(checks)

    rng = np.random.default_rng(512)
    exact = True
    monotone = True
    for _ in range(50):
        dims = tuple(int(d) for d in rng.integers(3, 13, size=3))
        spacing = tuple(float(rng.choice([0.5, 1.0, 1.25, 2.0])) for _ in range(3))
        ref = LabelVolume((rng.random(dims) < 0.3).astype(np.uint8), spacing, 2)
        pred = LabelVolume((rng.random(dims) < 0.3).astype(np.uint8), spacing, 2)
        tol = float(rng.uniform(0.2, 3.0))
        exact &= surface_dice(ref, pred, 1, tol) == naive_surface_dice(
            ref.data == 1, pred.data == 1, spacing, tol
        )
        scores = [surface_dice(ref, pred, 1, tau) for tau in (0.0, 0.5, 1.0, 2.0, 4.0)]
        monotone &= all(x <= y for x, y in zip(scores, scores[1:]))
    report(7, "metric edge cases, brute-force equality, tolerance monotonicity",
           trivial_ok and exact and monotone)


def test_criterion_08_calibration_metrology():
    spec = PhantomSpec(kind="miscalibrated_pred", dims=(22, 22, 22), num_classes=4, seed=17)
    labels = generate_labels(spec)
    assert labels.data.size >= 10_000
    gaps = {}
    ok = True
    for strength in (0.0, 0.1, 0.2, 0.3):
        predicted = generate_miscalibrated(labels, strength, seed=23)
        measured = calibrate_report(labels, predicted).ece
        gaps[strength] = measured
        ok &= abs(measured - strength) <= 0.03

    perfect = one_hot_encode(labels)
    bins = reliability(labels, perfect)
    ece_val = ece(bins)
    tace_val = tace(labels, perfect)
    ok &= ece_val <= 1e-9 and tace_val <= 1e-9
    detail = ", ".join(f"s={s}: ece={e:.3f}" for s, e in gaps.items())
    report(8, "injected miscalibration recovered, perfect predictions exact", ok, detail)


def test_criterion_09_multirater_adjacent_class_probability():
    spec = PhantomSpec(kind="fig3_multirater", dims=(12, 12), num_classes=3, seed=3)
    raters = generate_rater_set(spec, num_raters=3, jitter=1)
    votes = moh_fuse(raters).data
    smoothed = msvls_fuse(raters, 1.0).data
    witness = (votes[2] == 0.0) & (smoothed[2] > 0.0)
    report(9, "fused votes zero but smoothed fusion positive for adjacent class",
           bool(witness.any()), f"{int(witness.sum())} witness voxels")


def test_criterion_10_cli_determinism(tmp_path):
    def pipeline(root):
        root.mkdir()
        labels = root / "labels.svlv"
        soft = root / "soft.svlv"
        eval_dir = root / "eval"
        for args in (
            ["phantom", "--kind", "nested_spheres", "--dims", "16,20,20", "--classes", "3",
             "--out", str(labels)],
            ["encode", "--in", str(labels), "--method", "svls", "--out", str(soft)],
            ["evaluate", "--ref", str(labels), "--pred", str(soft), "--out", str(eval_dir)],
        ):
            assert cli_main(args) == 0
        files = sorted(p for p in root.rglob("*") if p.is_file())
        return {str(p.relative_to(root)): p.read_bytes() for p in files}

    first, second = (pipeline(tmp_path / f"r{repeat}") for repeat in (0, 1))
    report(10, "pipeline byte-identical across repeats", first == second,
           f"{len(first)} files compared")


def test_criterion_11_performance_smoke():
    spec = PhantomSpec(kind="nested_spheres", dims=(128, 192, 192), num_classes=4)
    labels = generate_labels(spec)
    start = time.perf_counter()
    soft = svls_smooth(labels, 1.0)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0 and soft.dims == (128, 192, 192)
    report(11, "full-size volume smoothing under 10 s", ok, f"{elapsed:.2f}s")
