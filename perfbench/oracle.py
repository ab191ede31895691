"""Seeded workload inputs and the independent checks of every CLI output.

Run as a child of ``run.py``, never inside the timing launcher, because it
holds whole volumes and the launcher must stay lean for per-child peak RSS:

    python3 perfbench/oracle.py setup --workload sparse --seed 1 --dims 128,192,192 --dir D
    python3 perfbench/oracle.py check --set D OUT/round0 OUT/round1 ... [--set D/warm OUT/warm]

``setup`` writes the input volumes into ``D`` (and a small copy into
``D/warm`` for the untimed first calls) and ``D/expected.json``: the
expected scalar results (Surface Dice, TACE and CE from in-process library
calls; Dice and ECE from the oracle's own counts) and the workload's property
counts. ``check`` recomputes the soft-label references in float64 (a
separable ``correlate1d`` with ``mode="nearest"``, not the library's stencil
engine), compares every output directory with them and prints one JSON line
with a verdict for every output it found.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import struct
import sys

import numpy as np
import scipy
from scipy import ndimage

from svls import calibration, engine, loss, seg_metrics, tensor_io
from svls.loss import LogitVolume
from svls.phantom import PhantomSpec, generate_labels, generate_miscalibrated, generate_rater_set
from svls.volume import LabelVolume, SoftLabelVolume

from run import LS_ALPHA, WORKLOADS
CLASSES = 4
RATERS = 3
JITTER = 2
STRENGTH = 0.1  # miscalibration of the dense prediction
LOGIT_FLOOR = 1e-6
SD_TOLERANCE = 2.0  # evaluate's defaults, restated so the oracle does not read them from the CLI
ECE_BINS = 15
TACE_THRESHOLD = 1e-3
TACE_RANGES = 15
WARM_DIMS = (8, 12, 12)  # the untimed first call of each subcommand runs on this copy

SOFT_TOL = 1e-6  # soft labels against the float64 reference, and the simplex
REPORT_RTOL = 1e-5  # reports carry 6 significant digits
REPORT_ATOL = 1e-9


def svls_taps_1d(sigma: float = 1.0) -> np.ndarray:
    """The SVLS stencil factorises as g(x)g(y)[g(z)]/S + (1 - 1/S) delta.

    g holds the unnormalised Gaussian at offsets -1, 0, 1 and S is the sum of
    the stencil's surrounding weights; the total weight is 2.
    """
    edge = math.exp(-1.0 / (2.0 * sigma * sigma))
    return np.array([edge, 1.0, edge])


def svls_reference(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Float64 SVLS soft labels, computed separably with replicated borders."""
    g = svls_taps_1d()
    surround = g.sum() ** labels.ndim - 1.0
    out = np.empty((num_classes,) + labels.shape)
    for c in range(num_classes):
        plane = (labels == c).astype(np.float64)
        smooth = plane
        for axis in range(labels.ndim):
            smooth = ndimage.correlate1d(smooth, g, axis=axis, mode="nearest")
        out[c] = (smooth / surround + (1.0 - 1.0 / surround) * plane) / 2.0
    return out


def mixed_voxel_share(labels: np.ndarray) -> float:
    """Share of voxels whose replicated 3^rank neighbourhood holds two or more labels."""
    hi = ndimage.maximum_filter(labels, size=3, mode="nearest")
    lo = ndimage.minimum_filter(labels, size=3, mode="nearest")
    return float(np.count_nonzero(hi != lo)) / labels.size


def boundary_count(mask: np.ndarray) -> int:
    """Mask voxels with a face neighbour outside the mask; the volume border is outside."""
    structure = ndimage.generate_binary_structure(mask.ndim, 1)
    interior = ndimage.binary_erosion(mask, structure=structure, border_value=0)
    return int(np.count_nonzero(mask & ~interior))


def _shift(data: np.ndarray, offsets) -> np.ndarray:
    """Translate the trailing spatial axes by `offsets`, replicating the border."""
    spatial = data.shape[-len(offsets):]
    index = [np.clip(np.arange(n) - off, 0, n - 1) for n, off in zip(spatial, offsets)]
    return data[(Ellipsis,) + np.ix_(*index)]


def prediction_offset(seed: int, rank: int) -> list[int]:
    """Seeded translation of the sparse prediction: each axis moves -2..2, not all 0."""
    rng = np.random.default_rng([seed, 7])
    while True:
        offsets = [int(v) for v in rng.integers(-JITTER, JITTER + 1, size=rank)]
        if any(offsets):
            return offsets


def make_inputs(workload: str, seed: int, dims: tuple[int, ...]):
    """Build (encode labels, raters, reference labels, prediction, loss target) for a workload.

    sparse: nested spheres everywhere; the prediction is the reference's SVLS
    soft labels translated by a seeded 1-2 voxel offset.
    dense: uniform-random labels to encode and fuse; the prediction is a
    miscalibrated per-voxel noise volume over the nested-sphere reference.
    """
    spheres_spec = PhantomSpec("nested_spheres", dims, CLASSES, seed=seed)
    reference = generate_labels(spheres_spec)
    if workload == "sparse":
        source_spec = spheres_spec
        labels = reference
    elif workload == "dense":
        source_spec = PhantomSpec("miscalibrated_pred", dims, CLASSES, seed=seed)
        labels = generate_labels(source_spec)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    raters = generate_rater_set(source_spec, RATERS, JITTER).raters
    target = svls_reference(labels.data, CLASSES)
    if workload == "sparse":
        shifted = _shift(target, prediction_offset(seed, len(dims)))
        predicted = SoftLabelVolume(shifted.astype(np.float32), reference.spacing)
    else:
        predicted = generate_miscalibrated(reference, STRENGTH, seed=seed)
    target = SoftLabelVolume(target.astype(np.float32), labels.spacing)
    return labels, raters, reference, predicted, target


def expected_scores(reference: LabelVolume, predicted: SoftLabelVolume, target: SoftLabelVolume,
                    logits: LogitVolume) -> dict:
    """What evaluate and loss must report for these inputs."""
    ref = reference.data
    probs = predicted.data
    hard = np.argmax(probs, axis=0)  # ties go to the lowest class, as evaluate documents
    n = CLASSES
    confusion = np.bincount((ref.astype(np.int64) * n + hard).ravel(), minlength=n * n).reshape(n, n)
    sizes = confusion.sum(axis=1) + confusion.sum(axis=0)
    dsc = [1.0 if sizes[c] == 0 else 2.0 * confusion[c, c] / sizes[c] for c in range(n)]

    confidence = probs.max(axis=0).astype(np.float64).ravel()
    correct = (hard == ref).ravel()
    edges = np.linspace(0.0, 1.0, ECE_BINS + 1)
    which = np.clip(np.searchsorted(edges, confidence, side="left"), 1, ECE_BINS) - 1
    counts = np.bincount(which, minlength=ECE_BINS)
    conf_sum = np.bincount(which, weights=confidence, minlength=ECE_BINS)
    hit_sum = np.bincount(which, weights=correct, minlength=ECE_BINS)
    occupied = counts > 0
    gaps = np.abs(hit_sum[occupied] - conf_sum[occupied]) / counts[occupied]
    ece = float((counts[occupied] / confidence.size * gaps).sum())

    sd = [
        seg_metrics.surface_dice_masks(ref == c, hard == c, reference.spacing, SD_TOLERANCE)
        for c in range(n)
    ]
    tace = calibration.tace(reference, predicted, TACE_THRESHOLD, TACE_RANGES)
    ce = loss.cross_entropy(target, loss.softmax(logits)).total

    boundary = sum(boundary_count(ref == c) + boundary_count(hard == c) for c in range(n))
    return {
        "dsc": dsc,
        "sd": sd,
        "ece": ece,
        "bin_counts": [int(v) for v in counts],
        "tace": tace,
        "ce": ce,
        "voxels": int(ref.size),
        "boundary_voxels": boundary,
        # over class-voxels: every class plane of the volume counts once
        "boundary_share": boundary / (n * ref.size),
        "tace_kept": int(np.count_nonzero(probs > TACE_THRESHOLD)),
    }


def setup(workload: str, seed: int, dims: tuple[int, ...], directory: str) -> dict:
    """Write a workload's inputs and expected.json into `directory`, and a small copy into `directory`/warm."""
    _write_inputs(workload, seed, WARM_DIMS, os.path.join(directory, "warm"))
    return _write_inputs(workload, seed, dims, directory)


def _write_inputs(workload: str, seed: int, dims: tuple[int, ...], directory: str) -> dict:
    labels, raters, reference, predicted, target = make_inputs(workload, seed, dims)
    os.makedirs(os.path.join(directory, "raters"), exist_ok=True)
    tensor_io.write_volume(labels, os.path.join(directory, "labels.svlv"))
    for j, rater in enumerate(raters):
        tensor_io.write_volume(rater, os.path.join(directory, "raters", f"rater{j:02d}.svlv"))
    tensor_io.write_volume(reference, os.path.join(directory, "ref.svlv"))
    tensor_io.write_volume(predicted, os.path.join(directory, "pred.svlv"))
    tensor_io.write_volume(target, os.path.join(directory, "target.svlv"))
    # float32 logarithms, so the float32 payload the CLI reads back holds the same values
    logits = LogitVolume(np.log(np.maximum(predicted.data, np.float32(LOGIT_FLOOR))), predicted.spacing)
    tensor_io.write_volume(logits, os.path.join(directory, "logits.svlv"))

    expected = expected_scores(reference, predicted, target, logits)
    expected["mixed_voxel_share"] = mixed_voxel_share(labels.data)
    expected.update(workload=workload, seed=seed, dims=list(dims), classes=CLASSES, raters=RATERS)
    with open(os.path.join(directory, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
    return expected


def read_payload(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        return parse_payload(fh.read())


def parse_payload(blob: bytes) -> np.ndarray:
    """Parse a `.svlv` container by its documented layout, without the library reader."""
    if blob[:4] != b"SVLV":
        raise ValueError("bad magic")
    _, dtype_code, rank = struct.unpack_from("<3I", blob, 4)
    naxes = rank if dtype_code == 0 else rank + 1
    axes = struct.unpack_from(f"<{naxes}I", blob, 16)
    dtype = "<u1" if dtype_code == 0 else "<f4"
    return np.frombuffer(blob, dtype=dtype, offset=16 + 4 * naxes).reshape(axes)


def _soft_error(path: str, reference, verdicts: dict):
    """None when the output matches `reference()` and is a simplex; else why not.

    `verdicts` maps the digest of each file already judged to its verdict, so
    a byte-identical repeat of a checked output is not compared again.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        digest = hashlib.sha1(blob).hexdigest()
        if digest not in verdicts:
            verdicts[digest] = _soft_verdict(parse_payload(blob), reference())
    except (OSError, ValueError, struct.error) as exc:
        return f"unreadable output: {exc}"
    return verdicts[digest]


def _soft_verdict(out: np.ndarray, expected: np.ndarray):
    if out.shape != expected.shape:
        return f"shape {out.shape}, expected {expected.shape}"
    diff = float(np.abs(out - expected).max())
    if not diff <= SOFT_TOL:
        return f"max |out - reference| = {diff:g}"
    sums = out.sum(axis=0, dtype=np.float64)
    if not (float(np.abs(sums - 1.0).max()) <= SOFT_TOL and out.min() >= 0.0 and out.max() <= 1.0):
        return "not a probability simplex"
    return None


def _close(got, want) -> bool:
    return got is not None and math.isclose(got, want, rel_tol=REPORT_RTOL, abs_tol=REPORT_ATOL)


def _evaluate_error(directory: str, exp: dict):
    try:
        with open(os.path.join(directory, "segmentation.json"), encoding="utf-8") as fh:
            seg = json.load(fh)
        with open(os.path.join(directory, "calibration.json"), encoding="utf-8") as fh:
            cal = json.load(fh)
        with open(os.path.join(directory, "reliability.csv"), encoding="utf-8") as fh:
            bins_csv = list(csv.DictReader(fh))
        with open(os.path.join(directory, "segmentation.csv"), encoding="utf-8") as fh:
            seg_csv = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    rows = {row["class"]: row for row in seg.get("classes", [])}
    for c in range(CLASSES):
        row = rows.get(str(c), {})
        if not _close(row.get("dsc"), exp["dsc"][c]):
            return f"class {c} dsc {row.get('dsc')}, expected {exp['dsc'][c]}"
        if not _close(row.get("sd"), exp["sd"][c]):
            return f"class {c} surface dice {row.get('sd')}, expected {exp['sd'][c]}"
    if not _close(cal.get("ece"), exp["ece"]):
        return f"ece {cal.get('ece')}, expected {exp['ece']}"
    if not _close(cal.get("tace"), exp["tace"]):
        return f"tace {cal.get('tace')}, expected {exp['tace']}"
    counts = [b.get("count") for b in cal.get("bins", [])]
    if counts != exp["bin_counts"] or [int(r["count"]) for r in bins_csv] != exp["bin_counts"]:
        return f"bin counts {counts}, expected {exp['bin_counts']}"
    if len(seg_csv) != CLASSES:
        return f"segmentation.csv has {len(seg_csv)} rows, expected {CLASSES}"
    return None


def _loss_error(path: str, exp: dict):
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    if report.get("voxels") != exp["voxels"] or not _close(report.get("total"), exp["ce"]):
        return f"loss {report}, expected total {exp['ce']} over {exp['voxels']} voxels"
    return None


def _kernel_error(path: str, rank: int = 3):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"unreadable kernel dump: {exc}"
    g = svls_taps_1d()
    raw = g
    for _ in range(rank - 1):
        raw = np.multiply.outer(raw, g)
    taps = raw / (raw.sum() - 1.0)
    taps[(1,) * rank] = 1.0
    got = np.asarray(doc.get("taps", []), dtype=np.float64)
    if got.shape != (taps.size,) or not np.allclose(got, taps.ravel(), rtol=1e-12, atol=0):
        return "kernel taps differ from the closed form"
    if not math.isclose(doc.get("total_weight", 0.0), 2.0, rel_tol=1e-12):
        return f"total weight {doc.get('total_weight')}, expected 2"
    return None


def check(directory: str, outputs: list[str]) -> dict:
    """Check output directories against the inputs in `directory`.

    Each output directory may hold any of kernel.json, svls.svlv, ls.svlv,
    msvls.svlv, eval/ and loss.json. The result maps "<dir>/<op>" of every
    output found to None, or to the reason it is wrong.
    """
    with open(os.path.join(directory, "expected.json"), encoding="utf-8") as fh:
        exp = json.load(fh)
    labels = read_payload(os.path.join(directory, "labels.svlv"))
    results = {}

    def judge(op, name, error_of):
        for out_dir in outputs:
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                results[f"{os.path.basename(out_dir)}/{op}"] = error_of(path)

    def soft(op, name, make_reference):
        reference, verdicts = functools.cache(make_reference), {}
        judge(op, name, lambda path: _soft_error(path, reference, verdicts))

    def msvls_reference():
        rater_dir = os.path.join(directory, "raters")
        names = sorted(n for n in os.listdir(rater_dir) if n.endswith(".svlv"))
        total = sum(svls_reference(read_payload(os.path.join(rater_dir, n)), CLASSES) for n in names)
        return total / len(names)

    def ls_reference():
        hits = labels[None, ...] == np.arange(CLASSES, dtype=np.uint8).reshape((-1,) + (1,) * labels.ndim)
        return LS_ALPHA / CLASSES + hits * (1.0 - LS_ALPHA)

    judge("setup", "kernel.json", _kernel_error)
    soft("encode_svls", "svls.svlv", lambda: svls_reference(labels, CLASSES))
    soft("encode_ls", "ls.svlv", ls_reference)
    soft("fuse_msvls", "msvls.svlv", msvls_reference)
    judge("evaluate", "eval", lambda path: _evaluate_error(path, exp))
    judge("loss", "loss.json", lambda path: _loss_error(path, exp))
    return results


def versions() -> dict:
    """Library versions and the stencil backend the program would use."""
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": have_numba,
        # the dual stencil backend is slated for removal; report what is there
        "engine_backend": engine.active_backend() if hasattr(engine, "active_backend") else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench inputs and output checks")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("check")
    p.add_argument("--set", dest="sets", nargs="+", action="append", required=True, metavar="DIR",
                   help="an inputs directory followed by the output directories made from it")
    args = parser.parse_args(argv)
    if args.command == "setup":
        dims = tuple(int(d) for d in args.dims.split(","))
        result = setup(args.workload, args.seed, dims, args.dir)
        result = {k: result[k] for k in ("mixed_voxel_share", "boundary_voxels", "boundary_share", "tace_kept")}
        result["versions"] = versions()
    else:
        result = {}
        for directory, *outputs in args.sets:
            result.update(check(directory, outputs))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
