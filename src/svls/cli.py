"""Command-line frontend: one executable, one subcommand per pipeline stage.

Every subcommand accepts --config PATH: a JSON object whose keys are flag
names, with `-` or `_` (`sd_tolerance` is --sd-tolerance). Its entries are
read as command-line tokens ahead of the real ones, so one parser checks
both and the command line wins. An on/off flag takes a JSON boolean, `fuse
--in` a non-empty list of strings, any other flag a string or number.
Errors: "config PATH has keys matching no CMD flag: KEYS" (help and config
included), "config PATH: --FLAG takes KIND, got VALUE", and for a value its
flag rejects, argparse's own message ("argument --sigma: invalid float
value: 'abc'"). Required flags come from the command line only, and flags
are never abbreviated (`--sig 2` is an error). Any input path may be a
directory, which batches over the contained `.svlv` volumes and mirrors
outputs by filename.

Exit codes: 0 success, 1 validation error, 2 I/O error. Errors also emit one
machine-readable JSON line on stderr, `{"error": KIND, "message": TEXT}` with
KIND `validation` or `io`; any other exception is a fault of the program and
exits 1 with KIND `internal` and TEXT `<Type>: <text>`, never a traceback
(SVLS_LOG=debug logs it).
Each output is one commit: its files (a volume's payload and sidecar, or one
report) are written to temp names and then renamed into place, so a failed
write leaves no file of that output, nor any directory it made for it. A
report is CSV when its path ends in `.csv` and JSON otherwise. Every
subcommand makes an output's directory, and any missing parent of it, when
it writes the first file into it, so a run that fails before its first write
leaves no directory either. `evaluate`
checks its flags, and the JSON shape of a --region-merge map, before it
reads anything. Each input is opened once (`tensor_io.open_volume`),
checked once, and read only through that handle, which also says whether
it holds labels or f32 values (`VolumeFile.kind`). Every input's header,
sidecar and kind (a logit volume is any f32 file), the grids of an
`evaluate` or `loss` pair or of `fuse`'s raters, `encode`'s --alpha, the
--sigma of `encode` and `fuse` at their inputs' rank, and the class ids and
names of `evaluate`'s region map against the headers' class count are
checked before any payload is read, with one message for each kind fault:
"PATH holds labels; loss --pred needs a logit volume". `loss` then reads and
scores its pair one slab of rows at a time. `evaluate` checks --pred one
slab of rows at a time, then reads it one class plane at a time. An input
read more than once (each `loss` operand, `evaluate --pred`, `encode --in`
and every `fuse --in` rater) that changes between two reads is an I/O error:
"PATH changed while it was being read". So is a read of any input that finds
fewer bytes than the size checked at open: the file changed under it.
`encode` and `fuse` build their soft volume one class plane at a time, each
plane one slab of rows at a time, and `tensor_io.write_volume` writes each
slab as soon as it is rounded to float32; the staged payload is checked one
slab of rows at a time before it is renamed into place, so no whole class
plane of the soft volume is held and a bad plane leaves no output. Each
class's votes are counted from one input at a time, read whole through its
open file (`_LabelFile`) as they are counted and freed before the next is
read, so no label volume is held beyond one read, and `fuse`'s peak does not
grow with its rater count. Each input stays open until the output is
committed.

The SVLS_LOG environment variable (error|warn|info|debug) controls log
verbosity; resolved run parameters are logged at info level.

Every subcommand runs on numpy alone: the SVLS stencil and Surface Dice are
built from numpy slices.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import logging
import math
import os
import sys

from . import tensor_io
from .calibration import calibrate_report, check_num_bins, check_tace_params
from .engine import SvlsKernel
from .loss import LossReport, cross_entropy, softmax
from .phantom import KINDS, PhantomSpec, generate_labels, generate_miscalibrated, generate_raters
from .seg_metrics import check_regions, check_tolerance, score_segmentation
from .smoothing import RaterSet, check_alpha, label_smooth, moh_fuse, msvls_fuse, one_hot_encode, svls_smooth
from .volume import LabelVolume, LogitVolume, SoftLabelVolume, argmax_labels, check_same_grid, slabs

log = logging.getLogger("svls")

VOLUME_SUFFIX = ".svlv"

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


class CliError(ValueError):
    """Bad flags or flag combinations (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _dims(text: str) -> tuple[int, ...]:
    """A --dims value, X,Y or X,Y,Z; PhantomSpec checks the extents."""
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers X,Y[,Z], got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="svls", description="Soft-label generation and calibration evaluation toolkit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    parser.commands = sub.choices  # subcommand name -> its parser

    def common(p):
        p.add_argument("--config", metavar="PATH",
                       help="JSON config whose keys mirror the flags; flags win (default: none)")

    p = sub.add_parser("kernel", help="dump the smoothing stencil taps", allow_abbrev=False)
    p.add_argument("--rank", type=int, choices=(2, 3), required=True, help="stencil rank (no default)")
    p.add_argument("--sigma", type=float, default=1.0, help="Gaussian bandwidth in voxels (default: %(default)s)")
    p.add_argument("--format", choices=("json", "text"), default="json", help="output format (default: %(default)s)")
    common(p)

    p = sub.add_parser("encode", help="turn a label volume into soft labels", allow_abbrev=False)
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH",
                   help="label volume or directory of volumes (no default)")
    p.add_argument("--method", choices=("onehot", "ls", "svls"), required=True,
                   help="soft-label method (no default)")
    p.add_argument("--alpha", type=float, help="smoothing weight in [0,1]; required for ls, no default")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="Gaussian bandwidth in voxels, svls only (default: %(default)s)")
    p.add_argument("--out", required=True, metavar="PATH", help="output volume or directory (no default)")
    common(p)

    p = sub.add_parser("fuse", help="fuse multiple rater annotations into soft labels", allow_abbrev=False)
    p.add_argument("--in", dest="in_paths", required=True, nargs="+", metavar="PATH",
                   help="rater label volumes; a directory expands to its volumes (no default)")
    p.add_argument("--method", choices=("msvls", "moh"), required=True, help="fusion method (no default)")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="Gaussian bandwidth in voxels, msvls only (default: %(default)s)")
    p.add_argument("--out", required=True, metavar="PATH", help="output volume (no default)")
    common(p)

    p = sub.add_parser("loss", help="cross-entropy of predictions against a soft target", allow_abbrev=False)
    p.add_argument("--target", required=True, metavar="PATH", help="target probability volume (no default)")
    p.add_argument("--pred", required=True, metavar="PATH", help="predicted volume (no default)")
    p.add_argument("--pred-kind", choices=("probs", "logits"), default="probs",
                   help="how to interpret the prediction payload (default: %(default)s)")
    p.add_argument("--out", required=True, metavar="PATH", help="JSON report path (no default)")
    common(p)

    p = sub.add_parser("evaluate", help="segmentation and calibration metrics", allow_abbrev=False)
    p.add_argument("--ref", required=True, metavar="PATH", help="reference label volume (no default)")
    p.add_argument("--pred", required=True, metavar="PATH", help="predicted probability volume (no default)")
    p.add_argument("--sd-tolerance", type=float, default=2.0, metavar="MM",
                   help="surface DSC tolerance in mm (default: %(default)s)")
    p.add_argument("--ece-bins", type=int, default=15, help="equal-width confidence bins (default: %(default)s)")
    # a string default goes through type=, and --help shows it as written
    p.add_argument("--tace-threshold", type=float, default="1e-3",
                   help="per-class probability floor (default: %(default)s)")
    p.add_argument("--tace-ranges", type=int, default=15,
                   help="adaptive equal-count ranges per class (default: %(default)s)")
    p.add_argument("--foreground-only", action="store_true",
                   help="restrict reliability/ECE to voxels with nonzero reference (default: off)")
    p.add_argument("--region-merge", metavar="MAP",
                   help="JSON file mapping region name -> class id list; adds merged-mask rows (default: none)")
    p.add_argument("--composite", action="store_true",
                   help="add a 'comp' row: unweighted mean over non-background classes (default: off)")
    p.add_argument("--out", required=True, metavar="DIR", help="output directory (no default)")
    common(p)

    p = sub.add_parser("phantom", help="generate synthetic label volumes", allow_abbrev=False)
    p.add_argument("--kind", choices=KINDS, required=True, help="phantom kind (no default)")
    p.add_argument("--dims", type=_dims, required=True, metavar="X,Y[,Z]", help="volume extents (no default)")
    p.add_argument("--classes", type=int, default=2, help="class count (default: %(default)s)")
    p.add_argument("--raters", type=int, metavar="D",
                   help="emit D jittered rater volumes into the output directory (default: none)")
    p.add_argument("--jitter", type=int, default=0, metavar="J",
                   help="max per-rater translation in voxels (default: %(default)s)")
    p.add_argument("--strength", type=float, default=0.0,
                   help="miscalibration strength, miscalibrated_pred without --raters (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default: %(default)s)")
    p.add_argument("--out", required=True, metavar="PATH", help="output path (no default)")
    common(p)

    return parser


def _read_object(path: str, what: str) -> dict:
    """Read a JSON file that must hold one object; `what` names the file in errors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise CliError(f"unparseable {what} {path}: {exc}")
    if not isinstance(doc, dict):
        raise CliError(f"{what} {path} must hold a JSON object")
    return doc


def _config_tokens(path: str, command: str, actions: dict) -> list[str]:
    """The command-line tokens a --config file stands for, by the rules of
    the module docstring; `--flag=value` keeps a value such as `-1` a value."""
    config = _read_object(path, "config")
    flags = {key: "--" + key.replace("_", "-") for key in config}
    unknown = sorted(key for key, flag in flags.items() if flag not in actions or flag in ("--help", "--config"))
    if unknown:
        raise CliError(f"config {path} has keys matching no {command} flag: {', '.join(unknown)}")
    tokens = []
    for key, value in config.items():
        flag, nargs = flags[key], actions[flags[key]].nargs
        if nargs == 0 and type(value) is bool:
            tokens += [flag] if value else []
        elif nargs == "+" and isinstance(value, list) and value and all(isinstance(v, str) for v in value):
            tokens += [flag, *value]
        elif nargs is None and type(value) in (str, int, float):
            tokens.append(f"{flag}={value}")
        else:
            kind = {0: "true or false", "+": "a non-empty list of strings"}.get(nargs, "a string or number")
            raise CliError(f"config {path}: {flag} takes {kind}, got {json.dumps(value)}")
    return tokens


def _parse(parser: _Parser, argv: list[str]) -> tuple[str, dict]:
    """The subcommand and its plan. argv alone is parsed first, so required
    flags come from it; --config's tokens then go ahead of argv's flags, whose
    values win as argparse keeps a flag's last value."""
    ns = parser.parse_args(argv)
    if not ns.command:
        raise CliError("a subcommand is required (see svls --help)")
    actions = parser.commands[ns.command]._option_string_actions
    if ns.config is not None:
        at = argv.index(ns.command) + 1
        argv = [*argv[:at], *_config_tokens(ns.config, ns.command, actions), *argv[at:]]
        ns = parser.parse_args(argv)
    plan = vars(ns)
    command = plan.pop("command")
    del plan["config"]
    # given means written: flags are never abbreviated, so a flag is a token or a token's part before `=`
    given = {actions[flag].dest for flag in (t.split("=", 1)[0] for t in argv) if flag in actions}
    _reject_exclusive_flags(command, given, plan)
    log.info("run plan %s: %s", command, json.dumps(plan, sort_keys=True, default=str))
    return command, plan


def _reject_exclusive_flags(command: str, given: set, plan: dict) -> None:
    """Flags given on the command line or in the config that contradict the
    chosen method fail at parse time."""
    method = plan.get("method")
    if command == "encode":
        if "alpha" in given and method != "ls":
            raise CliError(f"--alpha only applies to method ls, not {method}")
        if "sigma" in given and method != "svls":
            raise CliError(f"--sigma only applies to method svls, not {method}")
    if command == "fuse" and "sigma" in given and method != "msvls":
        raise CliError(f"--sigma only applies to method msvls, not {method}")
    if command == "phantom":
        if "strength" in given and (plan.get("kind") != "miscalibrated_pred" or plan.get("raters") is not None):
            raise CliError("--strength only applies to kind miscalibrated_pred without --raters")
        if "jitter" in given and plan.get("raters") is None:
            raise CliError("--jitter requires --raters")


def _volume_files(directory: str) -> list[str]:
    names = sorted(n for n in os.listdir(directory) if n.endswith(VOLUME_SUFFIX))
    if not names:
        raise CliError(f"directory {directory} contains no {VOLUME_SUFFIX} volumes")
    return [os.path.join(directory, n) for n in names]


def _iter_in_out(in_path: str, out_path: str, suffix: str, partner: str | None = None):
    """Yield (volume, partner, output path) for each volume `in_path` names.

    A volume's partner is the same-named file of a directory `partner`, or
    `partner` itself. A file yields `out_path`; a directory yields each of
    its volumes with `<out_path>/<name><suffix>`, `name` less its `.svlv`.
    """
    def mate(src):
        if partner is not None and os.path.isdir(partner):
            return os.path.join(partner, os.path.basename(src))
        return partner

    if not os.path.isdir(in_path):
        yield in_path, mate(in_path), out_path
        return
    for src in _volume_files(in_path):
        name = os.path.basename(src).removesuffix(VOLUME_SUFFIX)
        yield src, mate(src), os.path.join(out_path, name + suffix)


def _open(inputs: contextlib.ExitStack, path: str, kind: type, flag: str) -> tensor_io.VolumeFile:
    """Open the `kind` volume (LabelVolume, SoftLabelVolume or LogitVolume)
    given to `flag` until `inputs` closes, checking its header, sidecar and
    kind and reading none of its payload."""
    volume = inputs.enter_context(tensor_io.open_volume(path))
    labels = volume.kind is LabelVolume
    if labels != (kind is LabelVolume):
        held, wanted = ("labels", kind._KIND) if labels else ("probabilities", "label")
        raise CliError(f"{path} holds {held}; {flag} needs a {wanted} volume")
    return volume


def run_kernel(plan: dict) -> int:
    k = SvlsKernel(plan["rank"], plan["sigma"])
    taps = k.taps
    if plan["format"] == "json":
        doc = {
            "rank": k.rank,
            "sigma": k.sigma,
            "taps": taps.ravel().tolist(),
            "center": float(k.weights[0]),
            "total_weight": k.total_weight,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"rank {k.rank} sigma {k.sigma} total_weight {k.total_weight!r}")
        for block in taps.reshape(-1, 3, 3):
            for row in block:
                print("  " + " ".join(f"{v:.9f}" for v in row))
            print()
    return 0


class _LabelFile:
    """An open label file as `smoothing` takes a label volume: the grid its
    checked header declares, and as `data` its labels, read whole through
    `tensor_io.read_volume` each time they are asked for. The class-plane
    loop asks once per class, so no labels outlive one class's vote count,
    and every read checks the labels and that the file is unchanged."""

    def __init__(self, volume: tensor_io.VolumeFile):
        self._volume = volume
        self.dims, self.num_classes, self.spacing = volume.dims, volume.num_classes, volume.spacing
        self.rank = len(volume.dims)

    @property
    def data(self):
        return tensor_io.read_volume(self._volume).data


def run_encode(plan: dict) -> int:
    method = plan["method"]
    if method == "ls":
        if plan["alpha"] is None:
            raise CliError("--alpha is required for method ls")
        check_alpha(plan["alpha"])
    for src, _, dst in _iter_in_out(plan["in_path"], plan["out"], VOLUME_SUFFIX):
        provenance = {"method": method, "source": os.path.basename(src)}
        with contextlib.ExitStack() as inputs:
            labels = _LabelFile(_open(inputs, src, LabelVolume, "encode --in"))
            if method == "onehot":
                soft = one_hot_encode(labels, streamed=True)
            elif method == "ls":
                soft = label_smooth(labels, plan["alpha"], streamed=True)
                provenance["alpha"] = plan["alpha"]
            else:
                soft = svls_smooth(labels, plan["sigma"], streamed=True)  # its sigma rule, at this volume's rank
                provenance["sigma"] = plan["sigma"]
            tensor_io.write_volume(soft, dst, provenance=provenance)
        log.info("encoded %s -> %s", src, dst)
    return 0


def run_fuse(plan: dict) -> int:
    """Fuse the raters that --in names into one soft volume. Each rater's
    header, then their grids and --sigma are checked before any payload is
    read. Each class's votes are then counted from one rater at a time, read
    whole through its open file, so one rater's labels are held whatever
    the rater count; the files stay open until the output is committed."""
    paths = []
    for p in plan["in_paths"]:
        paths.extend(_volume_files(p) if os.path.isdir(p) else [p])
    provenance = {
        "method": plan["method"],
        "rater_files": [os.path.basename(p) for p in paths],
    }
    with contextlib.ExitStack() as inputs:
        raters = RaterSet(tuple(_LabelFile(_open(inputs, p, LabelVolume, "fuse --in")) for p in paths))
        if plan["method"] == "msvls":
            fused = msvls_fuse(raters, plan["sigma"], streamed=True)  # its sigma rule, at the raters' rank
            provenance["sigma"] = plan["sigma"]
        else:
            fused = moh_fuse(raters, streamed=True)
        tensor_io.write_volume(fused, plan["out"], provenance=provenance)
    return 0


def streamed_loss(target_path: str, pred_path: str, pred_kind: str) -> LossReport:
    """Cross-entropy of the probability or logit prediction in `pred_path`
    against the target in `target_path`, with no whole operand held.

    Each file is opened once and checked before any payload is read:
    --pred's header, sidecar and kind, then --target's, then that the two
    declare one grid. Then each `volume.slabs` slab of rows is read from
    both open files, the prediction first, each checked by its container;
    logits go through `softmax`, and the pair through `cross_entropy`. Each
    is one slab of the loss's slab rule, so the `math.fsum` of their
    `loss_sum`s is the library's, bit for bit. A file that changes between
    two slab reads is an OSError.
    """
    logits = pred_kind == "logits"
    with contextlib.ExitStack() as inputs:
        predicted = _open(inputs, pred_path, LogitVolume if logits else SoftLabelVolume, "loss --pred")
        target = _open(inputs, target_path, SoftLabelVolume, "loss --target")
        check_same_grid(target, predicted)
        total = math.fsum(_slab_loss(target, predicted, logits, part) for part in slabs(target.dims))
    return LossReport(total, math.prod(target.dims))


def _slab_loss(target: tensor_io.VolumeFile, predicted: tensor_io.VolumeFile, logits: bool, part: slice) -> float:
    """The summed loss of rows `part`, read from both files, the prediction
    first. The slabs are freed on return, before the next slab's are read."""
    scores = softmax(tensor_io.read_logits(predicted, part)) if logits else tensor_io.read_volume(predicted, part)
    return cross_entropy(tensor_io.read_volume(target, part), scores).loss_sum


# glibc mallopt parameters, and the largest mmap threshold it takes on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _keep_freed_heap() -> None:
    """Make glibc's malloc keep the memory that a slab or a class plane
    frees, so the next one reuses those pages; `main` calls it before every
    subcommand. By default malloc raises its mmap threshold to the largest
    block freed so far and hands the free top of the heap back to the OS
    past twice that; whether one slab's temporaries cross that line depends
    on where earlier objects sit in the heap, so, by the length of its paths
    alone, a loss run either reuses its pages or faults about 1 MiB in again
    for every slab, and an evaluate run mapped each fresh class plane anew,
    as encode and fuse did each class's vote count and shell sums (15.9 and
    16.9 thousand page faults for encode svls and fuse msvls at
    96x144x144x4, 8.2 and 9.1 thousand with this).
    This pins both thresholds where that rule tops out. Off Linux, it does
    nothing (musl's mallopt is a no-op)."""
    if sys.platform == "linux":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def run_loss(plan: dict) -> int:
    for src, target_path, dst in _iter_in_out(plan["pred"], plan["out"], ".json", partner=plan["target"]):
        report = streamed_loss(target_path, src, plan["pred_kind"])
        if dst.endswith(VOLUME_SUFFIX):  # a single --out x.svlv is written as x.json
            dst = dst.removesuffix(VOLUME_SUFFIX) + ".json"
        tensor_io.write_report(report, dst)
        log.info("loss %s vs %s: %.6f nats", src, target_path, report.total)
    return 0


def _load_regions(path: str) -> dict:
    """Read a --region-merge file: a JSON object mapping names to lists of class ids."""
    regions = _read_object(path, "region map")
    for name, ids in regions.items():
        if not (isinstance(ids, list) and ids and all(type(i) is int for i in ids)):
            raise CliError(f"region {name!r} in {path} must map to a non-empty list of integer class ids")
    return regions


def run_evaluate(plan: dict) -> int:
    check_tolerance(plan["sd_tolerance"])
    check_num_bins(plan["ece_bins"])
    check_tace_params(plan["tace_threshold"], plan["tace_ranges"])
    regions = _load_regions(plan["region_merge"]) if plan["region_merge"] else {}
    for src, ref_path, out_dir in _iter_in_out(plan["pred"], plan["out"], "", partner=plan["ref"]):
        with contextlib.ExitStack() as inputs:
            ref = _open(inputs, ref_path, LabelVolume, "evaluate --ref")
            predicted = _open(inputs, src, SoftLabelVolume, "evaluate --pred")
            check_same_grid(ref, predicted)
            check_regions(regions, ref.num_classes, plan["composite"])
            reference = tensor_io.read_volume(ref)
            predicted.check_slabs(SoftLabelVolume)
            scores = score_segmentation(reference, argmax_labels(predicted), plan["sd_tolerance"],
                                        regions, plan["composite"])
            calib = calibrate_report(
                reference,
                predicted,
                num_bins=plan["ece_bins"],
                tace_threshold=plan["tace_threshold"],
                tace_ranges=plan["tace_ranges"],
                foreground_only=plan["foreground_only"],
            )
        tensor_io.write_report(calib, os.path.join(out_dir, "calibration.json"))
        tensor_io.write_report(calib, os.path.join(out_dir, "reliability.csv"))
        tensor_io.write_report(scores, os.path.join(out_dir, "segmentation.json"))
        tensor_io.write_report(scores, os.path.join(out_dir, "segmentation.csv"))
        log.info("evaluated %s vs %s -> %s", src, ref_path, out_dir)
    return 0


def run_phantom(plan: dict) -> int:
    spec = PhantomSpec(
        kind=plan["kind"],
        dims=plan["dims"],
        num_classes=plan["classes"],
        seed=plan["seed"],
    )
    base_provenance = {"method": "phantom", "kind": spec.kind, "seed": spec.seed}
    if plan["raters"] is not None:
        for j, rater in enumerate(generate_raters(spec, plan["raters"], plan["jitter"])):  # each written as made
            path = os.path.join(plan["out"], f"rater{j:02d}{VOLUME_SUFFIX}")
            tensor_io.write_volume(rater, path, provenance={**base_provenance, "rater": j, "jitter": plan["jitter"]})
        return 0
    if spec.kind == "miscalibrated_pred":
        labels = generate_labels(spec)
        predicted = generate_miscalibrated(labels, plan["strength"], seed=spec.seed)
        tensor_io.write_volume(labels, os.path.join(plan["out"], "labels" + VOLUME_SUFFIX),
                               provenance=base_provenance)
        tensor_io.write_volume(predicted, os.path.join(plan["out"], "pred" + VOLUME_SUFFIX),
                               provenance={**base_provenance, "strength": plan["strength"]})
        return 0
    tensor_io.write_volume(generate_labels(spec), plan["out"], provenance=base_provenance)
    return 0


_HANDLERS = {
    "kernel": run_kernel,
    "encode": run_encode,
    "fuse": run_fuse,
    "loss": run_loss,
    "evaluate": run_evaluate,
    "phantom": run_phantom,
}


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("SVLS_LOG", "warn").strip().lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)
    parser = build_parser()
    try:
        command, plan = _parse(parser, sys.argv[1:] if argv is None else list(argv))
        _keep_freed_heap()
        return _HANDLERS[command](plan)
    except ValueError as exc:  # CliError and tensor_io.VolumeFormatError included
        _emit_error("validation", str(exc))
        return 1
    except MemoryError as exc:  # a volume too large to allocate: the request is at fault
        _emit_error("validation", f"MemoryError: {exc}")
        return 1
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2
    except Exception as exc:
        log.debug("unexpected exception", exc_info=True)
        _emit_error("internal", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
