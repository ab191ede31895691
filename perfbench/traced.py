"""Traced pass: workload subcommands run in-process, with a span around each layer call.

    python3 perfbench/traced.py --inputs DIR --out DIR [--ops evaluate ...]

Runs the given subcommands (all of them by default) through
``svls.cli.main`` in this process, in the order ``run.py`` runs them as
children, after wrapping the functions the CLI and its callees look up:
``tensor_io`` reads and writes, the smoothing entry points,
``engine.correlate_padded``, the ``SoftLabelVolume`` validation,
``argmax_labels``, the Dice and Surface Dice calls inside
``score_segmentation``, ``calibrate_report`` and the ``tace`` call inside
it, and the loss functions. A layer's time is its self time: span duration
minus the spans it encloses. The wrappers live here, so the program's
sources carry no tracing. Prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
import traceback
from collections import defaultdict

from svls import calibration, cli, engine, seg_metrics, tensor_io
from svls.volume import LabelVolume, SoftLabelVolume

import run


class Tracer:
    """Nested spans kept in memory, summed into self time per layer name."""

    def __init__(self):
        self.stack = []  # [start, time covered by child spans]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_s = 0.0
        self.missing = []  # hooks whose function the program no longer has

    def enter(self) -> None:
        self.stack.append([time.perf_counter(), 0.0])

    def exit(self, name: str) -> None:
        start, children = self.stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - children
        if self.stack:
            self.stack[-1][1] += duration
        else:
            self.top_s += duration


def _file_bytes(path) -> int:
    path = str(path)
    return sum(os.path.getsize(p) for p in (path, tensor_io.sidecar_path(path)) if os.path.exists(p))


def _read_name(volume) -> str:
    return "tensor_io.read_labels" if isinstance(volume, LabelVolume) else "tensor_io.read_probs"


def _count_read(tracer, args, result):
    tracer.counts["tensor_io.bytes_read"] += _file_bytes(args[0])


def _count_write(tracer, args, result):
    tracer.counts["tensor_io.bytes_written"] += _file_bytes(args[1])


def _count_report(tracer, args, result):
    tracer.counts["tensor_io.bytes_written"] += os.path.getsize(args[1])


def _count_stencil(tracer, args, result):
    taps = args[1]
    tracer.counts["engine.planes"] += 1
    tracer.counts["engine.tap_flops"] += 2 * taps.size * result.size  # one multiply and one add per tap
    # float64 grids: the padded plane read once and the plane written once
    tracer.counts["engine.bytes_computed"] += 8 * (args[0].size + result.size)


# (owner, attribute, span name or result -> name, counter)
HOOKS = (
    (tensor_io, "read_volume", _read_name, _count_read),
    (tensor_io, "read_logits", "tensor_io.read_logits", _count_read),
    (tensor_io, "write_volume", "tensor_io.write_volume", _count_write),
    (tensor_io, "write_report", "tensor_io.write_report", _count_report),
    (SoftLabelVolume, "__post_init__", "volume.soft_validate", None),
    (cli, "argmax_labels", "volume.argmax", None),
    (engine, "correlate_padded", "engine.correlate", _count_stencil),
    (cli, "svls_smooth", "smoothing.svls", None),
    (cli, "label_smooth", "smoothing.ls", None),
    (cli, "msvls_fuse", "smoothing.msvls", None),
    (seg_metrics, "dice", "seg_metrics.dice", None),
    (seg_metrics, "surface_dice", "seg_metrics.surface_dice", None),
    (cli, "calibrate_report", "calibration.reliability", None),
    (calibration, "tace", "calibration.tace", None),
    (cli, "softmax", "loss.softmax", None),
    (cli, "cross_entropy", "loss.cross_entropy", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every hooked function for the duration of the block."""
    saved = []

    def wrap(original, name, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.enter()
            result = None
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(name(result) if callable(name) else name)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return traced

    try:
        for owner, attr, name, counter in HOOKS:
            if not hasattr(owner, attr):  # a refactored program: its layer reads 0 and the run names it
                tracer.missing.append(f"{owner.__name__}.{attr}")
                continue
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original, name, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_pass(inputs: str, out: str, ops_to_run=run.OPS) -> dict:
    """Run workload subcommands in-process; report per-op span totals and layer times."""
    os.makedirs(out, exist_ok=True)
    tracer = Tracer()
    ops = {}
    with installed(tracer):
        for op in ops_to_run:
            tracer.top_s = 0.0
            start = time.perf_counter()
            try:
                rc = cli.main(run.op_argv(op, inputs, out))
            except Exception:  # report the op as failed and go on with the next one
                traceback.print_exc()
                rc = -1
            ops[op] = {"rc": rc, "wall_s": time.perf_counter() - start, "spans_s": tracer.top_s}
    layers = {f"{name}_s": value for name, value in tracer.self_s.items()}
    layers.update(tracer.counts)
    return {"ops": ops, "layers": layers, "missing_hooks": tracer.missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--ops", nargs="+", choices=run.OPS, default=run.OPS)
    args = parser.parse_args(argv)
    print(json.dumps(traced_pass(args.inputs, args.out, args.ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
