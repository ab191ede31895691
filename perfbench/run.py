#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the svls CLI.

    python3 perfbench/run.py --workload {sparse,dense} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; it builds nothing and runs the CLI from
``src/`` as ``python3 -m svls.cli``. One run:

1. Set-up, untimed (``oracle.py setup``): seeded 96x144x144 input volumes
   with 4 classes, plus the expected results of every subcommand.
2. Warm-up, untimed: one child runs every subcommand in-process on a small
   copy of the workload, which compiles the bytecode and pulls the program
   and its libraries into the page cache.
3. Closed loop, one client: each round runs ``svls kernel --rank 3`` (the
   ``setup_s`` probe: interpreter start plus ``import svls.cli``, no volume
   work), encode svls, encode ls, fuse msvls, evaluate and loss, each as a
   child process started only after the previous one exited. Rounds repeat
   until ``--seconds`` of them have run, and at least ``MIN_ROUNDS`` times;
   each metric is the median over rounds.
4. Checks, untimed (``oracle.py check``): every output of every call.
5. With ``--trace 1``, after the untraced rounds: the traced pass
   (``traced.py``, one process per subcommand, spans recorded in-process),
   whose spans give the per-layer metrics, summed over the subcommands. A
   subcommand's ``cli.<op>_residual_s`` is its untraced median minus
   ``setup_s`` minus its spans: argument parsing, report formatting and
   tracing overhead.

This process imports no numpy and holds no volume data. Each child's peak
RSS comes from ``os.wait4``; Linux starts a child's high-water mark at its
parent's, so a heavy launcher would hide what the subcommands use.

The last line of stdout is the result JSON; the line before it holds the
machine fingerprint, the workload's property counts and every sample.
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("sparse", "dense")
# 3/4 of each extent of the 128x192x192 reference volume: at this size every
# subcommand, at least MIN_ROUNDS rounds and the checks fit in under a minute
# a run on 2 cores, which keeps all the runs of a comparison within budget.
DIMS = "96,144,144"
MIN_ROUNDS = 3

LS_ALPHA = 0.1
# subcommands of one round, in the order they run
OPS = ("encode_svls", "encode_ls", "fuse_msvls", "evaluate", "loss")
PROPERTIES = {
    "smoothing.mixed_voxel_share": "mixed_voxel_share",
    "seg_metrics.boundary_voxels": "boundary_voxels",
    "seg_metrics.boundary_share": "boundary_share",
    "calibration.tace_kept": "tace_kept",
}


def op_argv(op: str, inputs: str, out: str) -> list[str]:
    """The svls arguments of one operation reading `inputs` and writing under `out`."""
    j = os.path.join
    return {
        "setup": ["kernel", "--rank", "3"],
        "encode_svls": ["encode", "--in", j(inputs, "labels.svlv"), "--method", "svls", "--out", j(out, "svls.svlv")],
        "encode_ls": ["encode", "--in", j(inputs, "labels.svlv"), "--method", "ls", "--alpha", str(LS_ALPHA),
                      "--out", j(out, "ls.svlv")],
        "fuse_msvls": ["fuse", "--in", j(inputs, "raters"), "--method", "msvls", "--out", j(out, "msvls.svlv")],
        "evaluate": ["evaluate", "--ref", j(inputs, "ref.svlv"), "--pred", j(inputs, "pred.svlv"),
                     "--out", j(out, "eval")],
        "loss": ["loss", "--target", j(inputs, "target.svlv"), "--pred", j(inputs, "logits.svlv"),
                 "--pred-kind", "logits", "--out", j(out, "loss.json")],
    }[op]


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The environment of every child: svls from src/, native thread pools capped at the cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = str(usable_cores())
    return env


def launch(argv: list[str], env: dict, stdout_path: str = os.devnull) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS in MiB, exit code)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def helper(script: str, args: list[str], env: dict) -> dict:
    """Run a benchmark helper in its own process and parse the JSON line it prints."""
    done = subprocess.run([sys.executable, os.path.join(HERE, script)] + args, env=env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{script} {args[0]} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Loop:
    """Closed-loop client: one CLI child at a time, every call recorded for the checks."""

    def __init__(self, env: dict, work: str):
        self.env = env
        self.work = work
        self.calls = []  # dicts: op, dir, phase, wall, rss, rc

    def call(self, op: str, inputs: str, out_name: str) -> dict:
        out = os.path.join(self.work, out_name)
        os.makedirs(out, exist_ok=True)
        argv = [sys.executable, "-m", "svls.cli"] + op_argv(op, inputs, out)
        stdout = os.path.join(out, "kernel.json") if op == "setup" else os.devnull
        wall, rss, rc = launch(argv, self.env, stdout)
        record = {"op": op, "dir": out_name, "phase": "round", "wall": wall, "rss": rss, "rc": rc}
        self.calls.append(record)
        return record

    def record_in_process(self, report: dict, phase: str) -> None:
        """Record the subcommands a traced.py child ran in-process, named after its phase."""
        for op, info in report["ops"].items():
            self.calls.append({"op": op, "dir": phase, "phase": phase, "rc": info["rc"]})

    def round(self, inputs: str, out_name: str) -> float:
        """A set-up probe, then every subcommand; returns the seconds it took."""
        return sum(self.call(op, inputs, out_name)["wall"] for op in ("setup",) + OPS)

    def samples(self, op: str, key: str) -> list[float]:
        """The wall times or peak RSS of an operation over the timed rounds."""
        return [c[key] for c in self.calls if c["op"] == op and c["phase"] == "round"]


def failed_calls(calls: list[dict], checks: dict) -> list[dict]:
    """Every call that exited non-zero, or whose output the checks found wrong or missing."""
    failed = []
    for c in calls:
        key = f"{c['dir']}/{c['op']}"
        error = f"exit code {c['rc']}" if c["rc"] != 0 else checks.get(key, "no output")
        if error is not None:
            failed.append({"call": key, "error": error})
    return failed


def fingerprint(versions: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {"cores": usable_cores(), "cpu": model, "python": platform.python_version(),
            **versions, "git_commit": commit}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool, dims: str = DIMS) -> tuple[dict, dict]:
    """One benchmark run; returns (result, detail)."""
    if not os.path.isfile(os.path.join(SRC, "svls", "cli.py")):
        raise RuntimeError(f"no svls sources under {SRC}; run from the root of a checkout")
    spec = load_spec()
    env = child_env()
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    phases, mark = {}, time.perf_counter()

    def lap(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    try:
        inputs = os.path.join(work, "inputs")
        setup = helper("oracle.py", ["setup", "--workload", workload, "--seed", str(seed),
                                     "--dims", dims, "--dir", inputs], env)
        lap("setup")

        loop = Loop(env, work)
        warm = helper("traced.py", ["--inputs", os.path.join(inputs, "warm"), "--out", os.path.join(work, "warm")],
                      env)
        loop.record_in_process(warm, "warm")
        lap("warm")
        timed, rounds = 0.0, 0
        while rounds < MIN_ROUNDS or timed < seconds:
            timed += loop.round(inputs, f"round{rounds}")
            rounds += 1
        lap("rounds")
        if trace:
            # one fresh process per subcommand, as for the untraced children
            traced = {"ops": {}, "layers": {}, "missing_hooks": []}
            for op in OPS:
                part = helper("traced.py", ["--inputs", inputs, "--out", os.path.join(work, "traced"),
                                            "--ops", op], env)
                traced["ops"].update(part["ops"])
                for name, value in part["layers"].items():
                    traced["layers"][name] = traced["layers"].get(name, 0) + value
                traced["missing_hooks"] = part["missing_hooks"]
            loop.record_in_process(traced, "traced")
            lap("traced")

        timed_dirs = sorted({c["dir"] for c in loop.calls if c["phase"] != "warm"})
        checks = helper("oracle.py", ["check", "--set", inputs] + [os.path.join(work, d) for d in timed_dirs]
                        + ["--set", os.path.join(inputs, "warm"), os.path.join(work, "warm")], env)
        failed = failed_calls(loop.calls, checks)
        lap("check")

        setup_s = statistics.median(loop.samples("setup", "wall"))
        if trace:
            values = dict(traced["layers"])
            for op in OPS:
                untraced = statistics.median(loop.samples(op, "wall"))
                values[f"cli.{op}_residual_s"] = untraced - setup_s - traced["ops"][op]["spans_s"]
            values.update({name: setup[key] for name, key in PROPERTIES.items()})
            wanted = spec["per_layer"]
        else:
            values = {"setup_s": setup_s,
                      "setup_rss_mib": statistics.median(loop.samples("setup", "rss"))}
            for op in OPS:
                values[f"{op}_s"] = statistics.median(loop.samples(op, "wall"))
                values[f"{op}_rss_mib"] = statistics.median(loop.samples(op, "rss"))
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
        result = {"correct": not failed, "attempted": len(loop.calls), "failed": len(failed), "metrics": metrics}
        detail = {
            "workload": workload,
            "seed": seed,
            "dims": dims,
            "fingerprint": fingerprint(setup.pop("versions")),
            "properties": setup,
            "rounds": rounds,
            "phase_s": phases,
            "samples": {op: {"wall_s": loop.samples(op, "wall"), "rss_mib": loop.samples(op, "rss")}
                        for op in ("setup",) + OPS},
            "failed_calls": failed,
            "missing_hooks": traced["missing_hooks"] if trace else [],
        }
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed closed-loop seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dims", default=DIMS, help=f"volume extents (default {DIMS})")
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.dims)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
