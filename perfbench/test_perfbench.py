"""Self-tests of the benchmark harness; each runs on small volumes in seconds."""

from __future__ import annotations

import json
import os
import re
import struct
import subprocess
import sys

import pytest

import oracle
import run
from svls import cli

HERE = os.path.dirname(os.path.abspath(__file__))
SMALL = "10,12,12"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--dims", SMALL],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return detail, result


def test_metric_names_are_well_formed():
    spec = run.load_spec()
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in spec[section]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload, trace, section", [("sparse", 0, "end_to_end"), ("dense", 1, "per_layer")])
def test_small_run_checks_every_call_and_reports_every_metric(workload, trace, section):
    detail, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, detail["failed_calls"]
    assert detail["rounds"] >= run.MIN_ROUNDS
    assert result["attempted"] == (len(run.OPS) + 1) * detail["rounds"] + len(run.OPS) * (1 + trace)
    wanted = run.load_spec()[section]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert NAME.fullmatch(m["name"]) and metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)) and metric["value"] == metric["value"]
    assert detail["fingerprint"]["cores"] >= 1 and detail["fingerprint"]["numpy"]


def test_corrupted_output_counts_as_failed(tmp_path):
    inputs, out = str(tmp_path / "inputs"), str(tmp_path / "round0")
    oracle.setup("sparse", 5, (10, 12, 12), inputs)
    os.makedirs(out)
    calls = []
    for op in run.OPS:
        assert cli.main(run.op_argv(op, inputs, out)) == 0
        calls.append({"op": op, "dir": "round0", "rc": 0})
    assert run.failed_calls(calls, oracle.check(inputs, [out])) == []

    with open(os.path.join(out, "svls.svlv"), "r+b") as fh:
        fh.seek(-4, os.SEEK_END)
        value = struct.unpack("<f", fh.read(4))[0]
        fh.seek(-4, os.SEEK_END)
        fh.write(struct.pack("<f", value + 1e-3))
    with open(os.path.join(out, "loss.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    report["total"] *= 1.01
    with open(os.path.join(out, "loss.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    calls.append({"op": "encode_ls", "dir": "round1", "rc": 1})

    failed = run.failed_calls(calls, oracle.check(inputs, [out]))
    assert sorted(f["call"] for f in failed) == ["round0/encode_svls", "round0/loss", "round1/encode_ls"]


def test_small_child_after_large_reports_its_own_peak_rss():
    script = (
        "import json, sys; import run; env = run.child_env();"
        "big = run.launch([sys.executable, '-c', 'b = b\"x\" * (300 << 20)'], env);"
        "small = run.launch([sys.executable, '-c', 'pass'], env);"
        "print(json.dumps([big, small]))"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=HERE, capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": HERE})
    assert done.returncode == 0, done.stderr
    (_, big_rss, big_rc), (_, small_rss, small_rc) = json.loads(done.stdout)
    assert big_rc == small_rc == 0
    assert big_rss > 300
    assert small_rss < 100


def test_property_counts_repeat_for_a_fixed_seed(tmp_path):
    first = oracle.setup("sparse", 9, (10, 12, 12), str(tmp_path / "a"))
    again = oracle.setup("sparse", 9, (10, 12, 12), str(tmp_path / "b"))
    assert first == again
    for name in ("mixed_voxel_share", "boundary_voxels", "boundary_share", "tace_kept"):
        assert first[name] > 0
