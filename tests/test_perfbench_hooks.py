"""The benchmark's traced pass still sees every layer it hooks.

`perfbench/traced.py` measures each layer by wrapping the functions named in
its `HOOKS` table, looked up as module attributes. A refactor that stops
calling one of them through that attribute leaves its layer at zero, which a
benchmark run shows only as a missing or zero metric. This runs the traced
pass on small inputs and fails instead.

The inputs the benchmark writes are pinned too: a change to them would make
a run incomparable with the runs before it.
"""

import hashlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import oracle  # noqa: E402
import traced  # noqa: E402

DIMS = (8, 12, 12)
# a read's span is named after the kind of volume it returned
READ_SPANS = {"tensor_io.read_labels", "tensor_io.read_probs"}
# sha256 over every .svlv that oracle.setup writes at DIMS, seed 0, in sorted relative-path order
INPUT_DIGESTS = {
    "sparse": "270467698340b74fe9d4aaece86005504941e4742fcd20189de13b6d084e11b1",
    "dense": "4d5645b1f6907ded2218056ab69180f1d916ed4b4c7d2e63c77a4f4752bbf991",
}


@pytest.mark.parametrize("workload", ["sparse", "dense"])
def test_traced_pass_sees_every_hooked_layer(tmp_path, workload):
    inputs = tmp_path / "inputs"
    oracle.setup(workload, 0, DIMS, str(inputs))
    result = traced.traced_pass(str(inputs), str(tmp_path / "out"))
    assert result["missing_hooks"] == []
    assert {op: r["rc"] for op, r in result["ops"].items()} == dict.fromkeys(result["ops"], 0)
    spans = {name for _, _, name, _ in traced.HOOKS if isinstance(name, str)} | READ_SPANS
    idle = sorted(name for name in spans if not result["layers"].get(f"{name}_s", 0.0) > 0.0)
    assert idle == [], f"hooked layers with no self time: {idle}"


@pytest.mark.parametrize("workload", ["sparse", "dense"])
def test_benchmark_inputs_are_pinned(tmp_path, workload):
    oracle.setup(workload, 0, DIMS, str(tmp_path))
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.svlv"))
    assert len(files) == 16 and any(f.startswith("warm/") for f in files)
    digest = hashlib.sha256()
    for name in files:
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == INPUT_DIGESTS[workload]
