"""The benchmark's traced pass still sees every layer it hooks.

`perfbench/traced.py` measures each layer by wrapping the functions named in
its `HOOKS` table, looked up as module attributes. A refactor that stops
calling one of them through that attribute leaves its layer at zero, which a
benchmark run shows only as a missing or zero metric. This runs the traced
pass on small inputs and fails instead.
"""

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
