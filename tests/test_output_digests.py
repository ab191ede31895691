"""Every subcommand's output bytes, pinned by sha256.

The acceptance oracles allow one ulp against independent algorithms, and the
golden format tests pin sidecar and report layouts, so neither sees a change
in the last bit of an output. This runs every subcommand through `cli.main`
on inputs written as the benchmark writes them (`perfbench/oracle.py`) and
holds one digest per output file: the benchmark's own subcommands
(`perfbench/run.py::OPS`), the methods and prediction kind they leave out,
the `kernel` dump in both formats, and a rank-2 phantom through `encode` and
`evaluate`. A failure names each file whose bytes moved.

A change that alters output bytes on purpose updates these digests and says
why. A sidecar's `tool_version` is replaced by `%s` before hashing, as
`GOLDEN_SIDECARS` does, so a version bump moves no digest.
"""

import hashlib
import os
import sys

import pytest

import svls
from svls.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import oracle  # noqa: E402
import run  # noqa: E402

# several slabs of several rows in each class plane (volume.slabs)
DIMS = (40, 60, 60)


def digest(path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".svlv.json"):
        data = data.replace(f'"tool_version": "{svls.__version__}"'.encode(), b'"tool_version": "%s"')
    return hashlib.sha256(data).hexdigest()


def digests(out) -> dict:
    return {p.relative_to(out).as_posix(): digest(p) for p in sorted(out.rglob("*")) if p.is_file()}


def mismatches(got: dict, expected: dict) -> list:
    return sorted(name for name in got.keys() | expected.keys() if got.get(name) != expected.get(name))


def workload_argvs(inputs, out) -> list:
    """The benchmark's subcommands, then the methods and prediction kind it leaves out."""
    j = os.path.join
    return [run.op_argv(op, inputs, out) for op in run.OPS] + [
        ["encode", "--in", j(inputs, "labels.svlv"), "--method", "onehot", "--out", j(out, "onehot.svlv")],
        ["fuse", "--in", j(inputs, "raters"), "--method", "moh", "--out", j(out, "moh.svlv")],
        ["loss", "--target", j(inputs, "target.svlv"), "--pred", j(inputs, "pred.svlv"), "--pred-kind", "probs",
         "--out", j(out, "loss_probs.json")],
    ]


# sha256 of each output file of each workload at DIMS, seed 0
WORKLOAD_DIGESTS = {
    "sparse": {
        "eval/calibration.json": "6b2465400ec1474cf218de335552c0a19bf16a50f35dc4d332591f3b9cc3aba2",
        "eval/reliability.csv": "c6ca94ae5e2c443b14d5bf8f4bd7a8d94aae72b951434837b4f5e6c165dea184",
        "eval/segmentation.csv": "1034278c4bfb63b443b6be58440fd32e1a226c342d2af248deea0493e01e0589",
        "eval/segmentation.json": "8ff351af9b39aa75fe6e1bbb72e1b85a5d9936c35887367f7d51eff776c3a6d9",
        "loss.json": "24fd1143c1b41bed4578c0d2fc6d72baed8dc3cc9c1585cfd53255c1e404302c",
        "loss_probs.json": "f32b737c8571aa2b27d76365fbcaf58ce6184166fcc7e7fcbf31a521fef41b60",
        "ls.svlv": "af78f8a0e800e6a8a9f2695b21aee50fae5d757b41d4a23b93de469fb1cb1fdd",
        "ls.svlv.json": "da7a79caa74be1646110c3986aac543f84dfca6d91bed3617f31a82e0402c7c2",
        "moh.svlv": "5eef30460fab06f0f43fb49d8b066425e218e069a2e2302cde84eca9f6262da7",
        "moh.svlv.json": "76874345c6d34ffc887a4204a362a774abed42eb41682ea2ed375361e1691990",
        "msvls.svlv": "3bbe421c6e89662db0bb30f3ad0bd436253264cc6af9ca268c54995b0d1542c0",
        "msvls.svlv.json": "8a7a7444b27b484aa2fd232dbf06a6e0332d3cfa9964405c23539715e8303438",
        "onehot.svlv": "77e4e1101adbcfbb8f4af9d30dcbbb01cb45f07756dcc378da0f12970a2519f0",
        "onehot.svlv.json": "dc5a4863f19ba5e6325d6370066a0054f5fe0c4e625bf848f850cc7bab0c7476",
        "svls.svlv": "125e68cde495ae8f15fa1e22cb25cee8854c8e0c5f7fb9d71683fb0cb74dee3d",
        "svls.svlv.json": "9e7749e0d7891328f8f20db155b97cac5955e6454db44f3a7f8acf0054e2ff2a",
    },
    "dense": {
        "eval/calibration.json": "9ad7b0575fa8c3ed33e45e8b43441e4f42d280bf433e4ef5acb374c36fad7a9e",
        "eval/reliability.csv": "83ca62056267c50ce689e7cb63985b62414d3777d37c37327a6d3ac618d3d16e",
        "eval/segmentation.csv": "dfa0f32cce6f6f6604ae277a260a1b642479a3732490a5422b778255beb6a998",
        "eval/segmentation.json": "75c90029e071a0d401ea53290541e742eff8d606cd4764a500482555e316f829",
        "loss.json": "8e00473f251256388ca1b6fd967ef23ce55b18e267380ba046e943458d87ab35",
        "loss_probs.json": "8e00473f251256388ca1b6fd967ef23ce55b18e267380ba046e943458d87ab35",
        "ls.svlv": "fdd8ec537fb1ffa661fa14444a66a7d9885af0c3313ad04c8a37722cc3c0efa9",
        "ls.svlv.json": "da7a79caa74be1646110c3986aac543f84dfca6d91bed3617f31a82e0402c7c2",
        "moh.svlv": "5961035c6ac30931a742c880bc5ae009a07336f7eed4ece2383d1c1ebf6fbfb5",
        "moh.svlv.json": "76874345c6d34ffc887a4204a362a774abed42eb41682ea2ed375361e1691990",
        "msvls.svlv": "1a47719c7eb2e391d589bbaf1fd93c67a43c3c57f84e0e00c1c2f8d02d61dfff",
        "msvls.svlv.json": "8a7a7444b27b484aa2fd232dbf06a6e0332d3cfa9964405c23539715e8303438",
        "onehot.svlv": "51dc728408ecce5aecc5cef2bcb91c8187a9e90baa55ebd23cde564fbb0b6176",
        "onehot.svlv.json": "dc5a4863f19ba5e6325d6370066a0054f5fe0c4e625bf848f850cc7bab0c7476",
        "svls.svlv": "d78ea6c6f0118dd37bc2b0632071fc55e0ae748a10e43e951b64d9271956736d",
        "svls.svlv.json": "9e7749e0d7891328f8f20db155b97cac5955e6454db44f3a7f8acf0054e2ff2a",
    },
}
# the kernel dump, and a 200x180 three-class nested-spheres phantom encoded and evaluated
OTHER_DIGESTS = {
    "eval2d/calibration.json": "21aa71fdd8d600d618106fe0ece1182cebb275c1ecdf69c8c2a9e587a5fe4236",
    "eval2d/reliability.csv": "1df3595aa8f282f5e6c43de15d030ab61c1be9ad2ff097c8d6240bd1edde3756",
    "eval2d/segmentation.csv": "dee40a160e558f543bc7ef05eb3b391fd9b679090108df5ebfc11bae45165d57",
    "eval2d/segmentation.json": "018fc68e6f003b4d2744e87b2d37a2f864e9d0517bbe8397e42df18311f27b09",
    "kernel.json": "b9773069aa03d98d4396f5a6b599c86998baa210aa1ef01e044116021cd457fb",
    "kernel.text": "e1f420b87a2320975f38f45903d0685a4abb2637b90fbf86ce8ba17d22f22fd6",
    "svls2d.svlv": "a31dd2bc7c001db9f15443c483c4df4be3dd91cd09b54aacd9c95dee85fd75b6",
    "svls2d.svlv.json": "d8f51db8ae98728519b514ece27abf22b4bdf98942ebfe0ca54c6ec9f76c8cac",
}


@pytest.mark.parametrize("workload", ["sparse", "dense"])
def test_workload_outputs_keep_their_bytes(tmp_path, workload):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    oracle._write_inputs(workload, 0, DIMS, str(inputs))
    for argv in workload_argvs(str(inputs), str(out)):
        assert main(argv) == 0, argv
    got = digests(out)
    assert mismatches(got, WORKLOAD_DIGESTS[workload]) == []


def test_kernel_and_rank2_outputs_keep_their_bytes(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    for fmt in ("json", "text"):
        assert main(["kernel", "--rank", "3", "--format", fmt]) == 0
        (out / f"kernel.{fmt}").write_text(capsys.readouterr().out)
    labels, soft = tmp_path / "labels.svlv", out / "svls2d.svlv"
    assert main(["phantom", "--kind", "nested_spheres", "--dims", "200,180", "--classes", "3", "--out",
                 str(labels)]) == 0
    assert main(["encode", "--in", str(labels), "--method", "svls", "--out", str(soft)]) == 0
    assert main(["evaluate", "--ref", str(labels), "--pred", str(soft), "--out", str(out / "eval2d")]) == 0
    got = digests(out)
    assert mismatches(got, OTHER_DIGESTS) == []
