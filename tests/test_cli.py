import gc
import json
import math
import os
import shlex
import struct
import subprocess
import sys

import numpy as np
import pytest

import svls
from svls import (
    LabelVolume,
    LogitVolume,
    RaterSet,
    SoftLabelVolume,
    SvlsKernel,
    label_smooth,
    moh_fuse,
    msvls_fuse,
    one_hot_encode,
    score_segmentation,
    softmax,
    svls_smooth,
)
from svls import cli, smoothing, tensor_io
from svls.cli import main
from svls.tensor_io import read_volume, write_report, write_volume
from svls.volume import slabs

from conftest import forbid_payload_read, random_labels, rename_over, rewrite_in_place, set_sidecar_token, sum_block


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_error(err: str) -> dict:
    lines = [l for l in err.strip().splitlines() if l.startswith("{")]
    assert lines, f"no machine-readable error line in stderr: {err!r}"
    return json.loads(lines[-1])


def child_env() -> dict:
    """This environment, with the svls package this process imported on the path."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(svls.__file__)))


def make_labels(tmp_path, rng, name="labels.svlv", dims=(6, 6, 6), n=3):
    vol = random_labels(rng, dims, n)
    path = tmp_path / name
    write_volume(vol, path)
    return path, vol


def test_kernel_json_output(capsys):
    code, out, _ = run(["kernel", "--rank", "3", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["taps"]) == 27
    assert doc["center"] == 1.0
    assert doc["total_weight"] == pytest.approx(2.0, abs=1e-12)
    expected = SvlsKernel(3, 1.0).taps.ravel()
    assert np.allclose(doc["taps"], expected, atol=0)
    assert out.startswith('{\n  "rank": 3,\n')  # indented by two spaces


def test_kernel_text_output(capsys):
    code, out, _ = run(["kernel", "--rank", "2", "--format", "text"], capsys)
    assert code == 0
    assert "total_weight" in out


def test_kernel_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "svls.cli", "kernel", "--rank", "2", "--format", "json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["taps"]) == 9


def test_encode_onehot_and_svls_match_on_homogeneous(tmp_path, capsys):
    vol = LabelVolume(np.ones((5, 5, 5), dtype=np.uint8), (1.0,) * 3, 2)
    src = tmp_path / "labels.svlv"
    write_volume(vol, src)
    out_oh = tmp_path / "oh.svlv"
    out_svls = tmp_path / "svls.svlv"
    assert run(["encode", "--in", str(src), "--method", "onehot", "--out", str(out_oh)], capsys)[0] == 0
    assert run(["encode", "--in", str(src), "--method", "svls", "--out", str(out_svls)], capsys)[0] == 0
    assert out_oh.read_bytes() == out_svls.read_bytes()


def test_encode_ls_requires_alpha(tmp_path, rng, capsys):
    src, _ = make_labels(tmp_path, rng)
    code, _, err = run(["encode", "--in", str(src), "--method", "ls", "--out", str(tmp_path / "o.svlv")], capsys)
    assert code == 1
    assert last_error(err)["error"] == "validation"


def test_encode_ls_applies_alpha(tmp_path, rng, capsys):
    src, vol = make_labels(tmp_path, rng, n=4)
    out = tmp_path / "ls.svlv"
    code, _, _ = run(["encode", "--in", str(src), "--method", "ls", "--alpha", "0.1", "--out", str(out)], capsys)
    assert code == 0
    soft = read_volume(out)
    top = soft.data.max(axis=0)
    assert np.all(top == np.float32(0.925))


def test_encode_directory_batch(tmp_path, rng, capsys):
    src_dir = tmp_path / "in"
    src_dir.mkdir()
    for name in ("b.svlv", "a.svlv"):
        write_volume(random_labels(rng, (4, 4), 2), src_dir / name)
    out_dir = tmp_path / "out"
    code, _, _ = run(["encode", "--in", str(src_dir), "--method", "onehot", "--out", str(out_dir)], capsys)
    assert code == 0
    assert sorted(p.name for p in out_dir.glob("*.svlv")) == ["a.svlv", "b.svlv"]


def test_fuse_moh_and_directory_expansion(tmp_path, rng, capsys):
    raters_dir = tmp_path / "raters"
    raters_dir.mkdir()
    vol = random_labels(rng, (4, 4), 2)
    for j in range(3):
        write_volume(vol, raters_dir / f"r{j}.svlv")
    out = tmp_path / "fused.svlv"
    code, _, _ = run(["fuse", "--in", str(raters_dir), "--method", "moh", "--out", str(out)], capsys)
    assert code == 0
    fused = read_volume(out)
    assert np.array_equal(fused.data, one_hot_encode(vol).data)


def test_fuse_msvls(tmp_path, rng, capsys):
    a, vol = make_labels(tmp_path, rng, name="a.svlv", dims=(4, 4), n=2)
    b = tmp_path / "b.svlv"
    write_volume(vol, b)
    out = tmp_path / "fused.svlv"
    code, _, _ = run(["fuse", "--in", str(a), str(b), "--method", "msvls", "--out", str(out)], capsys)
    assert code == 0
    assert isinstance(read_volume(out).data, np.ndarray)


def test_loss_probs_and_logits(tmp_path, rng, capsys):
    _, vol = make_labels(tmp_path, rng, dims=(4, 4), n=2)
    target = tmp_path / "target.svlv"
    write_volume(one_hot_encode(vol), target)
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        ["loss", "--target", str(target), "--pred", str(target), "--out", str(report_path)], capsys
    )
    assert code == 0
    assert json.loads(report_path.read_text())["total"] == 0.0

    from svls.loss import LogitVolume

    logits = LogitVolume(np.zeros((2, 4, 4)), vol.spacing)
    logits_path = tmp_path / "logits.svlv"
    write_volume(logits, logits_path)
    code, _, _ = run(
        ["loss", "--target", str(target), "--pred", str(logits_path), "--pred-kind", "logits",
         "--out", str(report_path)], capsys,
    )
    assert code == 0
    assert json.loads(report_path.read_text())["total"] == pytest.approx(np.log(2.0), abs=1e-6)


@pytest.mark.parametrize("role", ["target", "pred"])
def test_loss_rejects_a_label_volume(tmp_path, capsys, role):
    # the label grid's (X, Y, Z) shape equals the probability volume's (N, X, Y) shape
    labels = tmp_path / "labels.svlv"
    argv = ["phantom", "--kind", "straight_boundary", "--dims", "4,8,8", "--classes", "3", "--out", str(labels)]
    assert run(argv, capsys)[0] == 0
    argv = ["phantom", "--kind", "miscalibrated_pred", "--dims", "8,8", "--classes", "4", "--out", str(tmp_path / "m")]
    assert run(argv, capsys)[0] == 0
    probs = tmp_path / "m" / "pred.svlv"
    target, pred = (labels, probs) if role == "target" else (probs, labels)
    out = tmp_path / "loss.json"
    code, _, err = run(["loss", "--target", str(target), "--pred", str(pred), "--out", str(out)], capsys)
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert "holds labels" in error["message"]
    assert not out.exists()


def test_loss_out_with_the_volume_suffix_is_written_as_json(tmp_path, rng, capsys):
    _, vol = make_labels(tmp_path, rng, dims=(4, 4), n=2)
    target = tmp_path / "target.svlv"
    write_volume(one_hot_encode(vol), target)
    argv = ["loss", "--target", str(target), "--pred", str(target), "--out", str(tmp_path / "x.svlv")]
    assert run(argv, capsys)[0] == 0
    assert not (tmp_path / "x.svlv").exists()
    assert json.loads((tmp_path / "x.json").read_text())["total"] == 0.0


def test_loss_out_with_the_csv_suffix_is_written_as_csv(tmp_path, rng, capsys):
    _, vol = make_labels(tmp_path, rng, dims=(4, 4), n=2)
    target = tmp_path / "target.svlv"
    write_volume(one_hot_encode(vol), target)
    argv = ["loss", "--target", str(target), "--pred", str(target), "--out", str(tmp_path / "r.csv")]
    assert run(argv, capsys)[0] == 0
    assert (tmp_path / "r.csv").read_text() == "total,voxels\n0,16\n"


def test_loss_reads_the_prediction_before_the_target(tmp_path, capsys):
    # with both operands bad, the one error names the operand read first
    labels = tmp_path / "labels.svlv"
    argv = ["phantom", "--kind", "straight_boundary", "--dims", "4,8,8", "--classes", "3", "--out", str(labels)]
    assert run(argv, capsys)[0] == 0
    out = tmp_path / "loss.json"
    code, _, err = run(["loss", "--target", str(labels), "--pred", str(labels), "--out", str(out)], capsys)
    assert code == 1
    assert sum(line.startswith("{") for line in err.splitlines()) == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert "loss --pred needs a probability volume" in error["message"]
    assert not out.exists()


@pytest.mark.skipif(sys.platform != "linux", reason="counts page faults as Linux reports them")
def test_loss_reuses_the_pages_a_slab_frees(tmp_path, rng):
    # 16 more slabs fault in no more pages, whatever the heap's layout, which
    # the length of the --out path alone shifts; before the loss kept freed
    # heap, some lengths faulted about 290 pages in again for each slab
    def operands(rows):
        shape = (4, rows, 144, 144)
        assert len(slabs(shape[1:])) == rows
        pred, target = tmp_path / f"z{rows}.svlv", tmp_path / f"t{rows}.svlv"
        write_volume(LogitVolume(rng.standard_normal(shape).astype(np.float32), (1.0,) * 3), pred)
        probs = softmax(LogitVolume(rng.standard_normal(shape), (1.0,) * 3)).data.astype(np.float32)
        write_volume(SoftLabelVolume(probs, (1.0,) * 3), target)
        return ["--target", str(target), "--pred", str(pred), "--pred-kind", "logits"]

    def faults(argv, out):
        proc = subprocess.Popen([sys.executable, "-m", "svls.cli", "loss", *argv, "--out", str(out)],
                                env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        return usage.ru_minflt

    few, many = operands(2), operands(18)
    for length in range(1, 17, 4):
        out = tmp_path / ("x" * length) / "loss.json"
        assert faults(many, out) - faults(few, out) < 16 * 32, length


def test_evaluate_perfect_prediction(tmp_path, rng, capsys):
    src, vol = make_labels(tmp_path, rng)
    pred = tmp_path / "pred.svlv"
    write_volume(one_hot_encode(vol), pred)
    out_dir = tmp_path / "eval"
    code, _, _ = run(["evaluate", "--ref", str(src), "--pred", str(pred), "--out", str(out_dir)], capsys)
    assert code == 0
    seg = json.loads((out_dir / "segmentation.json").read_text())
    assert all(row["dsc"] == 1.0 and row["sd"] == 1.0 for row in seg["classes"])
    assert seg["tolerance_mm"] == 2.0
    calib = json.loads((out_dir / "calibration.json").read_text())
    assert calib["ece"] == 0.0
    assert calib["tace"] == 0.0
    assert (out_dir / "reliability.csv").read_text().startswith("lower,upper,count")


def test_evaluate_region_merge_and_composite(tmp_path, rng, capsys):
    src, vol = make_labels(tmp_path, rng, n=3)
    pred = tmp_path / "pred.svlv"
    write_volume(one_hot_encode(vol), pred)
    merge = tmp_path / "regions.json"
    merge.write_text(json.dumps({"foreground": [1, 2]}))
    out_dir = tmp_path / "eval"
    code, _, _ = run(
        ["evaluate", "--ref", str(src), "--pred", str(pred), "--region-merge", str(merge),
         "--composite", "--out", str(out_dir)], capsys,
    )
    assert code == 0
    rows = {row["class"]: row for row in json.loads((out_dir / "segmentation.json").read_text())["classes"]}
    assert rows["foreground"]["dsc"] == 1.0
    assert rows["comp"]["dsc"] == 1.0


def test_evaluate_directory_batch(tmp_path, rng, capsys):
    ref_dir = tmp_path / "refs"
    pred_dir = tmp_path / "preds"
    ref_dir.mkdir()
    pred_dir.mkdir()
    for name in ("u.svlv", "v.svlv"):
        vol = random_labels(rng, (4, 4), 2)
        write_volume(vol, ref_dir / name)
        write_volume(one_hot_encode(vol), pred_dir / name)
    out_dir = tmp_path / "eval"
    code, _, _ = run(
        ["evaluate", "--ref", str(ref_dir), "--pred", str(pred_dir), "--out", str(out_dir)], capsys
    )
    assert code == 0
    for name in ("u", "v"):
        assert (out_dir / name / "segmentation.csv").exists()
        assert (out_dir / name / "calibration.json").exists()


def test_evaluate_rejects_label_predictions(tmp_path, rng, capsys):
    src, _ = make_labels(tmp_path, rng)
    code, _, err = run(["evaluate", "--ref", str(src), "--pred", str(src), "--out", str(tmp_path / "e")], capsys)
    assert code == 1
    assert "probability" in last_error(err)["message"]


def test_evaluate_rejects_nan_probabilities(tmp_path, rng, capsys):
    src, vol = make_labels(tmp_path, rng)
    pred = tmp_path / "pred.svlv"
    write_volume(one_hot_encode(vol), pred)
    blob = bytearray(pred.read_bytes())
    struct.pack_into("<f", blob, 16 + 4 * 4, float("nan"))  # first value after the 4 extents
    pred.write_bytes(bytes(blob))
    code, _, err = run(["evaluate", "--ref", str(src), "--pred", str(pred), "--out", str(tmp_path / "e")], capsys)
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert "[0, 1]" in error["message"]


@pytest.mark.parametrize(
    "regions",
    [[1, 2], {"fg": 1}, {"fg": ["1"]}, {"fg": [1.0]}, {"fg": []}],
    ids=["list", "id-not-list", "string-id", "float-id", "empty-ids"],
)
def test_evaluate_rejects_malformed_region_map(tmp_path, rng, capsys, regions):
    src, vol = make_labels(tmp_path, rng)
    pred = tmp_path / "pred.svlv"
    write_volume(one_hot_encode(vol), pred)
    merge = tmp_path / "regions.json"
    merge.write_text(json.dumps(regions))
    code, _, err = run(
        ["evaluate", "--ref", str(src), "--pred", str(pred), "--region-merge", str(merge),
         "--out", str(tmp_path / "e")], capsys,
    )
    assert code == 1
    assert last_error(err)["error"] == "validation"
    assert not (tmp_path / "e" / "segmentation.json").exists()


@pytest.mark.parametrize("ids", [[7], [1, 3], [-1]])
def test_evaluate_rejects_region_ids_outside_class_range(tmp_path, rng, capsys, ids):
    src, vol = make_labels(tmp_path, rng, n=3)
    pred = tmp_path / "pred.svlv"
    write_volume(one_hot_encode(vol), pred)
    merge = tmp_path / "regions.json"
    merge.write_text(json.dumps({"bad": ids}))
    code, _, err = run(
        ["evaluate", "--ref", str(src), "--pred", str(pred), "--region-merge", str(merge),
         "--out", str(tmp_path / "e")], capsys,
    )
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert "[0, 3)" in error["message"]


def test_phantom_writes_labels(tmp_path, capsys):
    out = tmp_path / "p.svlv"
    code, _, _ = run(
        ["phantom", "--kind", "straight_boundary", "--dims", "6,6,6", "--out", str(out)], capsys
    )
    assert code == 0
    vol = read_volume(out)
    assert vol.dims == (6, 6, 6)


def test_phantom_rater_directory(tmp_path, capsys):
    out = tmp_path / "raters"
    code, _, _ = run(
        ["phantom", "--kind", "straight_boundary", "--dims", "8,6", "--raters", "3",
         "--jitter", "1", "--seed", "5", "--out", str(out)], capsys,
    )
    assert code == 0
    assert sorted(p.name for p in out.glob("*.svlv")) == ["rater00.svlv", "rater01.svlv", "rater02.svlv"]


def test_phantom_miscalibrated_writes_pair(tmp_path, capsys):
    out = tmp_path / "mc"
    code, _, _ = run(
        ["phantom", "--kind", "miscalibrated_pred", "--dims", "8,8", "--classes", "3",
         "--strength", "0.2", "--out", str(out)], capsys,
    )
    assert code == 0
    assert (out / "labels.svlv").exists()
    pred = read_volume(out / "pred.svlv")
    assert pred.data.max() <= 1.0


def test_config_file_supplies_defaults_flags_win(tmp_path, rng, capsys):
    src, _ = make_labels(tmp_path, rng, dims=(4, 4), n=4)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": 0.2, "method": "ls"}))
    out = tmp_path / "out.svlv"
    # method comes from the flag (required anyway), alpha from the config
    code, _, _ = run(
        ["encode", "--in", str(src), "--method", "ls", "--config", str(config), "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert np.any(read_volume(out).data == np.float32(0.05))  # alpha/N = 0.2/4
    # an explicit --alpha overrides the config
    code, _, _ = run(
        ["encode", "--in", str(src), "--method", "ls", "--alpha", "0.1", "--config", str(config),
         "--out", str(out)], capsys,
    )
    assert code == 0
    assert np.any(read_volume(out).data == np.float32(0.025))


def test_mutually_exclusive_flags_rejected(tmp_path, rng, capsys):
    src, _ = make_labels(tmp_path, rng, dims=(4, 4), n=2)
    out = str(tmp_path / "o.svlv")
    code, _, err = run(
        ["encode", "--in", str(src), "--method", "onehot", "--alpha", "0.1", "--out", out], capsys
    )
    assert code == 1 and "alpha" in last_error(err)["message"]
    code, _, err = run(
        ["encode", "--in", str(src), "--method", "ls", "--alpha", "0.1", "--sigma", "2.0",
         "--out", out], capsys,
    )
    assert code == 1 and "sigma" in last_error(err)["message"]
    code, _, err = run(
        ["phantom", "--kind", "homogeneous", "--dims", "4,4", "--jitter", "1", "--out", out], capsys
    )
    assert code == 1 and "raters" in last_error(err)["message"]


@pytest.mark.parametrize("argv, key, value", [
    (["encode", "--in", "{d}/labels.svlv", "--method", "svls", "--out", "{d}/o.svlv"], "alpha", 0.1),
    (["encode", "--in", "{d}/labels.svlv", "--method", "ls", "--alpha", "0.1", "--out", "{d}/o.svlv"], "sigma", 2.0),
    (["fuse", "--in", "{d}/labels.svlv", "--method", "moh", "--out", "{d}/o.svlv"], "sigma", 2.0),
    (["phantom", "--kind", "homogeneous", "--dims", "4,4", "--out", "{d}/o.svlv"], "strength", 0.2),
    (["phantom", "--kind", "homogeneous", "--dims", "4,4", "--out", "{d}/o.svlv"], "jitter", 2),
    # rater volumes hold no prediction, so they take no strength
    (["phantom", "--kind", "miscalibrated_pred", "--dims", "6,6", "--classes", "3", "--raters", "2",
      "--out", "{d}/o.svlv"], "strength", 0.3),
    # a flag given its default value is still given
    (["encode", "--in", "{d}/labels.svlv", "--method", "ls", "--alpha", "0.1", "--out", "{d}/o.svlv"], "sigma", 1.0),
    (["fuse", "--in", "{d}/labels.svlv", "--method", "moh", "--out", "{d}/o.svlv"], "sigma", 1.0),
    (["phantom", "--kind", "homogeneous", "--dims", "4,4", "--out", "{d}/o.svlv"], "jitter", 0),
    (["phantom", "--kind", "homogeneous", "--dims", "4,4", "--out", "{d}/o.svlv"], "strength", 0.0),
], ids=["encode-alpha", "encode-sigma", "fuse-sigma", "phantom-strength", "phantom-jitter",
        "phantom-strength-raters", "encode-sigma-default", "fuse-sigma-default", "phantom-jitter-default",
        "phantom-strength-default"])
def test_config_value_contradicting_the_method_is_rejected_like_its_flag(tmp_path, rng, capsys, argv, key, value):
    make_labels(tmp_path, rng)
    argv = [a.format(d=tmp_path) for a in argv]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    flag_code, _, flag_err = run([*argv, f"--{key}", str(value)], capsys)
    code, _, err = run([*argv, "--config", str(config)], capsys)
    assert flag_code == code == 1
    assert last_error(err) == last_error(flag_err)
    assert key in last_error(err)["message"]
    assert not (tmp_path / "o.svlv").exists()


@pytest.mark.parametrize("raters", ["0", "-2"])
def test_phantom_rater_count_below_one_is_rejected(tmp_path, capsys, raters):
    out = tmp_path / "raters"
    code, _, err = run(["phantom", "--kind", "homogeneous", "--dims", "4,4", "--raters", raters,
                        "--out", str(out)], capsys)
    assert code == 1
    assert "need at least 1 rater" in last_error(err)["message"]
    assert not out.exists()


def test_phantom_rejects_an_extent_the_container_cannot_hold_before_generating(tmp_path, capsys, monkeypatch):
    def never(spec):
        raise AssertionError("a volume was generated")

    monkeypatch.setattr(cli, "generate_labels", never)  # 4 GiB if it ran
    out = tmp_path / "o.svlv"
    code, stdout, err = run(["phantom", "--kind", "homogeneous", "--dims", "4294967296,1", "--out", str(out)],
                            capsys)
    assert (code, stdout) == (1, "")
    message = "dims must be at most 4294967295, the container's u32 limit, got (4294967296, 1)"
    assert one_error_line(err) == {"error": "validation", "message": message}
    assert not out.exists()


def test_loss_directory_batch(tmp_path, rng, capsys):
    target_dir = tmp_path / "targets"
    pred_dir = tmp_path / "preds"
    out_dir = tmp_path / "reports"
    target_dir.mkdir()
    pred_dir.mkdir()
    for name in ("x.svlv", "y.svlv"):
        vol = random_labels(rng, (3, 3), 2)
        write_volume(one_hot_encode(vol), target_dir / name)
        write_volume(one_hot_encode(vol), pred_dir / name)
    code, _, _ = run(
        ["loss", "--target", str(target_dir), "--pred", str(pred_dir), "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert sorted(p.name for p in out_dir.glob("*.json")) == ["x.json", "y.json"]
    assert json.loads((out_dir / "x.json").read_text())["total"] == 0.0


def test_missing_input_is_io_error(tmp_path, capsys):
    code, _, err = run(
        ["encode", "--in", str(tmp_path / "nope.svlv"), "--method", "onehot",
         "--out", str(tmp_path / "o.svlv")], capsys,
    )
    assert code == 2
    assert last_error(err)["error"] == "io"


def test_bad_flag_is_validation_error(capsys):
    code, _, err = run(["kernel", "--rank", "5", "--format", "json"], capsys)
    assert code == 1
    assert last_error(err)["error"] == "validation"


@pytest.mark.parametrize("config", [{"threads": 2}, {"sd_tolerence": 3}])
def test_config_key_matching_no_flag_is_rejected(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # the inputs do not exist: a config accepted by mistake would exit 2 on the read
    code, _, err = run(
        ["evaluate", "--ref", str(tmp_path / "ref.svlv"), "--pred", str(tmp_path / "pred.svlv"),
         "--config", str(path), "--out", str(tmp_path / "eval")], capsys,
    )
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert next(iter(config)) in error["message"]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["encode", "--in", "labels.svlv", "--method", "svls", "--out", "soft.svlv"], {"sigma": "abc"}),
        (["evaluate", "--ref", "ref.svlv", "--pred", "pred.svlv", "--out", "eval"], {"ece_bins": 2.5}),
        (["kernel", "--rank", "3"], {"format": "xml"}),
        (["evaluate", "--ref", "ref.svlv", "--pred", "pred.svlv", "--out", "eval"], {"foreground_only": "no"}),
        (["encode", "--in", "labels.svlv", "--method", "onehot", "--out", "soft.svlv"], {"out": None}),
        (["encode", "--in", "labels.svlv", "--method", "svls", "--out", "soft.svlv"], {"sigma": True}),
        (["encode", "--in", "labels.svlv", "--method", "svls", "--out", "soft.svlv"], {"sigma": [1.0]}),
        (["fuse", "--in", "labels.svlv", "--method", "moh", "--out", "f.svlv"], {"in": []}),
        (["fuse", "--in", "labels.svlv", "--method", "moh", "--out", "f.svlv"], {"in": "labels.svlv"}),
        (["kernel", "--rank", "3"], {"help": True}),
    ],
    ids=["sigma-not-float", "ece-bins-not-int", "format-not-a-choice", "switch-not-bool", "value-null",
         "value-bool", "value-list", "list-empty", "list-a-string", "help-key"],
)
def test_config_value_gets_its_flag_checks(tmp_path, capsys, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # the inputs do not exist: a value accepted by mistake would exit 2 on the read
    code, out, err = run(argv + ["--config", str(path)], capsys)
    assert code == 1
    assert out == ""
    error = last_error(err)
    assert error["error"] == "validation"
    assert next(iter(config)).replace("_", "-") in error["message"]


@pytest.mark.parametrize("key, value, message", [
    ("foreground_only", "no", 'takes true or false, got "no"'),
    ("ece_bins", None, "takes a string or number, got null"),
], ids=["switch", "value"])
def test_config_value_of_the_wrong_kind_names_the_kind(tmp_path, capsys, key, value, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    argv = ["evaluate", "--ref", "ref.svlv", "--pred", "pred.svlv", "--out", "eval", "--config", str(path)]
    code, _, err = run(argv, capsys)
    assert code == 1
    flag = "--" + key.replace("_", "-")
    assert last_error(err) == {"error": "validation", "message": f"config {path}: {flag} {message}"}


def test_config_values_of_the_right_kind_are_accepted(tmp_path, rng, capsys):
    src, vol = make_labels(tmp_path, rng, dims=(5, 5), n=3)
    pred = tmp_path / "pred.svlv"
    write_volume(one_hot_encode(vol), pred)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sd_tolerance": 1, "ece_bins": "4", "foreground_only": False, "composite": True}))
    code, _, _ = run(
        ["evaluate", "--ref", str(src), "--pred", str(pred), "--config", str(path), "--out", str(tmp_path / "e")],
        capsys,
    )
    assert code == 0
    calib = json.loads((tmp_path / "e" / "calibration.json").read_text())
    assert len(calib["bins"]) == 4
    assert "comp" in (tmp_path / "e" / "segmentation.csv").read_text()


@pytest.mark.parametrize("argv, key, value", [
    (["encode", "--in", "labels.svlv", "--method", "svls", "--out", "soft.svlv"], "sigma", "abc"),
    (["evaluate", "--ref", "ref.svlv", "--pred", "pred.svlv", "--out", "eval"], "ece_bins", "2.5"),
    (["kernel", "--rank", "3"], "format", "xml"),
    (["phantom", "--kind", "homogeneous", "--dims", "4,4", "--out", "p.svlv"], "dims", "4,x"),
    (["phantom", "--kind", "homogeneous", "--dims", "4,4", "--out", "p.svlv"], "dims", "4,,4"),
], ids=["sigma-not-float", "ece-bins-not-int", "format-not-a-choice", "dims-not-int", "dims-empty-extent"])
def test_config_value_gets_the_message_of_its_flag(tmp_path, capsys, monkeypatch, argv, key, value):
    monkeypatch.chdir(tmp_path)
    flag = "--" + key.replace("_", "-")
    (tmp_path / "config.json").write_text(json.dumps({key: value}))
    flag_code, _, flag_err = run([*argv, flag, value], capsys)
    code, _, err = run([*argv, "--config", "config.json"], capsys)
    assert flag_code == code == 1
    assert last_error(err) == last_error(flag_err)
    assert last_error(err)["error"] == "validation"
    assert f"argument {flag}: " in last_error(err)["message"]
    assert not (tmp_path / "p.svlv").exists()


@pytest.mark.parametrize("command, config, accepted", [
    ("encode", {"in": "missing.svlv"}, True),
    ("fuse", {"in": ["missing.svlv"]}, True),
    ("encode", {"in_path": "missing.svlv"}, False),
    ("fuse", {"in_paths": ["missing.svlv"]}, False),
], ids=["encode-in", "fuse-in", "encode-in_path", "fuse-in_paths"])
def test_config_keys_are_flag_names(tmp_path, rng, capsys, command, config, accepted):
    src, _ = make_labels(tmp_path, rng)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # the command line's --in wins: a config --in read by mistake would exit 2
    code, _, err = run([command, "--in", str(src), "--method", "onehot" if command == "encode" else "moh",
                        "--config", str(path), "--out", str(tmp_path / "o.svlv")], capsys)
    if accepted:
        assert code == 0
        assert (tmp_path / "o.svlv").exists()
    else:
        assert code == 1
        assert last_error(err) == {"error": "validation", "message":
                                   f"config {path} has keys matching no {command} flag: {next(iter(config))}"}


def test_abbreviated_flag_is_rejected(capsys):
    code, out, err = run(["kernel", "--rank", "3", "--sig", "2"], capsys)
    assert code == 1
    assert out == ""
    assert last_error(err) == {"error": "validation", "message": "unrecognized arguments: --sig 2"}


@pytest.mark.parametrize("flags", [
    ["--kind", "homogeneous"],
    ["--kind", "miscalibrated_pred"],
    ["--kind", "straight_boundary", "--raters", "2"],
], ids=["labels", "miscalibrated", "raters"])
def test_phantom_rejects_a_negative_seed(tmp_path, capsys, flags):
    out = tmp_path / "p"
    code, _, err = run(["phantom", *flags, "--dims", "4,4", "--seed", "-5", "--out", str(out)], capsys)
    assert code == 1
    assert last_error(err) == {"error": "validation", "message": "seed must be >= 0, got -5"}
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--config", "--region-merge"])
def test_unparseable_json_file_is_named(tmp_path, rng, capsys, flag):
    src, vol = make_labels(tmp_path, rng)
    pred = tmp_path / "pred.svlv"
    write_volume(one_hot_encode(vol), pred)
    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    code, _, err = run(["evaluate", "--ref", str(src), "--pred", str(pred), flag, str(bad),
                        "--out", str(tmp_path / "e")], capsys)
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert error["message"].startswith("unparseable ") and str(bad) in error["message"]
    assert not (tmp_path / "e").exists()


def readme_cli_example() -> list[str]:
    """The lines of the README's CLI example block."""
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8").read()
    block = readme[readme.index("## CLI"):]
    block = block[block.index("```sh\n") + len("```sh\n"):]
    return block[:block.index("```")].splitlines()


def test_readme_cli_example_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_example()
    for line in lines:
        argv = shlex.split(line, comments=True)
        if argv[0] == "svls":
            code, _, err = run(argv[1:], capsys)
            assert code == 0, (line, err)
        else:  # a shell line that writes a file for the next svls line
            subprocess.run(["sh", "-c", line], check=True)
    assert sum(line.startswith("svls ") for line in lines) >= 10
    assert "comp" in (tmp_path / "eval-1mm" / "segmentation.csv").read_text()  # the config's composite row


def evaluate_with_regions(tmp_path, rng, capsys, regions, flags=()):
    src, vol = make_labels(tmp_path, rng, n=3)
    pred = tmp_path / "pred.svlv"
    write_volume(one_hot_encode(vol), pred)
    merge = tmp_path / "regions.json"
    merge.write_text(json.dumps(regions))
    return run(
        ["evaluate", "--ref", str(src), "--pred", str(pred), "--region-merge", str(merge), *flags,
         "--out", str(tmp_path / "e")], capsys,
    )


def test_evaluate_region_and_comp_rows_are_the_library_rows(tmp_path, rng, capsys):
    ref_path, reference = make_labels(tmp_path, rng, dims=(7, 8, 9), n=3)
    other = random_labels(rng, reference.dims, 3)
    pred = tmp_path / "pred.svlv"
    write_volume(one_hot_encode(other), pred)
    regions = {"fg": [1, 2], "all": [0, 1, 2], "edge": [2]}
    merge = tmp_path / "regions.json"
    merge.write_text(json.dumps(regions))
    out_dir = tmp_path / "e"
    code, _, _ = run(["evaluate", "--ref", str(ref_path), "--pred", str(pred), "--region-merge", str(merge),
                      "--composite", "--sd-tolerance", "1.5", "--out", str(out_dir)], capsys)
    assert code == 0
    scores = score_segmentation(reference, other, 1.5, regions=regions, composite=True)
    assert list(scores.per_class_dsc) == [0, 1, 2, "fg", "all", "edge", "comp"]
    for name in ("segmentation.csv", "segmentation.json"):
        write_report(scores, tmp_path / "lib" / name)
        assert (out_dir / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


@pytest.mark.parametrize("regions", [{"1": [2]}, {"comp": [1], "1": [2]}], ids=["class-row", "both"])
def test_evaluate_rejects_region_names_taken_by_class_rows(tmp_path, rng, capsys, regions):
    code, _, err = evaluate_with_regions(tmp_path, rng, capsys, regions, ["--composite"])
    assert code == 1
    assert last_error(err)["error"] == "validation"
    assert not (tmp_path / "e").exists()


def test_evaluate_rejects_region_named_comp_only_with_composite(tmp_path, rng, capsys):
    code, _, _ = evaluate_with_regions(tmp_path, rng, capsys, {"comp": [1, 2]})
    assert code == 0
    assert "comp" in (tmp_path / "e" / "segmentation.csv").read_text()
    code, _, err = evaluate_with_regions(tmp_path, rng, capsys, {"comp": [1, 2]}, ["--composite"])
    assert code == 1
    assert "comp" in last_error(err)["message"]


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_evaluate_checks_tolerance_before_reading(tmp_path, capsys, tolerance):
    # the inputs do not exist: a tolerance checked after the reads would exit 2
    code, _, err = run(
        ["evaluate", "--ref", str(tmp_path / "ref.svlv"), "--pred", str(tmp_path / "pred.svlv"),
         "--sd-tolerance", tolerance, "--out", str(tmp_path / "eval")], capsys,
    )
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert "tolerance" in error["message"]


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would reach stderr as a second line
@pytest.mark.parametrize("tolerance, spacing", [("1e308", 0.5), ("2", 5e-324)])
def test_evaluate_survives_a_tolerance_ball_reach_beyond_float_range(tmp_path, capsys, tolerance, spacing):
    # tolerance / spacing overflows to inf; the reach is capped by the volume
    spec = svls.PhantomSpec("nested_spheres", (8, 10, 12), num_classes=3)
    labels = svls.generate_labels(spec)
    ref = LabelVolume(labels.data, (spacing,) * 3, 3)
    write_volume(ref, tmp_path / "ref.svlv")
    write_volume(one_hot_encode(ref), tmp_path / "pred.svlv")
    out_dir = tmp_path / "eval"
    code, _, err = run(
        ["evaluate", "--ref", str(tmp_path / "ref.svlv"), "--pred", str(tmp_path / "pred.svlv"),
         "--sd-tolerance", tolerance, "--out", str(out_dir)], capsys,
    )
    assert code in (0, 1, 2)
    lines = err.splitlines()
    assert len(lines) <= 1, err
    if lines:
        assert json.loads(lines[0])["error"] != "internal"
    assert code == 0
    rows = json.loads((out_dir / "segmentation.json").read_text())["classes"]
    assert all(row["sd"] == 1.0 for row in rows)


@pytest.mark.parametrize(
    "flag, value, word",
    [("--ece-bins", "0", "num_bins"), ("--tace-ranges", "0", "num_ranges"), ("--tace-threshold", "1.5", "threshold"),
     ("--tace-threshold", "1", "threshold")],
)
def test_evaluate_checks_calibration_flags_before_reading(tmp_path, capsys, flag, value, word):
    # the inputs do not exist: a flag checked after the reads would exit 2
    out_dir = tmp_path / "eval"
    code, _, err = run(
        ["evaluate", "--ref", str(tmp_path / "ref.svlv"), "--pred", str(tmp_path / "pred.svlv"),
         flag, value, "--out", str(out_dir)], capsys,
    )
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert word in error["message"]
    assert not out_dir.exists()


def test_evaluate_rejects_a_class_count_mismatch_and_leaves_no_output(tmp_path, rng, capsys):
    ref, _ = make_labels(tmp_path, rng, n=4)
    _, vol = make_labels(tmp_path, rng, name="three.svlv", n=3)
    pred = tmp_path / "pred.svlv"
    write_volume(one_hot_encode(vol), pred)
    out_dir = tmp_path / "eval"
    code, _, err = run(["evaluate", "--ref", str(ref), "--pred", str(pred), "--out", str(out_dir)], capsys)
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert "class count mismatch: 4 vs 3" in error["message"]
    assert not out_dir.exists()


def test_evaluate_rejects_a_probability_reference(tmp_path, rng, capsys):
    _, vol = make_labels(tmp_path, rng)
    soft = tmp_path / "soft.svlv"
    write_volume(one_hot_encode(vol), soft)
    out_dir = tmp_path / "eval"
    code, _, err = run(["evaluate", "--ref", str(soft), "--pred", str(soft), "--out", str(out_dir)], capsys)
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert "evaluate --ref needs a label volume" in error["message"]
    assert not out_dir.exists()


def test_loss_rejects_a_spacing_mismatch(tmp_path, rng, capsys):
    _, vol = make_labels(tmp_path, rng)
    target, pred = tmp_path / "target.svlv", tmp_path / "pred.svlv"
    write_volume(one_hot_encode(vol), target)
    write_volume(one_hot_encode(LabelVolume(vol.data, (2.0, 1.0, 1.0), vol.num_classes)), pred)
    out = tmp_path / "loss.json"
    code, _, err = run(["loss", "--target", str(target), "--pred", str(pred), "--out", str(out)], capsys)
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert "spacing mismatch" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("dims, classes, spacing, message", [
    ((7, 6, 6), 2, (1.0,) * 3, "shape mismatch: dims (6, 6, 6) vs (7, 6, 6)"),  # more rows: not cut to fit
    ((6, 6, 5), 2, (1.0,) * 3, "shape mismatch: dims (6, 6, 6) vs (6, 6, 5)"),
    ((6, 6, 6), 3, (1.0,) * 3, "class count mismatch: 2 vs 3"),
    ((6, 6, 6), 2, (1.0, 1.0, 2.0), "spacing mismatch: (1.0, 1.0, 1.0) vs (1.0, 1.0, 2.0)"),
], ids=["more-rows", "other-dims", "classes", "spacing"])
def test_loss_rejects_logits_on_another_grid(tmp_path, rng, capsys, dims, classes, spacing, message):
    # the loss goes slab by slab over the target's rows, so the grids are checked whole first
    from svls.loss import LogitVolume

    _, vol = make_labels(tmp_path, rng, n=2)
    target, logits = tmp_path / "target.svlv", tmp_path / "logits.svlv"
    write_volume(one_hot_encode(vol), target)
    write_volume(LogitVolume(rng.normal(size=(classes,) + dims), spacing), logits)
    out = tmp_path / "loss.json"
    argv = ["loss", "--target", str(target), "--pred", str(logits), "--pred-kind", "logits", "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert last_error(err) == {"error": "validation", "message": message}
    assert not out.exists()


def write_loss_files(d, rng, dims, classes=3):
    """A float32 SVLS target, float32 logits, a probability prediction and a
    label volume, all on one grid of `dims`; their paths by role."""
    labels = random_labels(rng, dims, classes)
    scores = LogitVolume(rng.normal(size=(classes,) + dims).astype(np.float32), labels.spacing)
    probs = softmax(scores)
    volumes = {
        "target": svls_smooth(labels, 1.0),
        "logits": scores,
        "probs": SoftLabelVolume(probs.data.astype(np.float32), probs.spacing),
        "labels": labels,
    }
    paths = {}
    for role, vol in volumes.items():
        paths[role] = d / f"{role}.svlv"
        write_volume(vol, paths[role])
    return paths


def one_error_line(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])


# (operand at fault, fault); the messages are those of whole-volume reads
LOSS_READ_FAULTS = {
    "labels-as-pred": ("pred", "labels"),
    "labels-as-target": ("target", "labels"),
    "sidecar-of-pred": ("pred", "sidecar"),
    "sidecar-of-target": ("target", "sidecar"),
    "target-a-row-short": ("target", "short"),
}


@pytest.mark.parametrize("kind", ["logits", "probs"])
@pytest.mark.parametrize("case", LOSS_READ_FAULTS)
def test_loss_checks_both_operands_before_any_payload_read(tmp_path, rng, capsys, monkeypatch, kind, case):
    role, fault = LOSS_READ_FAULTS[case]
    paths = write_loss_files(tmp_path, rng, (8, 10, 12))
    operands = {"pred": paths[kind], "target": paths["target"]}
    if fault == "labels":
        operands[role] = paths["labels"]
        wanted = "logit" if role == "pred" and kind == "logits" else "probability"
        message = f"{paths['labels']} holds labels; loss --{role} needs a {wanted} volume"
    elif fault == "sidecar":
        set_sidecar_token(operands[role], "spacing", '"x"')
        message = 'spacing: spacing must be a list of numbers, got "x"'
    else:
        (tmp_path / "short").mkdir()
        operands["target"] = write_loss_files(tmp_path / "short", rng, (7, 10, 12))["target"]
        message = "shape mismatch: dims (7, 10, 12) vs (8, 10, 12)"
    forbid_payload_read(monkeypatch)
    out = tmp_path / "loss.json"
    argv = ["loss", "--target", str(operands["target"]), "--pred", str(operands["pred"]),
            "--pred-kind", kind, "--out", str(out)]
    code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (1, "")
    assert one_error_line(err) == {"error": "validation", "message": message}
    assert not out.exists()


# the command line, less --out, and its message, for a volume of the wrong
# kind or another grid; the volumes are those of `write_loss_files`
KIND_AND_GRID_FAULTS = {
    "probs-as-encode-in": (lambda p: ["encode", "--in", p["probs"], "--method", "onehot"],
                           "{probs} holds probabilities; encode --in needs a label volume"),
    "probs-as-fuse-in": (lambda p: ["fuse", "--in", p["labels"], p["probs"], "--method", "moh"],
                         "{probs} holds probabilities; fuse --in needs a label volume"),
    "labels-as-evaluate-pred": (lambda p: ["evaluate", "--ref", p["labels"], "--pred", p["labels"]],
                                "{labels} holds labels; evaluate --pred needs a probability volume"),
    "probs-as-evaluate-ref": (lambda p: ["evaluate", "--ref", p["probs"], "--pred", p["probs"]],
                              "{probs} holds probabilities; evaluate --ref needs a label volume"),
    "evaluate-on-another-grid": (lambda p: ["evaluate", "--ref", p["short"], "--pred", p["probs"]],
                                 "shape mismatch: dims (7, 10, 12) vs (8, 10, 12)"),
    "fuse-on-another-grid": (lambda p: ["fuse", "--in", p["labels"], p["short"], "--method", "moh"],
                             "rater 1 vs rater 0: shape mismatch: dims (7, 10, 12) vs (8, 10, 12)"),
}


@pytest.mark.parametrize("case", KIND_AND_GRID_FAULTS)
def test_kind_and_grid_are_checked_before_any_payload_read(tmp_path, rng, capsys, monkeypatch, case):
    command, message = KIND_AND_GRID_FAULTS[case]
    paths = {role: str(path) for role, path in write_loss_files(tmp_path, rng, (8, 10, 12)).items()}
    (tmp_path / "short").mkdir()
    paths["short"] = str(write_loss_files(tmp_path / "short", rng, (7, 10, 12))["labels"])
    forbid_payload_read(monkeypatch)
    out = tmp_path / "out"
    code, stdout, err = run(command(paths) + ["--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert one_error_line(err) == {"error": "validation", "message": message.format(**paths)}
    assert not out.exists()


UNDERFLOW = "sigma 0.01 is too small: its Gaussian weights underflow to 0"
# the command line, less --out, and its message, for a flag or a region map
# that the inputs' headers show to be bad; the volumes are those of
# `write_loss_files`, and `ids` and `names` are region maps
FLAG_FAULTS = {
    "encode-ls-alpha": (lambda p: ["encode", "--in", p["labels"], "--method", "ls", "--alpha", "2"],
                        "alpha must be in [0, 1], got 2.0"),
    "encode-ls-alpha-nan": (lambda p: ["encode", "--in", p["labels"], "--method", "ls", "--alpha", "nan"],
                            "alpha must be in [0, 1], got nan"),
    "encode-svls-sigma": (lambda p: ["encode", "--in", p["labels"], "--method", "svls", "--sigma", "0.01"], UNDERFLOW),
    "fuse-msvls-sigma": (lambda p: ["fuse", "--in", p["labels"], p["labels"], p["labels"], "--method", "msvls",
                                    "--sigma", "0.01"], UNDERFLOW),
    "evaluate-region-ids": (lambda p: ["evaluate", "--ref", p["labels"], "--pred", p["probs"], "--region-merge",
                                       p["ids"]], "region 'tumor' has class ids outside [0, 3): [7]"),
    "evaluate-region-name": (lambda p: ["evaluate", "--ref", p["labels"], "--pred", p["probs"], "--region-merge",
                                        p["names"]], "region name '2' collides with the '2' row of the report"),
}


@pytest.mark.parametrize("case", FLAG_FAULTS)
def test_flags_and_region_maps_are_checked_before_any_payload_read(tmp_path, rng, capsys, monkeypatch, case):
    command, message = FLAG_FAULTS[case]
    paths = {role: str(path) for role, path in write_loss_files(tmp_path, rng, (8, 10, 12)).items()}
    for name, regions in (("ids", {"tumor": [7]}), ("names", {"2": [1]})):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(regions))
    forbid_payload_read(monkeypatch)
    out = tmp_path / "out"
    code, stdout, err = run(command(paths) + ["--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert one_error_line(err) == {"error": "validation", "message": message}
    assert not out.exists()


def test_encode_sigma_rule_takes_the_inputs_rank(tmp_path, rng, capsys):
    # 0.04 is below the 3D bound (about 0.045) and above the 2D one (about 0.037)
    flat, _ = make_labels(tmp_path, rng, "flat.svlv", dims=(6, 6))
    cube, _ = make_labels(tmp_path, rng, "cube.svlv", dims=(6, 6, 6))
    argv = ["encode", "--method", "svls", "--sigma", "0.04", "--out", str(tmp_path / "o.svlv"), "--in"]
    assert run(argv + [str(flat)], capsys)[0] == 0
    assert run(argv + [str(cube)], capsys)[0] == 1


def _set_float(path, index, value):
    """Set one payload float of a rank-3 class-first file, at (class, *voxel)."""
    blob = bytearray(path.read_bytes())
    shape = struct.unpack_from("<4I", blob, 16)
    offset = 32 + 4 * int(np.ravel_multi_index(index, shape))
    if callable(value):
        value = value(struct.unpack_from("<f", blob, offset)[0])
    struct.pack_into("<f", blob, offset, value)
    path.write_bytes(bytes(blob))


def _off_sum(p):
    return p + 0.25 if p < 0.5 else p - 0.25


# (prediction kind, row of a fault in the prediction, row of a sum fault in
# the target, operand and row named); None is no fault
LOSS_SLAB_FAULTS = {
    "target-sum-at-row-33": ("logits", None, 33, "target", 33),
    "target-sum-at-row-33-probs": ("probs", None, 33, "target", 33),
    "nan-in-the-last-logit-slab": ("logits", 39, None, "pred", 39),
    "target-slab-first": ("logits", 30, 10, "target", 10),
    "logit-slab-first": ("logits", 10, 30, "pred", 10),
    "same-slab-pred-first": ("logits", 20, 20, "pred", 20),
    "probs-slab-first": ("probs", 12, 25, "pred", 12),
    "probs-target-slab-first": ("probs", 25, 12, "target", 12),
}


@pytest.mark.parametrize("case", LOSS_SLAB_FAULTS)
def test_loss_reports_the_first_slab_fault_it_meets(tmp_path, rng, capsys, case):
    # 40 one-row slabs: a fault is met at its slab, --pred's rows before --target's
    kind, pred_row, target_row, named, row = LOSS_SLAB_FAULTS[case]
    paths = write_loss_files(tmp_path, rng, (40, 4, 4))
    pred, target = paths[kind], paths["target"]
    if pred_row is not None:
        _set_float(pred, (1, pred_row, 2, 3), math.nan if kind == "logits" else 1.5)
    if target_row is not None:
        _set_float(target, (0, target_row, 1, 2), _off_sum)
    out = tmp_path / "loss.json"
    argv = ["loss", "--target", str(target), "--pred", str(pred), "--pred-kind", kind, "--out", str(out)]
    with sum_block(16):
        code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (1, "")
    error = one_error_line(err)
    assert error["error"] == "validation"
    if named == "target":
        path, fault = target, "voxel (0, 1, 2) probabilities sum to "
    else:
        path, fault = pred, "logits must be finite" if kind == "logits" else "probabilities must lie in [0, 1]"
    assert error["message"].startswith(f"payload: rows {row}:{row + 1} of {path}: {fault}"), error
    assert not out.exists()


@pytest.mark.parametrize("row", [0, 27, 39])
def test_evaluate_names_the_rows_of_a_payload_fault_in_pred(tmp_path, rng, capsys, row):
    # 40 one-row slabs: --pred is checked slab by slab before any metric
    paths = write_loss_files(tmp_path, rng, (40, 4, 4))
    _set_float(paths["probs"], (1, row, 2, 3), math.nan)
    out = tmp_path / "eval"
    argv = ["evaluate", "--ref", str(paths["labels"]), "--pred", str(paths["probs"]), "--out", str(out)]
    with sum_block(16):
        code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (1, "")
    error = one_error_line(err)
    assert error["error"] == "validation"
    assert error["message"].startswith(f"payload: rows {row}:{row + 1} of {paths['probs']}: "
                                       "probabilities must lie in [0, 1]"), error
    assert not out.exists()


@pytest.mark.parametrize("change", [rename_over, rewrite_in_place], ids=["renamed-over", "rewritten-in-place"])
def test_evaluate_pred_changed_after_its_check_is_an_io_error(tmp_path, rng, capsys, monkeypatch, change):
    paths = write_loss_files(tmp_path, rng, (8, 10, 12))
    pred, other = paths["probs"], paths["target"]  # two valid files of one grid and size
    argmax_labels = cli.argmax_labels

    def change_then_argmax(predicted):  # after the check pass, before the first plane read
        change(pred, other)
        return argmax_labels(predicted)

    monkeypatch.setattr(cli, "argmax_labels", change_then_argmax)
    out = tmp_path / "eval"
    argv = ["evaluate", "--ref", str(paths["labels"]), "--pred", str(pred), "--out", str(out)]
    code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (2, "")
    assert one_error_line(err) == {"error": "io", "message": f"{pred} changed while it was being read"}
    assert not out.exists()


@pytest.mark.parametrize("kind", ["logits", "probs"])
@pytest.mark.parametrize("change", [rename_over, rewrite_in_place], ids=["renamed-over", "rewritten-in-place"])
@pytest.mark.parametrize("role", ["pred", "target"])
def test_loss_operand_changed_between_slab_reads_is_an_io_error(tmp_path, rng, capsys, monkeypatch, kind, change,
                                                                role):
    # 40 one-row slabs; after the first slab is scored, another valid file
    # on the same grid, of the same size, takes the operand's place
    paths = write_loss_files(tmp_path, rng, (40, 4, 4))
    (tmp_path / "other").mkdir()
    others = write_loss_files(tmp_path / "other", rng, (40, 4, 4))
    operands = {"pred": paths[kind], "target": paths["target"]}
    changed, other = operands[role], others[kind if role == "pred" else "target"]
    cross_entropy, scored = cli.cross_entropy, []

    def score_then_change(target, predicted):
        scored.append(target.dims)
        if len(scored) == 1:
            change(changed, other)
        return cross_entropy(target, predicted)

    monkeypatch.setattr(cli, "cross_entropy", score_then_change)
    out = tmp_path / "loss.json"
    argv = ["loss", "--target", str(operands["target"]), "--pred", str(operands["pred"]), "--pred-kind", kind,
            "--out", str(out)]
    with sum_block(16):
        code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (2, "")
    assert one_error_line(err) == {"error": "io", "message": f"{changed} changed while it was being read"}
    assert scored == [(1, 4, 4)]
    assert not out.exists()


def count_opens(monkeypatch):
    """Count, by path, the files the container reader opens for reading."""
    opens = {}

    def counting_open(file, mode="r", *args, **kwargs):
        if mode == "rb":
            opens[str(file)] = opens.get(str(file), 0) + 1
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(tensor_io, "open", counting_open, raising=False)
    return opens


# command lines, less --out, over the files of `write_loss_files`, another
# label volume `rater`, and the directories `refs` and `preds` of two
# volumes each; every path they name is an input volume, or a directory of them
OPEN_ONCE = {
    "encode-onehot": ["encode", "--in", "{labels}", "--method", "onehot"],
    "encode-ls": ["encode", "--in", "{labels}", "--method", "ls", "--alpha", "0.1"],
    "encode-svls": ["encode", "--in", "{labels}", "--method", "svls"],
    "fuse-msvls": ["fuse", "--in", "{labels}", "--method", "msvls"],  # one rater, as MSVLS allows
    "fuse-moh": ["fuse", "--in", "{labels}", "{rater}", "--method", "moh"],
    "evaluate": ["evaluate", "--ref", "{labels}", "--pred", "{probs}"],
    "loss-logits": ["loss", "--target", "{target}", "--pred", "{logits}", "--pred-kind", "logits"],
    "loss-probs": ["loss", "--target", "{target}", "--pred", "{probs}", "--pred-kind", "probs"],
    "evaluate-batch": ["evaluate", "--ref", "{refs}", "--pred", "{preds}"],
}


@pytest.mark.parametrize("case", OPEN_ONCE)
def test_every_input_volume_is_opened_once(tmp_path, rng, capsys, monkeypatch, case):
    paths = {role: str(path) for role, path in write_loss_files(tmp_path, rng, (8, 10, 12)).items()}
    for name in ("rater", "refs", "preds"):
        (tmp_path / name).mkdir()
        paths[name] = str(tmp_path / name)
    paths["rater"] = str(write_loss_files(tmp_path / "rater", rng, (8, 10, 12))["labels"])
    for name in ("a.svlv", "b.svlv"):
        write_volume(random_labels(rng, (4, 5), 3), tmp_path / "refs" / name)
        write_volume(one_hot_encode(random_labels(rng, (4, 5), 3)), tmp_path / "preds" / name)
    command = [arg.format(**paths) for arg in OPEN_ONCE[case]]
    inputs = [arg for arg in command if arg.startswith(str(tmp_path))]
    if case.endswith("batch"):
        inputs = [os.path.join(d, name) for d in inputs for name in ("a.svlv", "b.svlv")]
    opens = count_opens(monkeypatch)
    assert run(command + ["--out", str(tmp_path / "out" / "o.svlv")], capsys)[0] == 0
    assert {path: opens.get(path, 0) for path in inputs} == dict.fromkeys(inputs, 1)


@pytest.mark.skipif(sys.platform != "linux", reason="lists this process's descriptors as Linux shows them")
def test_failed_runs_leave_no_descriptor_open(tmp_path, rng, capsys, monkeypatch, request):
    paths = write_loss_files(tmp_path, rng, (40, 4, 4))
    _set_float(paths["logits"], (1, 2, 2, 3), math.nan)  # in the third of 40 one-row slabs
    gc.disable()  # so a descriptor that a reference cycle holds stays open
    request.addfinalizer(gc.enable)
    before = sorted(os.listdir("/proc/self/fd"))
    argv = ["loss", "--target", str(paths["target"]), "--pred", str(paths["logits"]), "--pred-kind", "logits",
            "--out", str(tmp_path / "loss.json")]
    with sum_block(16):
        assert run(argv, capsys)[0] == 1
    argmax_labels = cli.argmax_labels

    def change_then_argmax(predicted):
        rename_over(paths["probs"], paths["target"])
        return argmax_labels(predicted)

    monkeypatch.setattr(cli, "argmax_labels", change_then_argmax)
    argv = ["evaluate", "--ref", str(paths["labels"]), "--pred", str(paths["probs"]), "--out", str(tmp_path / "e")]
    assert run(argv, capsys)[0] == 2
    assert sorted(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("command", ["encode", "loss", "evaluate"])
def test_failed_batch_leaves_no_output_directory(tmp_path, rng, capsys, command):
    labels = random_labels(rng, (4, 4), 2)
    soft = one_hot_encode(labels)
    batch, partners = tmp_path / "batch", tmp_path / "partners"
    batch.mkdir()
    partners.mkdir()
    # the batch's first volume has the wrong kind for its flag, the second the right one
    wrong, right = (soft, labels) if command == "encode" else (labels, soft)
    write_volume(wrong, batch / "a.svlv")
    write_volume(right, batch / "b.svlv")
    for name in ("a.svlv", "b.svlv"):
        write_volume(soft if command == "loss" else labels, partners / name)
    argv = {
        "encode": ["encode", "--in", str(batch), "--method", "onehot"],
        "loss": ["loss", "--target", str(partners), "--pred", str(batch)],
        "evaluate": ["evaluate", "--ref", str(partners), "--pred", str(batch)],
    }[command]
    out = tmp_path / "out"
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert str(batch / "a.svlv") in error["message"]
    assert not out.exists()


def test_encode_writes_into_missing_directories(tmp_path, rng, capsys):
    src, vol = make_labels(tmp_path, rng)
    out = tmp_path / "new" / "deeper" / "o.svlv"
    code, _, _ = run(["encode", "--in", str(src), "--method", "onehot", "--out", str(out)], capsys)
    assert code == 0
    assert np.array_equal(read_volume(out).data, one_hot_encode(vol).data)
    assert sorted(p.name for p in out.parent.iterdir()) == ["o.svlv", "o.svlv.json"]


def test_encode_leaves_no_volume_when_its_sidecar_cannot_be_placed(tmp_path, rng, capsys):
    src, _ = make_labels(tmp_path, rng)
    out = tmp_path / "o.svlv"
    (tmp_path / "o.svlv.json").mkdir()  # the sidecar's rename fails after the payload's
    code, stdout, err = run(["encode", "--in", str(src), "--method", "onehot", "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert one_error_line(err)["error"] == "io"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.svlv", "labels.svlv.json", "o.svlv.json"]


# encode and fuse commands, less --out, over the 4-class label volumes `in0`-`in2`
STREAMED_WRITES = {
    "encode-svls": ["encode", "--in", "{in0}", "--method", "svls"],
    "encode-ls": ["encode", "--in", "{in0}", "--method", "ls", "--alpha", "0.1"],
    "fuse-msvls": ["fuse", "--in", "{in0}", "{in1}", "{in2}", "--method", "msvls"],
    "fuse-moh": ["fuse", "--in", "{in0}", "{in1}", "{in2}", "--method", "moh"],
}


def streamed_write(tmp_path, rng, case, dims=(10, 4, 4)):
    """The argv of STREAMED_WRITES[case] over fresh inputs, writing
    `out/o.svlv`; the output directory, made empty."""
    (tmp_path / "in").mkdir()
    paths = {f"in{j}": str(make_labels(tmp_path / "in", rng, f"r{j}.svlv", dims, 4)[0]) for j in range(3)}
    out = tmp_path / "out"
    out.mkdir()
    return [a.format(**paths) for a in STREAMED_WRITES[case]] + ["--out", str(out / "o.svlv")], out


@pytest.mark.parametrize("case", ["encode-svls", "fuse-msvls"])
@pytest.mark.parametrize("row", [0, 6, 9])
def test_a_bad_class_plane_is_refused_before_any_output_lands(tmp_path, rng, capsys, monkeypatch, case, row):
    # one voxel of class 2 is 1.5 when it is built; the staged payload is
    # checked one two-row slab at a time before anything is renamed
    argv, out = streamed_write(tmp_path, rng, case)
    class_planes = smoothing._class_planes

    def one_bad_voxel(raters, fill, planes):
        for c, plane in enumerate(class_planes(raters, fill, planes)):
            if c == 2:
                plane[row, 1, 3] = 1.5
            yield plane

    monkeypatch.setattr(smoothing, "_class_planes", one_bad_voxel)
    with sum_block(32):
        code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (1, "")
    error = one_error_line(err)
    start = row - row % 2
    assert error["error"] == "validation"
    assert error["message"].startswith(f"payload: rows {start}:{start + 2} of {out / 'o.svlv'}: "
                                       "probabilities must lie in [0, 1], found range ["), error
    assert error["message"].endswith(", 1.5]"), error
    assert list(out.iterdir()) == []  # no output, sidecar or .tmp-*.part


class _ThirdPlaneFails:
    """A staged file whose third array chunk, the third class plane, fails to be written."""

    def __init__(self, fh, planes):
        self.fh, self.planes = fh, planes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        if isinstance(chunk, np.ndarray):
            self.planes.append(chunk.shape)
            if len(self.planes) == 3:
                raise OSError(28, "No space left on device")
        return self.fh.write(chunk)


@pytest.mark.parametrize("case", STREAMED_WRITES)
def test_a_failed_plane_write_leaves_no_output(tmp_path, rng, capsys, monkeypatch, case):
    argv, out = streamed_write(tmp_path, rng, case)
    planes, fdopen = [], tensor_io.os.fdopen
    monkeypatch.setattr(tensor_io.os, "fdopen", lambda fd, mode: _ThirdPlaneFails(fdopen(fd, mode), planes))
    code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (2, "")
    assert one_error_line(err) == {"error": "io", "message": "[Errno 28] No space left on device"}
    assert planes == [(10, 4, 4)] * 3  # written one class plane at a time
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("case", STREAMED_WRITES)
def test_a_streamed_write_holds_the_library_volumes_bytes(tmp_path, rng, capsys, case):
    argv, out = streamed_write(tmp_path, rng, case)
    with sum_block(32):  # the staged check reads five slabs
        assert run(argv, capsys) == (0, "", "")
    raters = RaterSet(tuple(read_volume(p) for p in argv[argv.index("--in") + 1:argv.index("--method")]))
    expected = {
        "encode-svls": lambda: svls_smooth(raters.raters[0], 1.0),
        "encode-ls": lambda: label_smooth(raters.raters[0], 0.1),
        "fuse-msvls": lambda: msvls_fuse(raters, 1.0),
        "fuse-moh": lambda: moh_fuse(raters),
    }[case]()
    assert read_volume(out / "o.svlv").data.tobytes() == expected.data.tobytes()


@pytest.mark.parametrize("argv", [
    ["kernel", "--rank", "2"],
    ["phantom", "--kind", "homogeneous", "--dims", "2,2", "--out", "{d}/o.svlv"],
    ["encode", "--in", "{labels}", "--method", "svls", "--out", "{d}/o.svlv"],
    ["fuse", "--in", "{labels}", "{labels}", "--method", "msvls", "--out", "{d}/o.svlv"],
    ["evaluate", "--ref", "{labels}", "--pred", "{probs}", "--out", "{d}/eval"],
    ["loss", "--target", "{target}", "--pred", "{logits}", "--pred-kind", "logits", "--out", "{d}/loss.json"],
], ids=lambda argv: argv[0])
def test_every_subcommand_keeps_the_heap_it_frees(tmp_path, rng, capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append("kept"))
    paths = write_loss_files(tmp_path, rng, (4, 5, 6))
    assert run([a.format(d=tmp_path, **paths) for a in argv], capsys)[0] == 0
    assert calls == ["kept"]


def test_sidecar_num_classes_overflow_exits_with_validation_line(tmp_path, rng, capsys):
    src, _ = make_labels(tmp_path, rng)
    set_sidecar_token(src, "num_classes", "1e400")  # JSON parses it as inf
    code, _, err = run(["encode", "--in", str(src), "--method", "onehot", "--out", str(tmp_path / "o.svlv")],
                       capsys)
    assert code == 1
    assert last_error(err)["error"] == "validation"
    assert not (tmp_path / "o.svlv").exists()


# a sidecar value of another JSON kind, or one its container rejects, on a
# rank-3 label volume of 3 classes: (field, raw JSON text)
BAD_SIDECARS = {
    "spacing-digits": ("spacing", '"111"'),
    "spacing-strings": ("spacing", '["1", "1", "1"]'),
    "spacing-bool": ("spacing", "[true, 1, 1]"),
    "spacing-object": ("spacing", '{"1": 0, "2": 0, "3": 0}'),
    "spacing-two-entries": ("spacing", "[1.0, 1.0]"),
    "num-classes-string": ("num_classes", '"3"'),
    "num-classes-float": ("num_classes", "2.5"),
    "num-classes-bool": ("num_classes", "true"),
    "num-classes-one": ("num_classes", "1"),
    "provenance": ("provenance", '"svls"'),
}


@pytest.mark.parametrize("case", BAD_SIDECARS)
def test_bad_sidecar_value_exits_with_one_validation_line_naming_its_field(tmp_path, rng, capsys,
                                                                         monkeypatch, case):
    key, token = BAD_SIDECARS[case]
    src, _ = make_labels(tmp_path, rng)
    set_sidecar_token(src, key, token)
    forbid_payload_read(monkeypatch)
    out = tmp_path / "o.svlv"
    code, stdout, err = run(["encode", "--in", str(src), "--method", "onehot", "--out", str(out)], capsys)
    assert code == 1
    assert stdout == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "validation"
    assert error["message"].startswith("sidecar: " if key == "provenance" else f"{key}: ")
    assert not out.exists()


def _set_u32(offset, value):
    def damage(path):
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, offset, value)
        path.write_bytes(bytes(blob))
    return damage


def _bad_magic(path):
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])


def _cut_payload(path):
    path.write_bytes(path.read_bytes()[:-2])


def _drop_sidecar(path):
    (path.parent / (path.name + ".json")).unlink()


def _set_sidecar(field, token):
    return lambda path: set_sidecar_token(path, field, token)


# one fault per probability volume, each named by the field of its error
VOLUME_FAULTS = {
    "magic": _bad_magic,
    "version": _set_u32(4, 9),
    "dtype": _set_u32(8, 7),
    "rank": _set_u32(12, 5),
    "dims": _set_u32(16, 0),
    "payload": _cut_payload,
    "sidecar": _drop_sidecar,
    "spacing": _set_sidecar("spacing", "[0.0, 1.0, 1.0]"),
    "num_classes": _set_sidecar("num_classes", "5"),
}


@pytest.mark.parametrize("field", VOLUME_FAULTS)
def test_damaged_volume_exits_with_one_validation_line_naming_its_field(tmp_path, rng, capsys, field):
    ref, vol = make_labels(tmp_path, rng)
    pred = tmp_path / "pred.svlv"
    write_volume(one_hot_encode(vol), pred)
    VOLUME_FAULTS[field](pred)
    out = tmp_path / "eval"
    code, stdout, err = run(["evaluate", "--ref", str(ref), "--pred", str(pred), "--out", str(out)], capsys)
    assert code == 1
    assert stdout == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "validation"
    assert error["message"].startswith(f"{field}: ")
    assert not out.exists()


def test_allocation_too_large_is_a_validation_line(tmp_path, capsys):
    # 10^15 voxels (909 TiB) exceed the address space: numpy refuses at once
    out = tmp_path / "p.svlv"
    code, _, err = run(["phantom", "--kind", "homogeneous", "--dims", "100000,100000,100000", "--out", str(out)],
                       capsys)
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert error["message"].startswith("MemoryError: Unable to allocate")
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["inf", "nan"])
def test_kernel_rejects_non_finite_sigma(capsys, sigma):
    code, out, err = run(["kernel", "--rank", "2", "--sigma", sigma], capsys)
    assert code == 1
    assert out == ""
    error = last_error(err)
    assert error["error"] == "validation"
    assert "sigma" in error["message"]


@pytest.mark.parametrize("argv", [
    ["kernel", "--rank", "3", "--sigma", "1e-300"],  # sigma * sigma underflows to 0
    ["encode", "--in", "{d}/labels.svlv", "--method", "svls", "--sigma", "0.04", "--out", "{d}/s.svlv"],  # corners do
], ids=["kernel-1e-300", "encode-svls-0.04"])
def test_sigma_whose_weights_underflow_is_one_validation_line(tmp_path, rng, argv):
    make_labels(tmp_path, rng)
    argv = [a.format(d=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "svls.cli", *argv], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 1
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()  # no numpy RuntimeWarning around it
    error = json.loads(line)
    assert error["error"] == "validation"
    assert "sigma" in error["message"]
    assert not (tmp_path / "s.svlv").exists()


def test_kernel_small_sigma_runs_without_warning():
    # sigma 0.1 is above the corner-underflow bound: the surround sum of its
    # tiny taps must not be taken by cancelling the center out of the total
    proc = subprocess.run([sys.executable, "-m", "svls.cli", "kernel", "--rank", "3", "--sigma", "0.1"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["center"] == 1.0 and min(doc["taps"]) > 0
    assert doc["total_weight"] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("strength", ["inf", "nan"])
def test_phantom_rejects_non_finite_strength(tmp_path, capsys, strength):
    code, _, err = run(["phantom", "--kind", "miscalibrated_pred", "--dims", "4,4", "--strength", strength,
                        "--out", str(tmp_path / "p")], capsys)
    assert code == 1
    error = last_error(err)
    assert error["error"] == "validation"
    assert "strength" in error["message"]
    assert not (tmp_path / "p").exists()


# prints the scipy modules loaded by `import svls.cli` and, given arguments, one CLI run
_SCIPY_PROBE = """
import json, sys
from svls.cli import main
rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps({"rc": rc, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

SCIPY_FREE_RUNS = {
    "import": [],
    "kernel": ["kernel", "--rank", "3"],
    "encode_ls": ["encode", "--in", "{d}/labels.svlv", "--method", "ls", "--alpha", "0.1", "--out", "{d}/ls.svlv"],
    "encode_onehot": ["encode", "--in", "{d}/labels.svlv", "--method", "onehot", "--out", "{d}/oh.svlv"],
    "loss_probs": ["loss", "--target", "{d}/target.svlv", "--pred", "{d}/target.svlv", "--out", "{d}/p.json"],
    "loss_logits": ["loss", "--target", "{d}/target.svlv", "--pred", "{d}/logits.svlv", "--pred-kind", "logits",
                    "--out", "{d}/l.json"],
    "phantom": ["phantom", "--kind", "miscalibrated_pred", "--dims", "6,6,6", "--classes", "3", "--out", "{d}/ph"],
}

# the subcommands that run the stencil or Surface Dice, and fuse moh
STENCIL_AND_SURFACE_DICE_RUNS = {
    "encode_svls": ["encode", "--in", "{d}/labels.svlv", "--method", "svls", "--out", "{d}/svls.svlv"],
    "fuse_msvls": ["fuse", "--in", "{d}/labels.svlv", "{d}/other.svlv", "--method", "msvls", "--out", "{d}/m.svlv"],
    "fuse_moh": ["fuse", "--in", "{d}/labels.svlv", "{d}/other.svlv", "--method", "moh", "--out", "{d}/moh.svlv"],
    "evaluate": ["evaluate", "--ref", "{d}/labels.svlv", "--pred", "{d}/target.svlv", "--out", "{d}/ev"],
    "evaluate_region_merge": ["evaluate", "--ref", "{d}/labels.svlv", "--pred", "{d}/target.svlv",
                              "--region-merge", "{d}/regions.json", "--composite", "--out", "{d}/evr"],
}


def scipy_modules_loaded(tmp_path, rng, argv) -> dict:
    """Run `argv` in a fresh interpreter on small inputs; its exit code and the scipy modules it loaded."""
    from svls.loss import LogitVolume

    _, vol = make_labels(tmp_path, rng)
    make_labels(tmp_path, rng, name="other.svlv")
    write_volume(one_hot_encode(vol), tmp_path / "target.svlv")
    write_volume(LogitVolume(rng.normal(size=(3,) + vol.dims), vol.spacing), tmp_path / "logits.svlv")
    (tmp_path / "regions.json").write_text(json.dumps({"fg": [1, 2]}))
    argv = [a.format(d=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", SCIPY_FREE_RUNS)
def test_subcommands_without_stencil_or_surface_dice_do_not_load_scipy(tmp_path, rng, name):
    assert scipy_modules_loaded(tmp_path, rng, SCIPY_FREE_RUNS[name]) == {"rc": 0, "scipy": []}


@pytest.mark.parametrize("name", STENCIL_AND_SURFACE_DICE_RUNS)
def test_stencil_and_surface_dice_subcommands_do_not_load_scipy(tmp_path, rng, name):
    # with the test above: no subcommand loads scipy
    assert scipy_modules_loaded(tmp_path, rng, STENCIL_AND_SURFACE_DICE_RUNS[name]) == {"rc": 0, "scipy": []}


def test_unexpected_exception_is_internal_error_line(monkeypatch, capsys):
    def broken(plan):
        raise RuntimeError("handler broke")

    monkeypatch.setitem(cli._HANDLERS, "kernel", broken)
    code, out, err = run(["kernel", "--rank", "3"], capsys)
    assert code == 1
    assert out == ""
    assert last_error(err) == {"error": "internal", "message": "RuntimeError: handler broke"}
    assert "Traceback" not in err


def test_threads_flag_is_gone(capsys):
    code, _, err = run(["kernel", "--rank", "3", "--threads", "2"], capsys)
    assert code == 1
    assert last_error(err)["error"] == "validation"


def test_unknown_subcommand(capsys):
    code, _, err = run(["frobnicate"], capsys)
    assert code == 1


@pytest.mark.parametrize("argv, defaults", [
    (["evaluate", "--ref", "r.svlv", "--pred", "p.svlv", "--out", "e"],
     {"sd_tolerance": 2.0, "ece_bins": 15, "tace_threshold": 1e-3, "tace_ranges": 15}),
    (["phantom", "--kind", "homogeneous", "--dims", "4,4", "--out", "p.svlv"],
     {"classes": 2, "jitter": 0, "strength": 0.0, "seed": 0}),
], ids=["evaluate", "phantom"])
def test_flag_defaults(argv, defaults):
    plan = vars(cli.build_parser().parse_args(argv))
    assert {key: plan[key] for key in defaults} == defaults


def test_no_subcommand_is_a_validation_error(capsys):
    code, _, err = run([], capsys)
    assert code == 1
    assert last_error(err) == {"error": "validation", "message": "a subcommand is required (see svls --help)"}


def test_input_directory_without_volumes_is_rejected(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    out = tmp_path / "out"
    code, _, err = run(["encode", "--in", str(tmp_path / "empty"), "--method", "onehot", "--out", str(out)], capsys)
    assert code == 1
    assert last_error(err) == {"error": "validation",
                               "message": f"directory {tmp_path / 'empty'} contains no .svlv volumes"}
    assert not out.exists()


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for snippet in ("2.0", "15", "1e-3", "--foreground-only", "--sd-tolerance"):
        assert snippet in out


def test_idempotent_outputs(tmp_path, rng, capsys):
    src, _ = make_labels(tmp_path, rng, dims=(5, 5, 5), n=2)
    out1 = tmp_path / "a.svlv"
    out2 = tmp_path / "b.svlv"
    for out in (out1, out2):
        assert run(["encode", "--in", str(src), "--method", "svls", "--out", str(out)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
