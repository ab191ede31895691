import json
import os
import shlex
import struct
import subprocess
import sys

import numpy as np
import pytest

import svls
from svls import LabelVolume, SvlsKernel, one_hot_encode, score_segmentation
from svls import cli
from svls.cli import main
from svls.tensor_io import read_volume, write_report, write_volume

from conftest import forbid_payload_read, random_labels, set_sidecar_token


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
        write_report(scores, tmp_path / "lib" / name, format=name.rsplit(".", 1)[1])
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
