"""Peak memory of reading and scoring a volume, as a multiple of its payload.

numpy reports its data buffers to tracemalloc, so these peaks count every
array a call holds at once and nothing of the wall clock or the process
RSS. On the 4-class volume of 1 MiB below:

- A float32 read peaks at 1.21x: the payload and one float64 slab
  (`volume.slabs`, 0.125x) of the voxel sums' deviation from 1.
- `cross_entropy` of two float32 volumes read before it peaks at 0.32x: the
  two float64 slabs it sums the class terms in, and no per-voxel grid.
  Reading, softmaxing and scoring float32 logits against a target peaks at
  4.41x, most of it the whole float64 probabilities.
- The `loss` subcommand on logits peaks at 1.13x, and at 0.28x on a
  64x64x64 cube (4 MiB), for one cube and for a batch of two: it holds one
  slab of rows of both operands as read from their files, its float64
  probabilities and its loss, and adds up the slabs' loss sums. A slab is
  a quarter of the 1 MiB volume and a sixteenth of the cube. On
  probabilities it peaks at 0.89x, the same without the softmax.
- SVLS and MSVLS (three raters) peak at 1.57x: the float32 result, one
  class's uint8 vote count and shell sums (0.25x), and two float64 slabs
  (0.25x) in which the stencil sums, divides and rounds into the result.
  LS, one-hot and MOH (three raters) peak at 1.25-1.32x: the float32
  result, one class's vote count and float64 slabs of the per-voxel step.
- `argmax_labels` peaks at 0.38x with its one class-plane sweep.
- The calibration report of a float32 prediction peaks at 0.75x: each
  metric sorts its float32 population in place and sums one bin at a time,
  widening it to float64 one fixed-size block at a time. A miscalibrated
  prediction, whose confidences all fall in one bin, peaks at 0.68x.
- The `encode` and `fuse` subcommands build each class plane one slab of
  rows at a time and write each float64 slab to the staged file as it is
  rounded to float32, so no whole plane is held, then read the staged file
  back one slab of rows (0.25x at this size) at a time to check it before
  it is renamed into place: `encode --method svls` peaks at 0.65x and
  `fuse --method msvls` (three raters) at 0.66x, holding the vote count,
  its shell sums and the stencil's two float64 slabs, and `encode --method
  ls` at 0.50x. They read each input whole once per class as its votes are
  counted and hold no label volume beyond that, so at 64x64x64 the
  `fuse --method msvls` peak with 12 raters is within a fifth of a rater
  of its peak with 3.
- The `evaluate` subcommand on a 4-class SVLS-smoothed prediction of this
  size peaks at 0.89x: it checks the prediction one slab of rows at a
  time, then reads it one class plane (0.25x) at a time, for each sweep of
  `top_class` and for each class of TACE, so the largest step holds about
  two planes and their sorted population.

A homogeneous phantom peaks at 1.0x its uint8 labels, which the container
adopts. `phantom --raters D` writes each rater as it is made, so at
16x16x16 (4 KiB a rater) its peak for 64 raters is within a quarter of a
rater of its peak for 2. The Surface Dice tolerance ball peaks at 9.0
bytes per offset, its float64 squared lengths and the boolean ball, summed
from each axis's 1-D squares. A nested-spheres phantom of 64x64x64 peaks
at 2.0 bytes per voxel: its uint8 labels and the float64 distances of one
slab of rows (0.5 bytes per voxel of the cube), with numpy's 128 KiB of
ufunc buffers while they are summed.
"""

import gc
import shutil
import tracemalloc

import numpy as np
import pytest

from svls import (
    LabelVolume,
    LogitVolume,
    PhantomSpec,
    RaterSet,
    argmax_labels,
    calibrate_report,
    generate_labels,
    generate_miscalibrated,
    label_smooth,
    moh_fuse,
    msvls_fuse,
    one_hot_encode,
    svls_smooth,
)
from svls import tensor_io
from svls.cli import main
from svls.loss import cross_entropy, softmax
from svls.seg_metrics import _tolerance_ball
from svls.tensor_io import read_logits, read_volume, write_volume

DIMS = (64, 32, 32)
PAYLOAD = 4 * 4 * int(np.prod(DIMS))  # 4 float32 class planes: 1 MiB
CUBE = (64, 64, 64)  # 16 slabs of 4 rows: 4 MiB

READ_BOUND = 1.3
CROSS_ENTROPY_BOUND = 0.4
LOSS_BOUND = 4.5
CLI_LOSS_BOUND = 1.3
CLI_LOSS_CUBE_BOUND = 0.35
CLI_PROBS_LOSS_BOUND = 1.0
SMOOTH_BOUND = 1.6
ENCODE_BOUND = 1.4
ARGMAX_BOUND = 0.6
CALIBRATION_BOUND = 0.9
CLI_EVALUATE_BOUND = 1.1
CLI_SMOOTH_BOUND = 0.75  # encode --method svls, fuse --method msvls
CLI_ENCODE_BOUND = 0.6  # encode --method ls
BALL_BYTES_BOUND = 16  # traced bytes per offset of a Surface Dice tolerance ball
PHANTOM_BYTES_BOUND = 2.5  # traced bytes per voxel of a nested-spheres phantom
HOMOGENEOUS_BOUND = 1.2  # a homogeneous phantom, per byte of its labels
RATER_BYTES = 16**3  # one uint8 rater of a 16x16x16 phantom


def write_loss_inputs(d, dims):
    """A 4-class SVLS target and float32 logits of `dims`; their paths."""
    rng = np.random.default_rng(0)
    labels = LabelVolume(rng.integers(0, 4, size=dims).astype(np.uint8), (1.0,) * 3, 4)
    write_volume(svls_smooth(labels, 1.0), d / "target.svlv")
    scores = rng.normal(size=(4,) + dims).astype(np.float32)
    write_volume(LogitVolume(scores, labels.spacing), d / "logits.svlv")
    return d / "target.svlv", d / "logits.svlv"


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_loss_inputs(tmp_path_factory.mktemp("memory"), DIMS)


def peak_ratio(fn, payload=PAYLOAD) -> float:
    """Peak traced bytes while `fn` runs, above those held before it, per payload byte."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / payload


def test_read_volume_peak(paths):
    target, _ = paths
    ratio = peak_ratio(lambda: read_volume(target))
    assert 1.0 <= ratio <= READ_BOUND, ratio


def test_cross_entropy_peak(paths):
    target, _ = paths
    first, second = read_volume(target), read_volume(target)
    ratio = peak_ratio(lambda: cross_entropy(first, second))
    # at least its two float64 slabs, each an eighth of the payload
    assert 0.25 <= ratio <= CROSS_ENTROPY_BOUND, ratio


def test_loss_from_logits_peak(paths):
    target, logits = paths
    ratio = peak_ratio(lambda: cross_entropy(read_volume(target), softmax(read_logits(logits))))
    assert 1.0 <= ratio <= LOSS_BOUND, ratio


def test_cli_loss_from_logits_peak(paths, tmp_path):
    target, logits = paths
    argv = ["loss", "--target", str(target), "--pred", str(logits), "--pred-kind", "logits",
            "--out", str(tmp_path / "loss.json")]
    ratio = peak_ratio(lambda: main(argv))
    assert (tmp_path / "loss.json").exists()
    # at least one slab of the float64 probabilities: a quarter of twice the payload
    assert 0.5 <= ratio <= CLI_LOSS_BOUND, ratio


def test_cli_loss_from_probabilities_peak(paths, tmp_path):
    # at least one slab of both operands (0.5x), and no whole operand
    target, _ = paths
    argv = ["loss", "--target", str(target), "--pred", str(target), "--pred-kind", "probs",
            "--out", str(tmp_path / "loss.json")]
    ratio = peak_ratio(lambda: main(argv))
    assert (tmp_path / "loss.json").exists()
    assert 0.5 <= ratio <= CLI_PROBS_LOSS_BOUND, ratio


@pytest.mark.parametrize("batch", [1, 2])
def test_cli_loss_from_logits_peak_over_many_slabs(tmp_path, batch):
    # the slabs shrink with the slab share, and a batch holds one pair's
    # slabs at a time
    target, logits = write_loss_inputs(tmp_path, CUBE)
    pred_dir, target_dir = tmp_path / "pred", tmp_path / "target"
    for d, src in ((pred_dir, logits), (target_dir, target)):
        d.mkdir()
        for i in range(batch):
            for suffix in ("", ".json"):
                shutil.copy(f"{src}{suffix}", d / f"v{i}.svlv{suffix}")
    argv = ["loss", "--target", str(target_dir), "--pred", str(pred_dir), "--pred-kind", "logits",
            "--out", str(tmp_path / "out")]
    ratio = peak_ratio(lambda: main(argv), payload=4 * 4 * int(np.prod(CUBE)))
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [f"v{i}.json" for i in range(batch)]
    # at least one slab of the float64 probabilities: a sixteenth of twice the payload
    assert 0.125 <= ratio <= CLI_LOSS_CUBE_BOUND, ratio


def test_svls_smooth_peak():
    rng = np.random.default_rng(0)
    labels = LabelVolume(rng.integers(0, 4, size=DIMS).astype(np.uint8), (1.0,) * 3, 4)
    ratio = peak_ratio(lambda: svls_smooth(labels, 1.0))
    # at least the float32 result, the vote count and its three shell sums,
    # and the two float64 slabs of the sum and one weighted shell
    assert 1.5 <= ratio <= SMOOTH_BOUND, ratio


def test_msvls_fuse_peak():
    rng = np.random.default_rng(0)
    raters = [LabelVolume(rng.integers(0, 4, size=DIMS).astype(np.uint8), (1.0,) * 3, 4) for _ in range(3)]
    ratio = peak_ratio(lambda: msvls_fuse(RaterSet(tuple(raters)), 1.0))
    assert 1.5 <= ratio <= SMOOTH_BOUND, ratio


@pytest.mark.parametrize("encode", [
    lambda labels, raters: label_smooth(labels, 0.1),
    lambda labels, raters: one_hot_encode(labels),
    lambda labels, raters: moh_fuse(RaterSet(raters)),
], ids=["label_smooth", "one_hot_encode", "moh_fuse"])
def test_per_voxel_encoder_peak(encode):
    rng = np.random.default_rng(0)
    raters = tuple(LabelVolume(rng.integers(0, 4, size=DIMS).astype(np.uint8), (1.0,) * 3, 4) for _ in range(3))
    ratio = peak_ratio(lambda: encode(raters[0], raters))
    # at least the float32 result
    assert 1.0 <= ratio <= ENCODE_BOUND, ratio


def test_argmax_labels_peak(paths):
    target, _ = paths
    predicted = read_volume(target)
    ratio = peak_ratio(lambda: argmax_labels(predicted))
    assert 0.0 < ratio <= ARGMAX_BOUND, ratio


def test_calibrate_report_peak(paths):
    target, _ = paths
    predicted = read_volume(target)
    assert predicted.data.dtype == np.float32
    reference = argmax_labels(predicted)
    ratio = peak_ratio(lambda: calibrate_report(reference, predicted))
    # at least the float32 confidence plane: a quarter of the 4-class payload
    assert 0.25 <= ratio <= CALIBRATION_BOUND, ratio


def test_calibrate_report_peak_with_one_occupied_bin():
    rng = np.random.default_rng(0)
    reference = LabelVolume(rng.integers(0, 4, size=DIMS).astype(np.uint8), (1.0,) * 3, 4)
    predicted = generate_miscalibrated(reference, 0.1)
    assert predicted.data.dtype == np.float32
    assert sum(b.count > 0 for b in calibrate_report(reference, predicted).bins) == 1
    ratio = peak_ratio(lambda: calibrate_report(reference, predicted))
    assert 0.25 <= ratio <= CALIBRATION_BOUND, ratio


def test_cli_evaluate_peak(tmp_path):
    rng = np.random.default_rng(0)
    labels = LabelVolume(rng.integers(0, 4, size=DIMS).astype(np.uint8), (1.0,) * 3, 4)
    write_volume(labels, tmp_path / "ref.svlv")
    write_volume(svls_smooth(labels, 1.0), tmp_path / "pred.svlv")
    out = tmp_path / "eval"
    argv = ["evaluate", "--ref", str(tmp_path / "ref.svlv"), "--pred", str(tmp_path / "pred.svlv"), "--out", str(out)]
    ratio = peak_ratio(lambda: main(argv))
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["calibration.json", "reliability.csv", "segmentation.json", "segmentation.csv"])
    # at least the float32 top value and one class plane of a `top_class` sweep
    assert 0.5 <= ratio <= CLI_EVALUATE_BOUND, ratio


@pytest.mark.parametrize("command, bound", [
    (["encode", "--in", "{r0}", "--method", "svls"], CLI_SMOOTH_BOUND),
    (["encode", "--in", "{r0}", "--method", "ls", "--alpha", "0.1"], CLI_ENCODE_BOUND),
    (["fuse", "--in", "{r0}", "{r1}", "{r2}", "--method", "msvls"], CLI_SMOOTH_BOUND),
], ids=["encode-svls", "encode-ls", "fuse-msvls"])
def test_cli_streamed_write_peak(tmp_path, command, bound):
    rng = np.random.default_rng(0)
    paths = {}
    for j in range(3):
        paths[f"r{j}"] = str(tmp_path / f"r{j}.svlv")
        write_volume(LabelVolume(rng.integers(0, 4, size=DIMS).astype(np.uint8), (1.0,) * 3, 4), paths[f"r{j}"])
    out = tmp_path / "out"
    argv = [a.format(**paths) for a in command] + ["--out", str(out / "soft.svlv")]
    ratio = peak_ratio(lambda: main(argv))
    assert sorted(p.name for p in out.iterdir()) == ["soft.svlv", "soft.svlv.json"]
    # at least what the staged check holds at once: one slab of rows of the
    # four float32 class planes (0.25x) and the float64 slab of their voxel
    # sums (0.125x)
    assert 0.375 <= ratio <= bound, ratio


def test_cli_fuse_peak_does_not_grow_with_the_rater_count(tmp_path):
    rng = np.random.default_rng(0)
    paths = []
    for j in range(12):
        paths.append(str(tmp_path / f"r{j:02d}.svlv"))
        write_volume(LabelVolume(rng.integers(0, 4, size=CUBE).astype(np.uint8), (1.0,) * 3, 4), paths[-1])

    def fuse(raters):
        out = tmp_path / str(raters) / "fused.svlv"
        return lambda: main(["fuse", "--in", *paths[:raters], "--method", "msvls", "--out", str(out)])

    fuse(3)()  # first-call caches stay out of both peaks
    few, many = (peak_ratio(fuse(d), payload=int(np.prod(CUBE))) for d in (3, 12))
    assert (tmp_path / "12" / "fused.svlv").exists()
    # one uint8 rater of the cube is the payload
    assert many - few <= 1, (few, many)


def test_tolerance_ball_peak():
    # a tolerance past the volume clamps the reach to n - 1 on every axis
    shape, spacing = (24, 36, 36), (1.0, 1.0, 1.0)
    size = _tolerance_ball(shape, spacing, 1000.0).size
    assert size == 47 * 71 * 71
    ratio = peak_ratio(lambda: _tolerance_ball(shape, spacing, 1000.0), payload=size)
    # at least the float64 squared lengths and the boolean ball
    assert 9.0 <= ratio <= BALL_BYTES_BOUND, ratio


def test_nested_spheres_peak():
    # 16 slabs of 4 rows
    spec = PhantomSpec("nested_spheres", CUBE, num_classes=3)
    ratio = peak_ratio(lambda: generate_labels(spec), payload=64**3)
    # at least the uint8 labels and one slab of float64 distances
    assert 1.5 <= ratio <= PHANTOM_BYTES_BOUND, ratio


def test_homogeneous_phantom_peak():
    spec = PhantomSpec("homogeneous", (64, 64, 64))
    ratio = peak_ratio(lambda: generate_labels(spec), payload=64**3)
    # at least the uint8 labels, adopted by the container without a copy
    assert 1.0 <= ratio <= HOMOGENEOUS_BOUND, ratio


def test_cli_phantom_raters_peak_does_not_grow_with_their_count(tmp_path, monkeypatch):
    # each write leaves reference cycles of the pure-Python JSON encoder, which pile
    # up with the rater count until the collector reaches them; collected after each
    # write, they stay out of the peak, which then counts the arrays the run holds
    write = tensor_io.write_volume

    def write_and_collect(*args, **kwargs):
        write(*args, **kwargs)
        gc.collect()

    monkeypatch.setattr(tensor_io, "write_volume", write_and_collect)

    def phantom(raters):
        argv = ["phantom", "--kind", "nested_spheres", "--dims", "16,16,16", "--classes", "3",
                "--raters", str(raters), "--jitter", "2", "--out", str(tmp_path / str(raters))]
        return lambda: main(argv)

    phantom(2)()  # first-call caches stay out of both peaks
    few, many = (peak_ratio(phantom(d), payload=RATER_BYTES) for d in (2, 64))
    assert len(list((tmp_path / "64").glob("rater*.svlv"))) == 64
    assert many - few <= 2, (few, many)
