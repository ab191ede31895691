"""Peak memory of reading and scoring a volume, as a multiple of its payload.

numpy reports its data buffers to tracemalloc, so these peaks count every
array a call holds at once and nothing of the wall clock or the process
RSS. On the 4-class volume of 1 MiB below, a float32 read peaks at 1.19x
its payload: the payload and one float64 slab (`volume.slabs`, 0.125x) of
the voxel sums' deviation from 1. It peaked at 1.57x while that deviation
was a whole float64 plane, 2.07x while the sums were a second one.
Reading, softmaxing and scoring float32 logits against a target peaks at
4.40x, and the `loss` subcommand on logits at 3.75x: it softmaxes the
prediction, and frees the logits, before it reads the target. With
softmax's divisor and the loss's scratch whole float64 planes the two
peaked at 4.82x and 4.13x; before the containers adopted fresh arrays and
logits stayed float32 the first peaked at 8.50x, and the subcommand at
5.39x while it read the target first. SVLS and MSVLS (three raters) peak
at 1.95x: the float32 result, one class's float64 correlation (0.5x), its
uint8 shell sums and one float64 slab of weighted shells. They peaked at
2.38x while the weighted shells took a whole float64 plane and the last
pair sum outlived the shell loop. `argmax_labels` peaks at 0.38x with its
one class-plane sweep, 1.50x with an int64 `np.argmax`. The calibration
report of a float32 prediction peaks at 0.75x: each metric sorts its
float32 population in place and sums one bin at a time, widening it to
float64 one fixed-size block at a time. A miscalibrated prediction, whose
confidences all fall in one bin, peaks at 0.68x; it peaked at 1.06x, and
the smoothed one at 0.88x, while each bin was widened whole. It peaked at
1.38x while TACE copied its population into `np.partition` and both
metrics binned through an int64 `np.digitize` index, 1.75x while
`reliability` took `np.argmax` and `max` apart, and 2.00x while
reliability and TACE binned float64 copies of the kept probabilities.
"""

import tracemalloc

import numpy as np
import pytest

from svls import (
    LabelVolume,
    LogitVolume,
    RaterSet,
    argmax_labels,
    calibrate_report,
    generate_miscalibrated,
    msvls_fuse,
    svls_smooth,
)
from svls.cli import main
from svls.loss import cross_entropy, softmax
from svls.tensor_io import read_logits, read_volume, write_volume

DIMS = (64, 32, 32)
PAYLOAD = 4 * 4 * int(np.prod(DIMS))  # 4 float32 class planes: 1 MiB

READ_BOUND = 1.3
LOSS_BOUND = 4.5
CLI_LOSS_BOUND = 3.9
SMOOTH_BOUND = 2.1
ARGMAX_BOUND = 0.6
CALIBRATION_BOUND = 0.9


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    rng = np.random.default_rng(0)
    d = tmp_path_factory.mktemp("memory")
    labels = LabelVolume(rng.integers(0, 4, size=DIMS).astype(np.uint8), (1.0,) * 3, 4)
    write_volume(svls_smooth(labels, 1.0), d / "target.svlv")
    scores = rng.normal(size=(4,) + DIMS).astype(np.float32)
    write_volume(LogitVolume(scores, labels.spacing), d / "logits.svlv")
    return d / "target.svlv", d / "logits.svlv"


def peak_ratio(fn) -> float:
    """Peak traced bytes while `fn` runs, above those held before it, per payload byte."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / PAYLOAD


def test_read_volume_peak(paths):
    target, _ = paths
    ratio = peak_ratio(lambda: read_volume(target))
    assert 1.0 <= ratio <= READ_BOUND, ratio


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
    assert 1.0 <= ratio <= CLI_LOSS_BOUND, ratio


def test_svls_smooth_peak():
    rng = np.random.default_rng(0)
    labels = LabelVolume(rng.integers(0, 4, size=DIMS).astype(np.uint8), (1.0,) * 3, 4)
    ratio = peak_ratio(lambda: svls_smooth(labels, 1.0))
    # at least the float32 result and one float64 class plane
    assert 1.5 <= ratio <= SMOOTH_BOUND, ratio


def test_msvls_fuse_peak():
    rng = np.random.default_rng(0)
    raters = [LabelVolume(rng.integers(0, 4, size=DIMS).astype(np.uint8), (1.0,) * 3, 4) for _ in range(3)]
    ratio = peak_ratio(lambda: msvls_fuse(RaterSet(tuple(raters)), 1.0))
    assert 1.5 <= ratio <= SMOOTH_BOUND, ratio


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
