"""Soft segmentation labels and calibration metrics for 2D/3D label volumes."""

# set before the submodule imports, so a submodule may import it
__version__ = "0.1.0"

from .calibration import CalibrationReport, ReliabilityBin, calibrate_report, ece, reliability, tace
from .engine import SvlsKernel
from .loss import LossReport, ce_gradient, cross_entropy, softmax
from .phantom import PhantomSpec, generate_labels, generate_miscalibrated, generate_rater_set
from .seg_metrics import SegmentationScores, dice, score_segmentation, surface_dice
from .smoothing import RaterSet, label_smooth, moh_fuse, msvls_fuse, one_hot_encode, svls_smooth
from .volume import LabelVolume, LogitVolume, SoftLabelVolume, argmax_labels

__all__ = [
    "CalibrationReport",
    "LabelVolume",
    "LogitVolume",
    "LossReport",
    "PhantomSpec",
    "RaterSet",
    "ReliabilityBin",
    "SegmentationScores",
    "SoftLabelVolume",
    "SvlsKernel",
    "argmax_labels",
    "calibrate_report",
    "ce_gradient",
    "cross_entropy",
    "dice",
    "ece",
    "generate_labels",
    "generate_miscalibrated",
    "generate_rater_set",
    "label_smooth",
    "moh_fuse",
    "msvls_fuse",
    "one_hot_encode",
    "reliability",
    "score_segmentation",
    "softmax",
    "surface_dice",
    "svls_smooth",
    "tace",
]
