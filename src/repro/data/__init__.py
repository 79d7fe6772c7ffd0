"""Synthetic datasets and metrics (offline stand-ins for ILSVRC/Carvana)."""

from .metrics import dice_score, prediction_agreement, topk_accuracy
from .synthetic import (ClassificationBatch, SegmentationBatch,
                        classification_batch, random_inputs,
                        segmentation_batch)

__all__ = [
    "ClassificationBatch",
    "SegmentationBatch",
    "classification_batch",
    "segmentation_batch",
    "random_inputs",
    "topk_accuracy",
    "dice_score",
    "prediction_agreement",
]
