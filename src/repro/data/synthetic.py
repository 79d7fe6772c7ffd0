"""Synthetic datasets standing in for ILSVRC-2012 and Carvana.

The paper evaluates accuracy on ImageNet (classification) and Carvana
(car segmentation).  Neither is available offline, so we generate
deterministic synthetic equivalents that exercise the same code paths:

- :func:`classification_batch` — class-conditioned textured images.
  Each class has a characteristic low-frequency pattern plus noise, so
  a trained (or probed) model can genuinely separate classes and top-k
  metrics are meaningful.
- :func:`segmentation_batch` — images containing a bright convex
  "car-like" blob on a textured background, with the exact binary mask,
  so dice scores are meaningful.
- :func:`random_inputs` — seeded Gaussian noise shaped like a graph's
  inputs: the payload every timing run, audit and load generator feeds.

What matters for the reproduction is *relative* accuracy between the
decomposed model and its TeMCO-optimized form (the paper's claim is
zero degradation); these generators make that comparison executable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["classification_batch", "segmentation_batch", "ClassificationBatch",
           "SegmentationBatch", "random_inputs"]


def random_inputs(graph, seed: int = 0, *,
                  samples: int | None = None) -> dict[str, np.ndarray]:
    """Seeded standard-normal arrays for every input of ``graph``, in
    input order from one generator (so a seed names one payload).
    ``samples`` overrides the batch dimension — a serving request
    carries fewer samples than the graph's static batch."""
    rng = np.random.default_rng(seed)
    return {v.name: rng.normal(
                size=v.shape if samples is None else (samples,) + v.shape[1:]
            ).astype(v.dtype.np)
            for v in graph.inputs}


@dataclass(frozen=True)
class ClassificationBatch:
    images: np.ndarray  # (N, 3, H, W) float32
    labels: np.ndarray  # (N,) int64


@dataclass(frozen=True)
class SegmentationBatch:
    images: np.ndarray  # (N, 3, H, W) float32
    masks: np.ndarray   # (N, 1, H, W) float32 in {0, 1}


def _class_pattern(rng: np.random.Generator, hw: int) -> np.ndarray:
    """A smooth class-specific texture: random low-frequency Fourier mix."""
    yy, xx = np.meshgrid(np.linspace(0, 2 * np.pi, hw),
                         np.linspace(0, 2 * np.pi, hw), indexing="ij")
    pattern = np.zeros((3, hw, hw), dtype=np.float64)
    for _ in range(4):
        fy, fx = rng.integers(1, 5, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        channel_mix = rng.normal(size=3)
        wave = np.sin(fy * yy + fx * xx + phase)
        pattern += channel_mix[:, None, None] * wave
    return pattern


def classification_batch(batch: int, hw: int = 64, num_classes: int = 10,
                         seed: int = 0, noise: float = 0.5) -> ClassificationBatch:
    """Deterministic labeled images: class texture + per-sample noise."""
    if batch < 1 or num_classes < 2:
        raise ValueError(f"need batch >= 1 and num_classes >= 2, got {batch}, {num_classes}")
    rng = np.random.default_rng(seed)
    class_rng = np.random.default_rng(12345)  # patterns fixed across seeds
    patterns = [_class_pattern(class_rng, hw) for _ in range(num_classes)]
    labels = rng.integers(0, num_classes, size=batch)
    images = np.stack([patterns[int(label)] for label in labels])
    images = images + noise * rng.normal(size=images.shape)
    return ClassificationBatch(images=images.astype(np.float32),
                               labels=labels.astype(np.int64))


def segmentation_batch(batch: int, hw: int = 96, seed: int = 0,
                       noise: float = 0.3) -> SegmentationBatch:
    """Images with one bright elliptical blob each, plus exact masks."""
    if batch < 1:
        raise ValueError(f"need batch >= 1, got {batch}")
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(hw), np.arange(hw), indexing="ij")
    images = np.empty((batch, 3, hw, hw), dtype=np.float64)
    masks = np.empty((batch, 1, hw, hw), dtype=np.float64)
    for i in range(batch):
        cy, cx = rng.uniform(0.3 * hw, 0.7 * hw, size=2)
        ry, rx = rng.uniform(0.12 * hw, 0.3 * hw, size=2)
        angle = rng.uniform(0, np.pi)
        dy, dx = yy - cy, xx - cx
        ry_ = np.cos(angle) * dy + np.sin(angle) * dx
        rx_ = -np.sin(angle) * dy + np.cos(angle) * dx
        blob = (ry_ / ry) ** 2 + (rx_ / rx) ** 2 <= 1.0
        masks[i, 0] = blob
        background = 0.2 * np.sin(yy / 7.0) * np.cos(xx / 9.0)
        for c in range(3):
            images[i, c] = background + blob * rng.uniform(0.8, 1.4)
    images += noise * rng.normal(size=images.shape)
    return SegmentationBatch(images=images.astype(np.float32),
                             masks=masks.astype(np.float32))
