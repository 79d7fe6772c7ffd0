"""SGD trainer: losses go down, and the paper's accuracy workflow holds."""

import numpy as np
import pytest

from repro.core import optimize
from repro.data import classification_batch, topk_accuracy
from repro.decompose import DecompositionConfig, decompose_graph
from repro.ir import GraphBuilder
from repro.runtime import execute
from repro.train import (SGDConfig, bce_with_probs, mse, softmax_cross_entropy,
                         train, train_classifier, train_segmenter)


def tiny_classifier(hw=16, channels=8, num_classes=4, batch=16, seed=0):
    b = GraphBuilder("tinycls", seed=seed)
    x = b.input("image", (batch, 3, hw, hw))
    h = b.relu(b.conv2d(x, channels, 3, padding=1, name="c1"))
    h = b.maxpool2d(h, 2)
    h = b.relu(b.conv2d(h, 2 * channels, 3, padding=1, name="c2"))
    h = b.flatten(b.global_avgpool(h))
    return b.finish(b.linear(h, num_classes, name="fc"))


def tiny_segmenter(hw=16, batch=8, seed=0):
    b = GraphBuilder("tinyseg", seed=seed)
    x = b.input("image", (batch, 3, hw, hw))
    h = b.relu(b.conv2d(x, 8, 3, padding=1, name="c1"))
    h = b.relu(b.conv2d(h, 8, 3, padding=1, name="c2"))
    return b.finish(b.sigmoid(b.conv2d(h, 1, 1, name="head")))


class TestLosses:
    def test_cross_entropy_value_and_grad(self):
        logits = np.array([[10.0, 0.0], [0.0, 10.0]])
        labels = np.array([0, 1])
        value, grad = softmax_cross_entropy(logits, labels)
        assert value < 1e-3
        assert grad.shape == logits.shape

    def test_cross_entropy_grad_matches_fd(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 5))
        labels = rng.integers(0, 5, 3)
        _, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for idx in [(0, 0), (1, 3), (2, 4)]:
            up = logits.copy(); up[idx] += eps
            down = logits.copy(); down[idx] -= eps
            fd = (softmax_cross_entropy(up, labels)[0]
                  - softmax_cross_entropy(down, labels)[0]) / (2 * eps)
            assert grad[idx] == pytest.approx(fd, abs=1e-6)

    def test_bce_grad_matches_fd(self):
        rng = np.random.default_rng(1)
        probs = rng.uniform(0.1, 0.9, size=(2, 1, 3, 3))
        target = (rng.random((2, 1, 3, 3)) > 0.5).astype(float)
        _, grad = bce_with_probs(probs, target)
        eps = 1e-7
        idx = (0, 0, 1, 1)
        up = probs.copy(); up[idx] += eps
        down = probs.copy(); down[idx] -= eps
        fd = (bce_with_probs(up, target)[0] - bce_with_probs(down, target)[0]) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-4)

    def test_mse(self):
        a = np.zeros((2, 2))
        b = np.ones((2, 2))
        value, grad = mse(a, b)
        assert value == 1.0
        np.testing.assert_allclose(grad, -2.0 / 4)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            bce_with_probs(np.zeros((2, 2)), np.zeros((3, 2)))


class TestSGD:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SGDConfig(learning_rate=0)

    def test_classifier_loss_decreases(self):
        g = tiny_classifier()
        result = train_classifier(g, steps=25, num_classes=4,
                                  config=SGDConfig(learning_rate=0.05))
        assert result.improved(), f"losses: {result.losses[:3]}...{result.losses[-3:]}"

    def test_classifier_learns_synthetic_task(self):
        g = tiny_classifier(batch=32)
        train_classifier(g, steps=60, num_classes=4,
                         config=SGDConfig(learning_rate=0.08))
        held_out = classification_batch(64, hw=16, num_classes=4, seed=9999)
        # run at the eval batch size by rebuilding graph inputs
        eval_g = tiny_classifier(batch=64)
        for node, trained in zip(eval_g.nodes, g.nodes):
            node.params = trained.params
        logits = execute(eval_g, {"image": held_out.images}).output()
        acc = topk_accuracy(logits, held_out.labels, k=1)
        assert acc > 0.5, f"top-1 accuracy only {acc:.2f}"

    def test_segmenter_loss_decreases(self):
        g = tiny_segmenter()
        result = train_segmenter(g, steps=15, config=SGDConfig(learning_rate=0.2))
        assert result.improved()


class TestPaperWorkflow:
    """Decompose → train → TeMCO: accuracy is preserved exactly (§4.4)."""

    def test_trained_decomposed_model_survives_temco(self):
        g = tiny_classifier(batch=16)
        dg = decompose_graph(g, DecompositionConfig(ratio=0.5))
        train_classifier(dg, steps=30, num_classes=4,
                         config=SGDConfig(learning_rate=0.05))
        optimized, report = optimize(dg)
        data = classification_batch(16, hw=16, num_classes=4, seed=321)
        logits_dec = execute(dg, {"image": data.images}).output()
        logits_opt = execute(optimized, {"image": data.images}).output()
        acc_dec = topk_accuracy(logits_dec, data.labels, k=1)
        acc_opt = topk_accuracy(logits_opt, data.labels, k=1)
        assert acc_opt == acc_dec
        np.testing.assert_allclose(logits_opt, logits_dec, atol=1e-4)
        assert report.peak_after <= report.peak_before
