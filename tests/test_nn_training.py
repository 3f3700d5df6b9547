"""Tests for optimizers, triplet loss and semi-hard mining."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    L2Normalize,
    Linear,
    ReLU,
    Sequential,
    semi_hard_triplets,
    triplet_loss_and_grad,
)
from repro.nn.losses import pairwise_squared_distances, triplet_losses


class TestOptimizers:
    def _regression_problem(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 5)).astype(np.float32)
        true_w = rng.standard_normal((5, 1)).astype(np.float32)
        y = x @ true_w
        return x, y

    def _train(self, optimizer_cls, **kwargs) -> float:
        x, y = self._regression_problem()
        model = Sequential([Linear(5, 8), ReLU(), Linear(8, 1)])
        optimizer = optimizer_cls(model, **kwargs)
        initial = float(np.mean((model.forward(x) - y) ** 2))
        for __ in range(200):
            optimizer.zero_grad()
            out = model.forward(x, training=True)
            model.backward(2 * (out - y) / len(x))
            optimizer.step()
        final = float(np.mean((model.forward(x) - y) ** 2))
        assert final < initial
        return final

    def test_adam_reduces_loss(self):
        assert self._train(Adam, learning_rate=0.01) < 0.05

    def test_invalid_learning_rate(self):
        model = Sequential([Linear(2, 1)])
        with pytest.raises(ValueError):
            Adam(model, learning_rate=0.0)

    def test_weight_decay_shrinks_weights(self):
        model = Sequential([Linear(3, 3)])
        model.layers[0].params["W"] = np.ones((3, 3), dtype=np.float32)
        optimizer = Adam(model, learning_rate=0.1, weight_decay=1.0)
        optimizer.zero_grad()
        optimizer.step()
        assert np.all(model.layers[0].params["W"] < 1.0)


class TestTripletLoss:
    def test_zero_when_margin_satisfied(self):
        anchor = np.array([[1.0, 0.0]], dtype=np.float32)
        positive = np.array([[1.0, 0.0]], dtype=np.float32)
        negative = np.array([[-1.0, 0.0]], dtype=np.float32)
        loss, da, dp, dn = triplet_loss_and_grad(anchor, positive, negative, margin=0.5)
        assert loss == 0.0
        assert np.allclose(da, 0.0) and np.allclose(dp, 0.0) and np.allclose(dn, 0.0)

    def test_positive_when_violated(self):
        anchor = np.array([[0.0, 0.0]], dtype=np.float32)
        positive = np.array([[1.0, 0.0]], dtype=np.float32)
        negative = np.array([[0.0, 0.1]], dtype=np.float32)
        loss, *_ = triplet_loss_and_grad(anchor, positive, negative, margin=0.5)
        assert loss == pytest.approx(1.0 - 0.01 + 0.5, abs=1e-5)

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        anchor = rng.standard_normal((4, 3)).astype(np.float32)
        positive = rng.standard_normal((4, 3)).astype(np.float32)
        negative = rng.standard_normal((4, 3)).astype(np.float32)
        loss, da, dp, dn = triplet_loss_and_grad(anchor, positive, negative, margin=0.5)
        eps = 1e-4
        for array, grad in [(anchor, da), (positive, dp), (negative, dn)]:
            index = (1, 2)
            original = array[index]
            array[index] = original + eps
            loss_plus = triplet_loss_and_grad(anchor, positive, negative, 0.5)[0]
            array[index] = original - eps
            loss_minus = triplet_loss_and_grad(anchor, positive, negative, 0.5)[0]
            array[index] = original
            numeric = (loss_plus - loss_minus) / (2 * eps)
            assert numeric == pytest.approx(grad[index], abs=1e-2)

    def test_empty_batch(self):
        empty = np.zeros((0, 4), dtype=np.float32)
        loss, da, dp, dn = triplet_loss_and_grad(empty, empty, empty)
        assert loss == 0.0
        assert da.shape == (0, 4)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            triplet_loss_and_grad(
                np.zeros((2, 3), dtype=np.float32),
                np.zeros((2, 3), dtype=np.float32),
                np.zeros((3, 3), dtype=np.float32),
            )

    def test_training_separates_synthetic_clusters(self):
        """Triplet training on a toy two-cluster problem separates the clusters."""
        rng = np.random.default_rng(1)
        cluster_a = rng.normal(0.0, 0.1, size=(40, 8)).astype(np.float32)
        cluster_b = rng.normal(0.4, 0.1, size=(40, 8)).astype(np.float32)
        model = Sequential([Linear(8, 16), ReLU(), Linear(16, 4), L2Normalize()])
        optimizer = Adam(model, learning_rate=0.01)
        anchors, positives, negatives = cluster_a[:20], cluster_a[20:], cluster_b[:20]
        for __ in range(60):
            stacked = np.concatenate([anchors, positives, negatives])
            optimizer.zero_grad()
            embeddings = model.forward(stacked, training=True)
            n = len(anchors)
            loss, da, dp, dn = triplet_loss_and_grad(
                embeddings[:n], embeddings[n : 2 * n], embeddings[2 * n :], margin=0.5
            )
            model.backward(np.concatenate([da, dp, dn]))
            optimizer.step()
        embeddings = model.forward(np.concatenate([anchors, positives, negatives]))
        n = len(anchors)
        dist_ap = np.mean(np.sum((embeddings[:n] - embeddings[n : 2 * n]) ** 2, axis=1))
        dist_an = np.mean(np.sum((embeddings[:n] - embeddings[2 * n :]) ** 2, axis=1))
        assert dist_an > dist_ap + 0.3


class TestPairwiseDistances:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        left = rng.standard_normal((5, 4))
        right = rng.standard_normal((7, 4))
        distances = pairwise_squared_distances(left, right)
        for i in range(5):
            for j in range(7):
                assert distances[i, j] == pytest.approx(np.sum((left[i] - right[j]) ** 2), rel=1e-5)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 3))
        assert np.all(pairwise_squared_distances(x, x) >= 0.0)


class TestSemiHardMining:
    def test_prefers_semi_hard_negatives(self):
        # anchor at origin, positive close by, negatives at increasing distance
        anchor = np.zeros((1, 2), dtype=np.float32)
        positive = np.array([[0.3, 0.0]], dtype=np.float32)
        negatives = np.array([[0.05, 0.0], [0.5, 0.0], [5.0, 0.0]], dtype=np.float32)
        batch = semi_hard_triplets(anchor, positive, negatives, margin=0.5)
        assert len(batch) == 1
        # negative 0 is "hard" (closer than positive, loss > margin), negative 2 is
        # "easy" (loss 0); negative 1 is the semi-hard one and must be selected.
        assert batch.negative_indices[0] == 1

    def test_falls_back_to_hardest_when_no_semi_hard(self):
        anchor = np.zeros((1, 2), dtype=np.float32)
        positive = np.array([[1.0, 0.0]], dtype=np.float32)
        negatives = np.array([[0.1, 0.0], [0.2, 0.0]], dtype=np.float32)
        batch = semi_hard_triplets(anchor, positive, negatives, margin=0.5)
        assert len(batch) == 1
        assert batch.negative_indices[0] == 0  # the hardest (closest) negative

    def test_skips_pairs_with_only_easy_negatives(self):
        anchor = np.zeros((1, 2), dtype=np.float32)
        positive = np.array([[0.1, 0.0]], dtype=np.float32)
        negatives = np.array([[10.0, 0.0]], dtype=np.float32)
        batch = semi_hard_triplets(anchor, positive, negatives, margin=0.5)
        assert len(batch) == 0

    def test_max_triplets_cap(self):
        rng = np.random.default_rng(0)
        anchors = rng.normal(0, 0.1, (20, 4)).astype(np.float32)
        positives = rng.normal(0, 0.1, (20, 4)).astype(np.float32)
        negatives = rng.normal(0.3, 0.1, (10, 4)).astype(np.float32)
        batch = semi_hard_triplets(anchors, positives, negatives, margin=0.5, max_triplets=5)
        assert len(batch) <= 5

    def test_empty_inputs(self):
        empty = np.zeros((0, 4), dtype=np.float32)
        batch = semi_hard_triplets(empty, empty, empty)
        assert len(batch) == 0

    def test_selected_losses_within_margin_when_possible(self):
        rng = np.random.default_rng(3)
        anchors = rng.normal(0, 0.2, (30, 6)).astype(np.float32)
        positives = anchors + rng.normal(0, 0.05, (30, 6)).astype(np.float32)
        negatives = rng.normal(0.6, 0.2, (30, 6)).astype(np.float32)
        margin = 0.5
        batch = semi_hard_triplets(anchors, positives, negatives, margin=margin)
        if len(batch):
            losses = triplet_losses(
                anchors[batch.anchor_indices],
                positives[batch.positive_indices],
                negatives[batch.negative_indices],
                margin=margin,
            )
            assert np.all(losses > 0.0)
