"""Tests for the NumPy neural-network layers, including gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2D,
    Conv2D,
    Dropout,
    Flatten,
    L2Normalize,
    Linear,
    PerCellLinear,
    ReLU,
    Sequential,
    Tanh,
)


def numeric_gradient_check(model: Sequential, x: np.ndarray, n_samples: int = 4) -> float:
    """Max relative error between analytic and numeric parameter gradients."""
    rng = np.random.default_rng(0)
    target = rng.standard_normal(model.forward(x).shape).astype(np.float32)

    def loss() -> float:
        out = model.forward(x)
        return 0.5 * float(np.sum((out - target) ** 2))

    model.zero_grad()
    out = model.forward(x, training=True)
    model.backward(out - target)
    analytic = {name: grad.copy() for name, __, grad in model.parameter_gradients()}

    eps = 1e-3
    max_error = 0.0
    for name, param, __ in model.parameter_gradients():
        flat = param.reshape(-1)
        indices = rng.choice(flat.size, size=min(n_samples, flat.size), replace=False)
        for index in indices:
            original = flat[index]
            flat[index] = original + eps
            loss_plus = loss()
            flat[index] = original - eps
            loss_minus = loss()
            flat[index] = original
            numeric = (loss_plus - loss_minus) / (2 * eps)
            reference = analytic[name].reshape(-1)[index]
            error = abs(numeric - reference) / (abs(numeric) + abs(reference) + 1e-4)
            max_error = max(max_error, error)
    return max_error


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3)
        out = layer.forward(np.ones((5, 4), dtype=np.float32))
        assert out.shape == (5, 3)

    def test_broadcasts_over_leading_dims(self):
        layer = PerCellLinear(4, 2)
        out = layer.forward(np.ones((2, 3, 5, 4), dtype=np.float32))
        assert out.shape == (2, 3, 5, 2)

    def test_gradient_check(self):
        model = Sequential([Linear(6, 4), ReLU(), Linear(4, 2)])
        x = np.random.default_rng(1).standard_normal((3, 6)).astype(np.float32)
        assert numeric_gradient_check(model, x) < 0.03

    def test_gradients_accumulate(self):
        layer = Linear(3, 2)
        x = np.ones((1, 3), dtype=np.float32)
        layer.zero_grad()
        layer.forward(x, training=True)
        layer.backward(np.ones((1, 2), dtype=np.float32))
        first = layer.grads["W"].copy()
        layer.forward(x, training=True)
        layer.backward(np.ones((1, 2), dtype=np.float32))
        assert np.allclose(layer.grads["W"], 2 * first)


class TestActivations:
    def test_relu_forward_backward(self):
        layer = ReLU()
        x = np.array([[-1.0, 2.0]], dtype=np.float32)
        assert np.allclose(layer.forward(x, training=True), [[0.0, 2.0]])
        grad = layer.backward(np.array([[5.0, 5.0]], dtype=np.float32))
        assert np.allclose(grad, [[0.0, 5.0]])

    def test_tanh_range(self):
        out = Tanh().forward(np.array([[-10.0, 0.0, 10.0]], dtype=np.float32))
        assert np.all(np.abs(out) <= 1.0)

    def test_dropout_identity_at_inference(self):
        layer = Dropout(0.5)
        x = np.ones((4, 8), dtype=np.float32)
        assert np.allclose(layer.forward(x, training=False), x)

    def test_dropout_masks_in_training(self):
        layer = Dropout(0.5, seed=1)
        x = np.ones((4, 100), dtype=np.float32)
        out = layer.forward(x, training=True)
        assert np.any(out == 0.0)
        assert out.mean() == pytest.approx(1.0, abs=0.25)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestConvAndPool:
    def test_conv_shape_same_padding(self):
        layer = Conv2D(3, 5, kernel_size=3)
        out = layer.forward(np.ones((2, 8, 6, 3), dtype=np.float32))
        assert out.shape == (2, 8, 6, 5)

    def test_conv_translation_equivariance(self):
        rng = np.random.default_rng(0)
        layer = Conv2D(1, 2, kernel_size=3, rng=rng)
        image = np.zeros((1, 10, 10, 1), dtype=np.float32)
        image[0, 4, 4, 0] = 1.0
        shifted = np.roll(image, 2, axis=1)
        out = layer.forward(image)
        out_shifted = layer.forward(shifted)
        assert np.allclose(np.roll(out, 2, axis=1)[:, 3:9], out_shifted[:, 3:9], atol=1e-5)

    def test_conv_gradient_check(self):
        model = Sequential([Conv2D(2, 3, kernel_size=3), ReLU(), Flatten(), Linear(4 * 4 * 3, 2)])
        x = np.random.default_rng(2).standard_normal((2, 4, 4, 2)).astype(np.float32)
        assert numeric_gradient_check(model, x) < 0.03

    def test_avgpool_values(self):
        layer = AvgPool2D(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out = layer.forward(x)
        assert out.shape == (1, 2, 2, 1)
        assert out[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_avgpool_backward_distributes_evenly(self):
        layer = AvgPool2D(2)
        x = np.ones((1, 4, 4, 1), dtype=np.float32)
        layer.forward(x)
        grad = layer.backward(np.ones((1, 2, 2, 1), dtype=np.float32))
        assert np.allclose(grad, 0.25)

    def test_avgpool_truncates_odd_sizes(self):
        out = AvgPool2D(2).forward(np.ones((1, 5, 5, 2), dtype=np.float32))
        assert out.shape == (1, 2, 2, 2)


class TestFlattenAndNormalize:
    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = np.random.default_rng(0).standard_normal((3, 4, 5)).astype(np.float32)
        out = layer.forward(x)
        assert out.shape == (3, 20)
        assert layer.backward(out).shape == x.shape

    def test_l2_normalize_unit_norm(self):
        layer = L2Normalize()
        x = np.random.default_rng(0).standard_normal((4, 16)).astype(np.float32) * 10
        out = layer.forward(x)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-5)

    def test_l2_normalize_gradient_orthogonal_to_output(self):
        layer = L2Normalize()
        x = np.random.default_rng(0).standard_normal((2, 8)).astype(np.float32)
        out = layer.forward(x, training=True)
        grad_in = layer.backward(np.ones_like(out))
        # The Jacobian of x -> x/||x|| projects out the output direction, so
        # the input gradient has no component along the normalized output.
        assert np.allclose(np.sum(grad_in * out, axis=1), 0.0, atol=1e-5)


class TestSequentialPersistence:
    def test_state_dict_roundtrip(self):
        model = Sequential([Linear(4, 3), ReLU(), Linear(3, 2)])
        clone = Sequential([Linear(4, 3), ReLU(), Linear(3, 2, rng=np.random.default_rng(99))])
        clone.load_state_dict(model.state_dict())
        x = np.random.default_rng(0).standard_normal((2, 4)).astype(np.float32)
        assert np.allclose(model.forward(x), clone.forward(x))

    def test_save_load_file(self, tmp_path):
        model = Sequential([Linear(4, 3), ReLU(), Linear(3, 2)])
        path = tmp_path / "model.npz"
        model.save(path)
        clone = Sequential([Linear(4, 3), ReLU(), Linear(3, 2, rng=np.random.default_rng(5))])
        clone.load(path)
        x = np.ones((1, 4), dtype=np.float32)
        assert np.allclose(model.forward(x), clone.forward(x))

    def test_load_shape_mismatch_raises(self):
        model = Sequential([Linear(4, 3)])
        other = Sequential([Linear(4, 2)])
        with pytest.raises(ValueError):
            other.load_state_dict(model.state_dict())

    def test_missing_key_raises(self):
        model = Sequential([Linear(4, 3)])
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_n_parameters(self):
        model = Sequential([Linear(4, 3), Linear(3, 2)])
        assert model.n_parameters() == (4 * 3 + 3) + (3 * 2 + 2)
