"""Neural-network layers with manual forward/backward passes.

Conventions
-----------
* All tensors are ``float32`` NumPy arrays with a leading batch dimension.
* ``forward(x, training=True)`` caches whatever the backward pass needs;
  an inference forward keeps nothing of its batch on the layer (the models
  are shared by every concurrent reader and never call ``backward``).
* ``backward(grad_output)`` returns the gradient with respect to the layer
  input and *accumulates* parameter gradients into ``layer.grads`` (so the
  same layer can be traversed several times per step, as triplet training
  requires, before the optimizer consumes the accumulated gradients).
  ``accumulate_gradients(grad_output)`` does the second half alone: the
  first layer of a model has no one to hand an input gradient to.
* A weight gradient ``x.T @ grad`` is summed over fixed blocks of
  :data:`GRADIENT_CHUNK_ROWS` rows, in order, in float64
  (:func:`weight_gradient`), so the trained weights do not depend on how
  many threads BLAS runs.
* ``clear_saved()`` drops what the last training forward kept; the trainer
  calls it when training ends, so a trained model pins no batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

#: Rows of one block of a weight-gradient reduction (:func:`weight_gradient`).
GRADIENT_CHUNK_ROWS = 512


def weight_gradient(inputs: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    """``inputs.T @ grad_output`` over ``(n, in)`` and ``(n, out)`` rows, as
    one BLAS product per block of :data:`GRADIENT_CHUNK_ROWS` rows, summed
    in block order in float64.

    One product over all rows is a reduction of thousands of terms that
    threaded BLAS splits by thread count, and rounds differently at each.
    A block this short runs on one thread at every count, and the blocks'
    sum has a fixed order, so the gradient is a function of its operands.
    """
    total = np.zeros((inputs.shape[1], grad_output.shape[1]), dtype=np.float64)
    for start in range(0, len(inputs), GRADIENT_CHUNK_ROWS):
        stop = start + GRADIENT_CHUNK_ROWS
        total += inputs[start:stop].T @ grad_output[start:stop]
    return total


class Layer:
    """Base class for all layers."""

    #: Attributes holding the backward state of the last training forward.
    _saved_fields: tuple = ()

    def __init__(self) -> None:
        #: Learnable parameters by name.
        self.params: Dict[str, np.ndarray] = {}
        #: Accumulated gradients, same keys as :attr:`params`.
        self.grads: Dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def accumulate_gradients(self, grad_output: np.ndarray) -> None:
        """What :meth:`backward` adds to :attr:`grads`, without the input
        gradient where a layer can skip computing it."""
        self.backward(grad_output)

    def zero_grad(self) -> None:
        """Reset accumulated parameter gradients to zero."""
        for name, value in self.params.items():
            self.grads[name] = np.zeros_like(value)

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def clear_saved(self) -> None:
        """Drop the backward state of the last training forward: until the
        next one, :meth:`backward` raises."""
        for name in self._saved_fields:
            setattr(self, name, None)

    def _saved(self, state):
        """Backward state kept by the last ``forward(x, training=True)``."""
        if state is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward needs a forward(x, training=True) "
                "first: an inference forward keeps no backward state"
            )
        return state


def _he_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """He-normal initialization, appropriate for ReLU networks."""
    scale = np.sqrt(2.0 / max(fan_in, 1))
    return (rng.standard_normal(shape) * scale).astype(np.float32)


class Linear(Layer):
    """Fully-connected layer: ``y = x @ W + b`` on the last dimension."""

    _saved_fields = ("_input",)

    def __init__(self, in_features: int, out_features: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.params["W"] = _he_init(rng, in_features, (in_features, out_features))
        self.params["b"] = np.zeros(out_features, dtype=np.float32)
        self.zero_grad()
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._input = x if training else None
        return x @ self.params["W"] + self.params["b"]

    def accumulate_gradients(self, grad_output: np.ndarray) -> None:
        flat_x = self._saved(self._input).reshape(-1, self.in_features)
        flat_grad = grad_output.reshape(-1, self.out_features)
        self.grads["W"] += weight_gradient(flat_x, flat_grad).astype(np.float32)
        self.grads["b"] += flat_grad.sum(axis=0).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.accumulate_gradients(grad_output)
        return (grad_output @ self.params["W"].T).reshape(self._input.shape)


class PerCellLinear(Linear):
    """Linear layer applied independently to every cell of a window.

    Input shape ``(batch, rows, cols, in_features)``; output shape
    ``(batch, rows, cols, out_features)``.  This is the "dimension
    reduction" stage of the paper's architecture: the same MLP weights are
    shared across all cells of the view window.
    """

    # Linear already broadcasts over leading dimensions; the subclass exists
    # to make the architectural role explicit in model definitions.


class ReLU(Layer):
    """Rectified linear activation."""

    _saved_fields = ("_mask",)

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return np.where(mask, x, 0.0).astype(np.float32, copy=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.where(self._saved(self._mask), grad_output, 0.0).astype(np.float32)


class Tanh(Layer):
    """Hyperbolic-tangent activation."""

    _saved_fields = ("_output",)

    def __init__(self) -> None:
        super().__init__()
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        output = np.tanh(x).astype(np.float32)
        self._output = output if training else None
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return (grad_output * (1.0 - self._saved(self._output) ** 2)).astype(np.float32)


class Dropout(Layer):
    """Inverted dropout (identity at inference time)."""

    _saved_fields = ("_mask",)

    def __init__(self, rate: float = 0.1, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep).astype(np.float32) / keep
        return (x * self._mask).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return (grad_output * self._mask).astype(np.float32)


class Flatten(Layer):
    """Flattens everything but the batch dimension."""

    _saved_fields = ("_shape",)

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[tuple] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._saved(self._shape))


class Conv2D(Layer):
    """2-D convolution with 'same' padding and stride 1 (channels-last).

    Input shape ``(batch, rows, cols, in_channels)``; output shape
    ``(batch, rows, cols, out_channels)``.  Implemented with im2col so the
    heavy lifting is a single matrix multiply.
    """

    _saved_fields = ("_columns", "_input_shape")

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        fan_in = in_channels * kernel_size * kernel_size
        self.params["W"] = _he_init(rng, fan_in, (fan_in, out_channels))
        self.params["b"] = np.zeros(out_channels, dtype=np.float32)
        self.zero_grad()
        self._columns: Optional[np.ndarray] = None
        self._input_shape: Optional[tuple] = None

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        batch, rows, cols, channels = x.shape
        k = self.kernel_size
        pad = k // 2
        padded = np.zeros((batch, rows + 2 * pad, cols + 2 * pad, channels), dtype=np.float32)
        padded[:, pad : pad + rows, pad : pad + cols, :] = x
        columns = np.empty((batch, rows, cols, k * k * channels), dtype=np.float32)
        for di in range(k):
            for dj in range(k):
                patch = padded[:, di : di + rows, dj : dj + cols, :]
                start = (di * k + dj) * channels
                columns[..., start : start + channels] = patch
        return columns

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        columns = self._im2col(x)
        self._columns, self._input_shape = (columns, x.shape) if training else (None, None)
        return columns @ self.params["W"] + self.params["b"]

    def accumulate_gradients(self, grad_output: np.ndarray) -> None:
        fan_in = self.kernel_size * self.kernel_size * self.in_channels
        flat_columns = self._saved(self._columns).reshape(-1, fan_in)
        flat_grad = grad_output.reshape(-1, self.out_channels)
        self.grads["W"] += weight_gradient(flat_columns, flat_grad).astype(np.float32)
        self.grads["b"] += flat_grad.sum(axis=0).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.accumulate_gradients(grad_output)
        batch, rows, cols, __ = self._input_shape
        k = self.kernel_size
        channels = self.in_channels
        fan_in = k * k * channels
        grad_columns = (grad_output @ self.params["W"].T).reshape(
            batch, rows, cols, fan_in
        )
        pad = k // 2
        grad_padded = np.zeros((batch, rows + 2 * pad, cols + 2 * pad, channels), dtype=np.float32)
        for di in range(k):
            for dj in range(k):
                start = (di * k + dj) * channels
                grad_padded[:, di : di + rows, dj : dj + cols, :] += grad_columns[
                    ..., start : start + channels
                ]
        if pad:
            return grad_padded[:, pad:-pad, pad:-pad, :]
        return grad_padded


class AvgPool2D(Layer):
    """Average pooling with a square window and matching stride.

    Input rows/cols are truncated to a multiple of the pool size (matching
    common framework behaviour with ``floor`` output sizing).
    """

    _saved_fields = ("_input_shape",)

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self._input_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._input_shape = x.shape if training else None
        batch, rows, cols, channels = x.shape
        p = self.pool_size
        out_rows, out_cols = rows // p, cols // p
        trimmed = x[:, : out_rows * p, : out_cols * p, :]
        reshaped = trimmed.reshape(batch, out_rows, p, out_cols, p, channels)
        return reshaped.mean(axis=(2, 4)).astype(np.float32, copy=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        batch, rows, cols, channels = self._saved(self._input_shape)
        p = self.pool_size
        out_rows, out_cols = rows // p, cols // p
        grad_input = np.zeros(self._input_shape, dtype=np.float32)
        expanded = (
            grad_output[:, :, None, :, None, :]
            * np.float32(1.0 / (p * p))
        )
        expanded = np.broadcast_to(
            expanded, (batch, out_rows, p, out_cols, p, channels)
        ).reshape(batch, out_rows * p, out_cols * p, channels)
        grad_input[:, : out_rows * p, : out_cols * p, :] = expanded
        return grad_input


class L2Normalize(Layer):
    """L2-normalizes each row of a ``(batch, features)`` matrix."""

    _saved_fields = ("_input", "_norms")

    def __init__(self, epsilon: float = 1e-8) -> None:
        super().__init__()
        self.epsilon = epsilon
        self._input: Optional[np.ndarray] = None
        self._norms: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        norms = np.sqrt(np.sum(x**2, axis=-1, keepdims=True)) + self.epsilon
        self._input, self._norms = (x, norms) if training else (None, None)
        return (x / norms).astype(np.float32, copy=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x, norms = self._saved(self._input), self._norms
        normalized = x / norms
        dot = np.sum(grad_output * normalized, axis=-1, keepdims=True)
        return ((grad_output - normalized * dot) / norms).astype(np.float32)
