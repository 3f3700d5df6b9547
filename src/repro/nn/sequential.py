"""The :class:`Sequential` container and model persistence."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

import numpy as np

from repro.nn.layers import Layer


class Sequential(Layer):
    """Chains layers; forward and backward traverse them in order."""

    def __init__(self, layers: Iterable[Layer]) -> None:
        super().__init__()
        self.layers: List[Layer] = list(layers)

    # --------------------------------------------------------------- compute

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def accumulate_gradients(self, grad_output: np.ndarray) -> None:
        """Every parameter gradient :meth:`backward` accumulates, stopping
        at the first layer's own: the input gradient is not computed."""
        grad = grad_output
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        if self.layers:
            self.layers[0].accumulate_gradients(grad)

    # ------------------------------------------------------------ parameters

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def named_parameters(self) -> List[Tuple[str, np.ndarray]]:
        """``(name, array)`` pairs, names unique across the container."""
        params: List[Tuple[str, np.ndarray]] = []
        for index, layer in enumerate(self.layers):
            for name, value in layer.params.items():
                params.append((f"layer{index}.{name}", value))
        return params

    def parameter_gradients(self) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        """``(name, parameter, gradient)`` triples for the optimizer."""
        triples: List[Tuple[str, np.ndarray, np.ndarray]] = []
        for index, layer in enumerate(self.layers):
            for name, value in layer.params.items():
                triples.append((f"layer{index}.{name}", value, layer.grads[name]))
        return triples

    def n_parameters(self) -> int:
        """Total number of learnable scalar parameters."""
        return int(sum(value.size for __, value in self.named_parameters()))

    # ------------------------------------------------------------ persistence

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameters keyed by their unique names."""
        return {name: value.copy() for name, value in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters saved by :meth:`state_dict` (shapes must match)."""
        for index, layer in enumerate(self.layers):
            for name in layer.params:
                key = f"layer{index}.{name}"
                if key not in state:
                    raise KeyError(f"missing parameter {key!r} in state dict")
                value = np.asarray(state[key], dtype=np.float32)
                if value.shape != layer.params[name].shape:
                    raise ValueError(
                        f"shape mismatch for {key!r}: "
                        f"{value.shape} vs {layer.params[name].shape}"
                    )
                layer.params[name] = value
            layer.zero_grad()

    def save(self, path: Union[str, Path]) -> None:
        """Persist parameters to an ``.npz`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.state_dict())

    def load(self, path: Union[str, Path]) -> None:
        """Load parameters previously written by :meth:`save`."""
        with np.load(Path(path)) as data:
            self.load_state_dict({key: data[key] for key in data.files})
