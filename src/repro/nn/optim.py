"""The optimizer training uses: Adam."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.nn.sequential import Sequential


class Optimizer:
    """Base optimizer: updates a :class:`Sequential` model in place."""

    def __init__(self, model: Sequential, learning_rate: float = 0.01) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.model = model
        self.learning_rate = learning_rate

    def step(self) -> None:
        """Apply one update using the gradients accumulated in the model."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Clear the model's accumulated gradients."""
        self.model.zero_grad()


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        model: Sequential,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(model, learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment: Dict[str, np.ndarray] = {}
        self._second_moment: Dict[str, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        for name, param, grad in self.model.parameter_gradients():
            if self.weight_decay:
                grad = grad + self.weight_decay * param
            first = self._first_moment.get(name)
            second = self._second_moment.get(name)
            if first is None:
                first = np.zeros_like(param)
                second = np.zeros_like(param)
            first = self.beta1 * first + (1 - self.beta1) * grad
            second = self.beta2 * second + (1 - self.beta2) * (grad * grad)
            self._first_moment[name] = first
            self._second_moment[name] = second
            first_hat = first / (1 - self.beta1**self._step_count)
            second_hat = second / (1 - self.beta2**self._step_count)
            param -= self.learning_rate * first_hat / (np.sqrt(second_hat) + self.epsilon)
