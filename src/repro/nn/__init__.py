"""Minimal NumPy neural-network substrate.

The paper trains its spreadsheet-representation models in a deep-learning
framework; no such framework is available offline, so this package provides
the required pieces implemented directly on NumPy with manual
backpropagation:

* layers — :class:`Linear`, :class:`ReLU`, :class:`Tanh`, :class:`Conv2D`,
  :class:`AvgPool2D`, :class:`Flatten`, :class:`PerCellLinear`,
  :class:`L2Normalize`;
* :class:`Sequential` containers with parameter collection and persistence;
* the :class:`Adam` optimizer;
* the triplet loss with its gradient and the semi-hard triplet miner
  (Section 4.5 / FaceNet-style training).
"""

from repro.nn.layers import (
    Layer,
    Linear,
    ReLU,
    Tanh,
    Flatten,
    Conv2D,
    AvgPool2D,
    PerCellLinear,
    L2Normalize,
    Dropout,
)
from repro.nn.sequential import Sequential
from repro.nn.optim import Adam, Optimizer
from repro.nn.losses import triplet_loss_and_grad, pairwise_squared_distances
from repro.nn.mining import semi_hard_triplets, TripletBatch

__all__ = [
    "Layer",
    "Linear",
    "ReLU",
    "Tanh",
    "Flatten",
    "Conv2D",
    "AvgPool2D",
    "PerCellLinear",
    "L2Normalize",
    "Dropout",
    "Sequential",
    "Adam",
    "Optimizer",
    "triplet_loss_and_grad",
    "pairwise_squared_distances",
    "semi_hard_triplets",
    "TripletBatch",
]
