"""Model and training configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.features.config import FeatureConfig
from repro.weaksup.augmentation import AugmentationConfig


@dataclass
class ModelConfig:
    """Architecture hyper-parameters for the representation models.

    Paper-scale values (100x10 window, 896-d coarse embedding, 16 floats per
    cell for the fine model) are recorded as class attributes; the instance
    defaults are scaled down so NumPy training used in tests and benchmarks
    finishes in seconds.  The *shape* of the architecture is identical.
    """

    features: FeatureConfig = field(default_factory=FeatureConfig)
    #: Hidden width of the shared per-cell dimension-reduction MLP.
    reduction_hidden_dim: int = 32
    #: Per-cell dimensionality after reduction (input channels to the CNN).
    reduction_output_dim: int = 8
    #: Channels of the two convolution blocks in the coarse branch.
    coarse_conv_channels: int = 12
    #: Output embedding dimensionality of the coarse model.
    coarse_embedding_dim: int = 64
    #: Per-cell output dimensionality of the fine model (16 in the paper).
    fine_per_cell_dim: int = 8
    #: Random seed for weight initialization.
    seed: int = 0

    PAPER_COARSE_EMBEDDING_DIM = 896
    PAPER_FINE_PER_CELL_DIM = 16

    @property
    def fine_embedding_dim(self) -> int:
        """Total fine embedding dimensionality (per-cell dim x window cells)."""
        return self.fine_per_cell_dim * self.features.window_cells


@dataclass
class TrainingConfig:
    """Hyper-parameters of the semi-hard triplet training loop."""

    epochs: int = 8
    batch_size: int = 16
    learning_rate: float = 2e-3
    margin: float = 0.5
    max_triplets_per_epoch: int = 256
    augmentation: AugmentationConfig = field(default_factory=AugmentationConfig)
    seed: int = 0
    #: Caps on how many weak-supervision pairs are materialized as window
    #: tensors (featurization is the dominant cost of NumPy training).
    max_positive_pairs: int = 120
    max_negative_pairs: int = 120
