"""Semi-hard triplet training of the representation models (Algorithm 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.models.config import ModelConfig, TrainingConfig
from repro.models.encoder import SheetEncoder
from repro.nn import Adam, SGD, Sequential, semi_hard_triplets
from repro.nn.losses import triplet_loss_and_grad
from repro.obs import get_tracer
from repro.weaksup.augmentation import augment_region_sheet, augment_sheet
from repro.weaksup.pairs import TrainingPairs


@dataclass
class TrainingHistory:
    """Per-epoch loss traces for both models."""

    coarse_losses: List[float] = field(default_factory=list)
    fine_losses: List[float] = field(default_factory=list)
    n_coarse_pairs: int = 0
    n_fine_pairs: int = 0


class TripletTrainer:
    """Trains ``M_c`` and ``M_f`` with semi-hard triplet mining.

    The trainer materializes window tensors for all positive pairs and the
    negative pools once (applying data augmentation where configured), then
    per epoch: embeds everything with the current model, mines semi-hard
    triplets, and takes optimizer steps on mini-batches of those triplets.
    """

    def __init__(
        self,
        encoder: SheetEncoder,
        training_config: Optional[TrainingConfig] = None,
    ) -> None:
        self.encoder = encoder
        self.config = training_config or TrainingConfig()
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------- data prep

    def _subsample(self, items: list, limit: int) -> list:
        """Random subsample of ``items`` down to ``limit`` elements."""
        if limit <= 0 or len(items) <= limit:
            return items
        chosen = self._rng.choice(len(items), size=limit, replace=False)
        return [items[int(i)] for i in chosen]

    def _coarse_tensors(self, pairs: TrainingPairs) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Anchor / positive / negative window tensors for the coarse model."""
        featurize = self.encoder.featurizer.featurize_sheet
        augmentation = self.config.augmentation
        positive_pairs = self._subsample(pairs.positive_sheet_pairs, self.config.max_positive_pairs)
        negative_pairs = self._subsample(pairs.negative_sheet_pairs, self.config.max_negative_pairs)
        anchors, positives = [], []
        for pair in positive_pairs:
            right = pair.right
            if augmentation.enabled and augmentation.augment_sheets:
                right = augment_sheet(right, self._rng, augmentation.max_removal_fraction)
            anchors.append(featurize(pair.left))
            positives.append(featurize(right))
        negatives = []
        for pair in negative_pairs:
            negatives.append(featurize(pair.right))
        shape = self.encoder.featurizer.window_shape
        empty = np.zeros((0,) + shape, dtype=np.float32)
        return (
            np.stack(anchors) if anchors else empty,
            np.stack(positives) if positives else empty,
            np.stack(negatives) if negatives else empty,
        )

    def _fine_tensors(self, pairs: TrainingPairs) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Anchor / positive / negative window tensors for the fine model."""
        featurize = self.encoder.featurizer.featurize_region
        augmentation = self.config.augmentation
        positive_pairs = self._subsample(pairs.positive_region_pairs, self.config.max_positive_pairs)
        negative_pairs = self._subsample(pairs.negative_region_pairs, self.config.max_negative_pairs)
        anchors, positives = [], []
        for pair in positive_pairs:
            right_sheet = pair.right_sheet
            if (
                augmentation.enabled
                and augmentation.augment_regions
                and self._rng.random() < augmentation.region_fraction
            ):
                right_sheet = augment_region_sheet(
                    right_sheet,
                    self._rng,
                    augmentation.max_removal_fraction,
                    protect_rows=pair.right_center.row + 1,
                    protect_cols=pair.right_center.col + 1,
                )
            anchors.append(featurize(pair.left_sheet, pair.left_center))
            positives.append(featurize(right_sheet, pair.right_center))
        negatives = [
            featurize(pair.right_sheet, pair.right_center)
            for pair in negative_pairs
        ]
        shape = self.encoder.featurizer.window_shape
        empty = np.zeros((0,) + shape, dtype=np.float32)
        return (
            np.stack(anchors) if anchors else empty,
            np.stack(positives) if positives else empty,
            np.stack(negatives) if negatives else empty,
        )

    # -------------------------------------------------------------- training

    def _make_optimizer(self, model: Sequential):
        if self.config.optimizer.lower() == "sgd":
            return SGD(model, learning_rate=self.config.learning_rate, momentum=0.9)
        return Adam(model, learning_rate=self.config.learning_rate)

    def _train_model(
        self,
        model: Sequential,
        anchors: np.ndarray,
        positives: np.ndarray,
        negatives: np.ndarray,
    ) -> List[float]:
        """Run the epoch loop for one model, returning per-epoch mean losses."""
        losses: List[float] = []
        if len(anchors) == 0 or len(negatives) == 0:
            return losses
        optimizer = self._make_optimizer(model)
        margin = self.config.margin
        for __ in range(self.config.epochs):
            anchor_embeddings = model.forward(anchors)
            positive_embeddings = model.forward(positives)
            negative_embeddings = model.forward(negatives)
            batch = semi_hard_triplets(
                anchor_embeddings,
                positive_embeddings,
                negative_embeddings,
                margin=margin,
                max_triplets=self.config.max_triplets_per_epoch,
                rng=self._rng,
            )
            if len(batch) == 0:
                losses.append(0.0)
                continue
            epoch_losses: List[float] = []
            batch_size = self.config.batch_size
            for start in range(0, len(batch), batch_size):
                anchor_idx = batch.anchor_indices[start : start + batch_size]
                positive_idx = batch.positive_indices[start : start + batch_size]
                negative_idx = batch.negative_indices[start : start + batch_size]
                stacked = np.concatenate(
                    [anchors[anchor_idx], positives[positive_idx], negatives[negative_idx]]
                )
                optimizer.zero_grad()
                embeddings = model.forward(stacked, training=True)
                n = len(anchor_idx)
                loss, d_anchor, d_positive, d_negative = triplet_loss_and_grad(
                    embeddings[:n], embeddings[n : 2 * n], embeddings[2 * n :], margin=margin
                )
                grad = np.concatenate([d_anchor, d_positive, d_negative])
                model.accumulate_gradients(grad)
                optimizer.step()
                epoch_losses.append(loss)
            losses.append(float(np.mean(epoch_losses)))
        return losses

    def train(self, pairs: TrainingPairs) -> TrainingHistory:
        """Train both models from weak-supervision pairs (Algorithm 1)."""
        history = TrainingHistory(
            n_coarse_pairs=len(pairs.positive_sheet_pairs),
            n_fine_pairs=len(pairs.positive_region_pairs),
        )
        tracer = get_tracer()
        with tracer.span("models.train", epochs=self.config.epochs):
            with tracer.span("models.train.tensors", model="coarse"):
                coarse = self._coarse_tensors(pairs)
            with tracer.span("models.train.loop", model="coarse"):
                history.coarse_losses = self._train_model(self.encoder.coarse_model, *coarse)
            with tracer.span("models.train.tensors", model="fine"):
                fine = self._fine_tensors(pairs)
            with tracer.span("models.train.loop", model="fine"):
                history.fine_losses = self._train_model(self.encoder.fine_model, *fine)
        return history


def train_models(
    pairs: TrainingPairs,
    model_config: Optional[ModelConfig] = None,
    training_config: Optional[TrainingConfig] = None,
) -> Tuple[SheetEncoder, TrainingHistory]:
    """Convenience wrapper: build an encoder, train it, return both."""
    encoder = SheetEncoder(model_config)
    trainer = TripletTrainer(encoder, training_config)
    history = trainer.train(pairs)
    return encoder, history
