"""Semi-hard triplet training of the representation models (Algorithm 1)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.features import WindowFeaturizer
from repro.models.config import ModelConfig, TrainingConfig
from repro.models.encoder import SheetEncoder
from repro.nn import Adam, Sequential, semi_hard_triplets
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

    The two models are independent learners (Algorithm 1), and each draws
    from its own child stream of ``SeedSequence(config.seed)``: its pair
    subsampling, augmentation and triplet mining.  The trainer
    materializes window tensors for all positive pairs and the negative
    pools of both models once (applying data augmentation where
    configured), then runs the fine model's epoch loop on a worker thread
    beside the coarse model's.  Per epoch a loop embeds everything with the
    current model, mines semi-hard triplets, and takes optimizer steps on
    mini-batches of those triplets.  The loops share no mutable state —
    each has its own layers, optimizer, tensors and stream — so the weights
    are the ones the two loops give run one after the other, whichever
    finishes first.
    """

    def __init__(
        self,
        encoder: SheetEncoder,
        training_config: Optional[TrainingConfig] = None,
    ) -> None:
        self.encoder = encoder
        self.config = training_config or TrainingConfig()

    def streams(self) -> Tuple[np.random.Generator, np.random.Generator]:
        """Fresh coarse and fine random streams: the second and the first
        child of ``SeedSequence(config.seed)``.  (Which model gets which
        child picks a training draw; see EXPERIMENTS.md.)"""
        fine, coarse = np.random.SeedSequence(self.config.seed).spawn(2)
        return np.random.default_rng(coarse), np.random.default_rng(fine)

    def window_featurizer(self) -> WindowFeaturizer:
        """A featurizer for the training windows over the encoder's cell
        features: its per-sheet tensors are dropped with it, so training
        leaves no training sheet in the encoder's cache."""
        featurizer = self.encoder.featurizer
        return WindowFeaturizer(featurizer.config, featurizer.cell_featurizer)

    # ------------------------------------------------------------- data prep

    @staticmethod
    def _subsample(items: list, limit: int, rng: np.random.Generator) -> list:
        """Random subsample of ``items`` down to ``limit`` elements."""
        if limit <= 0 or len(items) <= limit:
            return items
        chosen = rng.choice(len(items), size=limit, replace=False)
        return [items[int(i)] for i in chosen]

    def _coarse_tensors(
        self, pairs: TrainingPairs, featurizer: WindowFeaturizer, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Anchor / positive / negative window tensors for the coarse model."""
        featurize = featurizer.featurize_sheet
        augmentation = self.config.augmentation
        positive_pairs = self._subsample(pairs.positive_sheet_pairs, self.config.max_positive_pairs, rng)
        negative_pairs = self._subsample(pairs.negative_sheet_pairs, self.config.max_negative_pairs, rng)
        anchors, positives = [], []
        for pair in positive_pairs:
            right = pair.right
            if augmentation.enabled and augmentation.augment_sheets:
                right = augment_sheet(right, rng, augmentation.max_removal_fraction)
            anchors.append(featurize(pair.left))
            positives.append(featurize(right))
        negatives = []
        for pair in negative_pairs:
            negatives.append(featurize(pair.right))
        return _stacked(featurizer, anchors, positives, negatives)

    def _fine_tensors(
        self, pairs: TrainingPairs, featurizer: WindowFeaturizer, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Anchor / positive / negative window tensors for the fine model."""
        featurize = featurizer.featurize_region
        augmentation = self.config.augmentation
        positive_pairs = self._subsample(pairs.positive_region_pairs, self.config.max_positive_pairs, rng)
        negative_pairs = self._subsample(pairs.negative_region_pairs, self.config.max_negative_pairs, rng)
        anchors, positives = [], []
        for pair in positive_pairs:
            right_sheet = pair.right_sheet
            if (
                augmentation.enabled
                and augmentation.augment_regions
                and rng.random() < augmentation.region_fraction
            ):
                right_sheet = augment_region_sheet(
                    right_sheet,
                    rng,
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
        return _stacked(featurizer, anchors, positives, negatives)

    # -------------------------------------------------------------- training

    def _train_model(
        self,
        model: Sequential,
        anchors: np.ndarray,
        positives: np.ndarray,
        negatives: np.ndarray,
        rng: np.random.Generator,
    ) -> List[float]:
        """Run the epoch loop for one model, returning per-epoch mean losses."""
        losses: List[float] = []
        if len(anchors) == 0 or len(negatives) == 0:
            return losses
        optimizer = Adam(model, learning_rate=self.config.learning_rate)
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
                rng=rng,
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
        """Train both models from weak-supervision pairs (Algorithm 1).

        Both models' window tensors are built here, then the fine model's
        loop runs on a worker thread while the coarse model's runs on this
        one.  What either loop raises is raised here once both have
        stopped.
        """
        history = TrainingHistory(
            n_coarse_pairs=len(pairs.positive_sheet_pairs),
            n_fine_pairs=len(pairs.positive_region_pairs),
        )
        tracer = get_tracer()
        coarse_rng, fine_rng = self.streams()
        try:
            with tracer.span("models.train", epochs=self.config.epochs) as train_span:
                featurizer = self.window_featurizer()
                with tracer.span("models.train.tensors", model="coarse"):
                    coarse = self._coarse_tensors(pairs, featurizer, coarse_rng)
                with tracer.span("models.train.tensors", model="fine"):
                    fine = self._fine_tensors(pairs, featurizer, fine_rng)
                del featurizer

                def train_fine() -> List[float]:
                    with tracer.attach(train_span):
                        with tracer.span("models.train.loop", model="fine"):
                            return self._train_model(self.encoder.fine_model, *fine, fine_rng)

                # Leaving the pool joins the worker, also when the coarse
                # loop raised.
                with ThreadPoolExecutor(max_workers=1, thread_name_prefix="models.train") as pool:
                    # Opened first, so a trace lists the coarse loop first.
                    with tracer.span("models.train.loop", model="coarse"):
                        fine_future = pool.submit(train_fine)
                        history.coarse_losses = self._train_model(
                            self.encoder.coarse_model, *coarse, coarse_rng
                        )
                history.fine_losses = fine_future.result()
        finally:
            # Both loops have stopped.  The weights moved in place (a failed
            # epoch may have moved some); the layers drop the last step's batch.
            for model in (self.encoder.coarse_model, self.encoder.fine_model):
                model.clear_saved()
            self.encoder.weights_changed()
        return history


def _stacked(
    featurizer: WindowFeaturizer, anchors: list, positives: list, negatives: list
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three window lists as ``(n, *window_shape)`` tensors."""
    empty = np.zeros((0,) + featurizer.window_shape, dtype=np.float32)
    return tuple(np.stack(windows) if windows else empty for windows in (anchors, positives, negatives))


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
