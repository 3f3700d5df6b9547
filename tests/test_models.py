"""Tests for the representation models, encoder and triplet trainer."""

import numpy as np
import pytest

from repro.features import FeatureConfig
from repro.models import (
    ModelConfig,
    SheetEncoder,
    TrainingConfig,
    TripletTrainer,
    build_coarse_model,
    build_fine_model,
)
from repro.sheet import CellAddress, Sheet


@pytest.fixture()
def small_config() -> ModelConfig:
    return ModelConfig(features=FeatureConfig(window_rows=12, window_cols=8, content_embedding_dim=16))


@pytest.fixture()
def data_sheet() -> Sheet:
    sheet = Sheet("Data")
    for row in range(30):
        sheet.set((row, 0), f"label {row}")
        sheet.set((row, 1), row * 1.5)
    return sheet


class TestNetworkBuilders:
    def test_coarse_output_dimension(self, small_config):
        encoder = SheetEncoder(small_config)
        model = encoder.coarse_model
        window = encoder.featurizer.featurize_sheet(Sheet())[None, ...]
        assert model.forward(window).shape == (1, small_config.coarse_embedding_dim)

    def test_fine_output_dimension(self, small_config):
        encoder = SheetEncoder(small_config)
        window = encoder.featurizer.featurize_sheet(Sheet())[None, ...]
        assert encoder.fine_model.forward(window).shape == (1, small_config.fine_embedding_dim)

    def test_inference_forward_pins_nothing_of_its_batch(self, small_config):
        """The models are shared by every concurrent reader and inference
        never calls ``backward``: an im2col matrix, an input or a mask left
        on a layer is memory nobody reads."""
        encoder = SheetEncoder(small_config)
        windows = np.repeat(encoder.featurizer.featurize_sheet(Sheet())[None, ...], 5, axis=0)

        def held_arrays(model):
            return [
                (type(layer).__name__, name)
                for layer in model.layers
                for name, value in vars(layer).items()
                if isinstance(value, np.ndarray)
            ]

        for model in (encoder.coarse_model, encoder.fine_model):
            inference = model.forward(windows)
            assert held_arrays(model) == []
            with pytest.raises(RuntimeError, match=r"needs a forward\(x, training=True\)"):
                model.backward(np.ones_like(inference))
            # A training forward computes the same numbers and keeps its state.
            assert np.array_equal(model.forward(windows, training=True), inference)
            assert held_arrays(model) != []
            model.zero_grad()
            assert model.backward(np.ones_like(inference)).shape == windows.shape
            # ... until the next inference forward lets it go again.
            model.forward(windows)
            assert held_arrays(model) == []

    def test_accumulate_gradients_leaves_the_grads_backward_leaves(self, small_config, data_sheet):
        """The trainer stops its backward at the first layer's parameter
        gradients; every gradient must be the bytes a full ``backward``
        accumulates, twice over (gradients add up within a step)."""
        encoder = SheetEncoder(small_config)
        windows = encoder.featurizer.featurize_regions(
            data_sheet, [CellAddress(row, 1) for row in range(0, 30, 4)]
        )
        grad = np.random.default_rng(3).standard_normal((len(windows), 1)).astype(np.float32)
        for model in (encoder.coarse_model, encoder.fine_model):
            output = model.forward(windows, training=True)
            upstream = np.broadcast_to(grad, output.shape).copy()
            runs = []
            for step in (model.backward, model.accumulate_gradients):
                model.zero_grad()
                step(upstream)
                step(upstream)
                runs.append([gradient.tobytes() for __, __, gradient in model.parameter_gradients()])
            assert runs[0] == runs[1]

    def test_window_too_small_for_cnn_rejected(self):
        config = ModelConfig(features=FeatureConfig(window_rows=3, window_cols=3))
        with pytest.raises(ValueError):
            build_coarse_model(config, cell_dim=10)

    def test_models_have_parameters(self, small_config):
        cell_dim = SheetEncoder(small_config).featurizer.cell_featurizer.dimension
        assert build_coarse_model(small_config, cell_dim).n_parameters() > 1000
        assert build_fine_model(small_config, cell_dim).n_parameters() > 100


class TestSheetEncoder:
    def test_embeddings_l2_normalized(self, small_config, data_sheet):
        encoder = SheetEncoder(small_config)
        sheet_vector = encoder.embed_sheet(data_sheet)
        region_vector = encoder.embed_region(data_sheet, CellAddress(10, 1))
        assert np.linalg.norm(sheet_vector) == pytest.approx(1.0, abs=1e-4)
        assert np.linalg.norm(region_vector) == pytest.approx(1.0, abs=1e-4)

    def test_embeddings_deterministic(self, small_config, data_sheet):
        encoder = SheetEncoder(small_config)
        first = encoder.embed_sheet(data_sheet)
        second = encoder.embed_sheet(data_sheet)
        assert np.allclose(first, second)

    def test_batch_matches_single(self, small_config, data_sheet):
        encoder = SheetEncoder(small_config)
        centers = [CellAddress(5, 1), CellAddress(20, 1)]
        batch = encoder.embed_regions(data_sheet, centers)
        assert batch.shape == (2, encoder.fine_dimension)
        assert np.allclose(batch[0], encoder.embed_region(data_sheet, centers[0]), atol=1e-5)

    def test_empty_batches(self, small_config):
        encoder = SheetEncoder(small_config)
        assert encoder.embed_sheets([]).shape == (0, encoder.coarse_dimension)
        assert encoder.embed_regions(Sheet(), []).shape == (0, encoder.fine_dimension)

    def test_coarse_tolerates_row_shift_more_than_fine(self, small_config, trained_encoder, data_sheet):
        """The CNN branch should be less sensitive to a small row shift than the FC branch."""
        encoder = trained_encoder
        shifted = data_sheet.copy()
        shifted.insert_rows(5, 1)
        coarse_delta = float(
            np.sum((encoder.embed_sheet(data_sheet) - encoder.embed_sheet(shifted)) ** 2)
        )
        center = CellAddress(15, 1)
        fine_delta = float(
            np.sum(
                (
                    encoder.embed_region(data_sheet, center)
                    - encoder.embed_region(shifted, CellAddress(15, 1))
                )
                ** 2
            )
        )
        assert coarse_delta < fine_delta + 1.0  # coarse is not wildly more sensitive

    def test_save_load_roundtrip(self, small_config, data_sheet, tmp_path):
        encoder = SheetEncoder(small_config)
        encoder.save(tmp_path / "models")
        clone = SheetEncoder(
            ModelConfig(features=FeatureConfig(window_rows=12, window_cols=8, content_embedding_dim=16), seed=99)
        )
        clone.load(tmp_path / "models")
        assert np.allclose(encoder.embed_sheet(data_sheet), clone.embed_sheet(data_sheet))


class TestTripletTrainer:
    def test_training_improves_separation(self, training_pairs, small_config):
        encoder = SheetEncoder(small_config)

        def separation(model_encoder: SheetEncoder) -> float:
            positive = training_pairs.positive_sheet_pairs[:10]
            negative = training_pairs.negative_sheet_pairs[:10]
            pos = np.mean(
                [
                    np.sum(
                        (model_encoder.embed_sheet(pair.left) - model_encoder.embed_sheet(pair.right)) ** 2
                    )
                    for pair in positive
                ]
            )
            neg = np.mean(
                [
                    np.sum(
                        (model_encoder.embed_sheet(pair.left) - model_encoder.embed_sheet(pair.right)) ** 2
                    )
                    for pair in negative
                ]
            )
            return float(neg - pos)

        before = separation(encoder)
        trainer = TripletTrainer(encoder, TrainingConfig(epochs=5, seed=0))
        history = trainer.train(training_pairs)
        after = separation(encoder)
        assert after > before
        assert len(history.coarse_losses) == 5
        assert len(history.fine_losses) == 5
        assert history.n_coarse_pairs > 0
        assert history.n_fine_pairs > 0

    def test_trainer_handles_empty_pairs(self, small_config):
        from repro.weaksup.pairs import TrainingPairs

        encoder = SheetEncoder(small_config)
        history = TripletTrainer(encoder, TrainingConfig(epochs=2)).train(TrainingPairs())
        assert history.coarse_losses == []
        assert history.fine_losses == []

    def test_pair_subsampling_cap(self, training_pairs, small_config):
        encoder = SheetEncoder(small_config)
        trainer = TripletTrainer(
            encoder, TrainingConfig(epochs=1, max_positive_pairs=5, max_negative_pairs=5)
        )
        anchors, positives, negatives = trainer._coarse_tensors(training_pairs)
        assert len(anchors) <= 5
        assert len(negatives) <= 5
        assert len(anchors) == len(positives)

    def test_trained_encoder_fixture_separates_regions(self, trained_encoder, training_pairs):
        positive = training_pairs.positive_region_pairs[:10]
        negative = training_pairs.negative_region_pairs[:10]
        pos = np.mean(
            [
                np.sum(
                    (
                        trained_encoder.embed_region(pair.left_sheet, pair.left_center)
                        - trained_encoder.embed_region(pair.right_sheet, pair.right_center)
                    )
                    ** 2
                )
                for pair in positive
            ]
        )
        neg = np.mean(
            [
                np.sum(
                    (
                        trained_encoder.embed_region(pair.left_sheet, pair.left_center)
                        - trained_encoder.embed_region(pair.right_sheet, pair.right_center)
                    )
                    ** 2
                )
                for pair in negative
            ]
        )
        assert neg > pos
