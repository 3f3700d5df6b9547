"""Tests for the representation models, encoder and triplet trainer."""

import dataclasses
import threading
import time

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
    train_models,
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
        batch = encoder.embed_regions(data_sheet, np.array([5, 20]), np.array([1, 1]))
        assert batch.shape == (2, encoder.fine_dimension)
        assert np.allclose(batch[0], encoder.embed_region(data_sheet, CellAddress(5, 1)), atol=1e-5)

    def test_empty_batches(self, small_config):
        encoder = SheetEncoder(small_config)
        empty = np.empty(0, dtype=np.int64)
        assert encoder.embed_regions(Sheet(), empty, empty).shape == (0, encoder.fine_dimension)
        assert encoder.embed_regions(Sheet(), empty, empty, coarse=True).shape == (
            0,
            encoder.coarse_dimension,
        )

    def test_coarse_tolerates_row_shift_more_than_fine(self, small_config, trained_encoder, data_sheet):
        """The CNN branch should be less sensitive to a small row shift than the FC branch."""
        encoder = trained_encoder
        # The sheet with one empty row inserted above row 5.
        shifted = Sheet(data_sheet.name)
        for address, cell in data_sheet.items():
            shifted.set_cell(address.shifted(1, 0) if address.row >= 5 else address, cell)
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
        coarse_rng, __ = trainer.streams()
        anchors, positives, negatives = trainer._coarse_tensors(
            training_pairs, trainer.window_featurizer(), coarse_rng
        )
        assert len(anchors) <= 5
        assert len(negatives) <= 5
        assert len(anchors) == len(positives)

    def test_side_by_side_training_equals_the_two_loops_run_in_turn(self, training_pairs, small_config):
        """Each model draws only from its own stream and owns its layers,
        optimizer and tensors, so ``train`` gives the weights and losses of
        the two per-model loops run one after the other — here the fine
        model's first, the reverse of which one ``train`` starts first."""
        config = TrainingConfig(epochs=2, seed=3)
        encoder = SheetEncoder(small_config)
        history = TripletTrainer(encoder, config).train(training_pairs)

        serial = SheetEncoder(small_config)
        trainer = TripletTrainer(serial, config)
        coarse_rng, fine_rng = trainer.streams()
        featurizer = trainer.window_featurizer()
        fine = trainer._fine_tensors(training_pairs, featurizer, fine_rng)
        fine_losses = trainer._train_model(serial.fine_model, *fine, fine_rng)
        coarse = trainer._coarse_tensors(training_pairs, featurizer, coarse_rng)
        coarse_losses = trainer._train_model(serial.coarse_model, *coarse, coarse_rng)

        assert (history.coarse_losses, history.fine_losses) == (coarse_losses, fine_losses)
        assert len(coarse_losses) == len(fine_losses) == 2
        assert _weight_bytes(encoder) == _weight_bytes(serial)

    def test_the_fine_model_trains_alike_when_the_coarse_one_gets_no_pairs(
        self, training_pairs, small_config
    ):
        config = TrainingConfig(epochs=2, seed=0)
        both = SheetEncoder(small_config)
        TripletTrainer(both, config).train(training_pairs)
        fine_only = SheetEncoder(small_config)
        no_sheet_pairs = dataclasses.replace(
            training_pairs, positive_sheet_pairs=[], negative_sheet_pairs=[]
        )
        history = TripletTrainer(fine_only, config).train(no_sheet_pairs)

        assert history.coarse_losses == [] and len(history.fine_losses) == 2
        assert _weight_bytes(fine_only, "fine_model") == _weight_bytes(both, "fine_model")
        assert _weight_bytes(fine_only, "coarse_model") == _weight_bytes(
            SheetEncoder(small_config), "coarse_model"
        )

    @pytest.mark.parametrize("failing", ["coarse_model", "fine_model"])
    def test_a_loop_that_raises_raises_from_train_once_both_have_stopped(
        self, training_pairs, small_config, monkeypatch, failing
    ):
        """The other loop runs to its end before ``train`` raises: its
        weights are a clean run's, read as soon as the error is out (the
        fine loop is slowed so that it is still running when the coarse
        one fails at once)."""
        config = TrainingConfig(epochs=2, seed=0)
        clean = SheetEncoder(small_config)
        TripletTrainer(clean, config).train(training_pairs)
        other = "fine_model" if failing == "coarse_model" else "coarse_model"

        class Boom(Exception):
            pass

        encoder = SheetEncoder(small_config)
        forward = {name: getattr(encoder, name).forward for name in (failing, other)}

        def failing_forward(x, training=False):
            if training:
                raise Boom(failing)
            return forward[failing](x, training=training)

        def slow_forward(x, training=False):
            time.sleep(0.002)
            return forward[other](x, training=training)

        monkeypatch.setattr(getattr(encoder, failing), "forward", failing_forward)
        monkeypatch.setattr(getattr(encoder, other), "forward", slow_forward)
        with pytest.raises(Boom, match=failing):
            TripletTrainer(encoder, config).train(training_pairs)
        assert _weight_bytes(encoder, other) == _weight_bytes(clean, other)
        assert not [thread for thread in threading.enumerate() if thread.name.startswith("models.train")]

    def test_training_leaves_no_step_state_and_no_training_sheet_behind(
        self, training_pairs, small_config
    ):
        """No layer keeps the last step's batch, input, mask or im2col
        columns, and the encoder's per-sheet tensor cache pins no training
        sheet (the trainer featurizes through a featurizer of its own)."""
        encoder, __ = train_models(training_pairs, small_config, TrainingConfig(epochs=1, seed=0))
        for model in (encoder.coarse_model, encoder.fine_model):
            for layer in model.layers:
                with pytest.raises(RuntimeError, match=r"needs a forward\(x, training=True\) first"):
                    layer.backward(np.zeros((1, 1), dtype=np.float32))
        assert len(encoder.featurizer._tensor_cache) == 0

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


def _weight_bytes(encoder, *models):
    """Every parameter of the named models (both by default), as bytes."""
    return [
        (model, name, value.tobytes())
        for model in models or ("coarse_model", "fine_model")
        for name, value in getattr(encoder, model).named_parameters()
    ]
