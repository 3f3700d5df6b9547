"""A cold sheet on arrays: the cell-feature table and its batch
featurization, the window gather, the encoder's reduced-tensor region path
and ``im2col`` against the cell-by-cell / per-window / ``np.pad``
references they replaced.

Nothing here reads a clock: every test compares bytes or counts, so a
rewrite of one of the three kernels that moves a value fails here whatever
the machine's speed.
"""

import datetime
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AutoFormula
from repro.embedding import HashedSemanticEmbedder
from repro.embedding.hashed import _stable_hash
from repro.features import FeatureConfig, WindowFeaturizer, cell_features, window as window_module
from repro.features.window import _window_blocks, gather_windows, window_from_padded
from repro.formula.errors import ErrorValue
from repro.models import ModelConfig, SheetEncoder, TrainingConfig, TripletTrainer, train_models
from repro.nn import Conv2D
from repro.sheet import Cell, CellAddress, CellStyle, Sheet
from repro.sheet.cell import syntactic_pattern

CONFIG = FeatureConfig(window_rows=10, window_cols=6, content_embedding_dim=16)
TIMEOUT = 60.0


def reference_embed(embedder, text: str, normalize: bool = True) -> np.ndarray:
    """The hashed embedder's single-text loop as it was: one float32 add per
    token, then division by ``np.linalg.norm``."""
    vector = np.zeros(embedder.dimension, dtype=np.float32)
    if not text:
        return vector
    for tokens, weight in ((embedder._word_tokens(text), 1.0), (embedder._char_tokens(text), 0.5)):
        for token in tokens:
            token_hash = _stable_hash(token)
            sign = 1.0 if (token_hash >> 32) & 1 else -1.0
            vector[token_hash % embedder.dimension] += sign * weight
    norm = float(np.linalg.norm(vector))
    if norm > 0.0 and normalize:
        vector /= norm
    return vector


def reference_vector(featurizer: WindowFeaturizer, cell: Cell, valid: bool) -> np.ndarray:
    """One cell's vector, written part by part with no table, no batch and
    no part memo — what a cell-feature cache miss computed."""
    config = featurizer.config
    vector = np.zeros(featurizer.cell_featurizer.dimension, dtype=np.float32)
    width = config.content_embedding_dim
    types = width + len(cell_features._CELL_TYPES)
    if config.use_content_features:
        text = cell.display_text()
        if text:
            embedder = featurizer.cell_featurizer.embedder
            if isinstance(embedder, HashedSemanticEmbedder):
                embedded = reference_embed(embedder, text)
            else:  # the base-class loop, unchanged
                embedded = embedder.embed(text)
            vector[: min(width, len(embedded))] = embedded[:width]
        vector[width + cell_features._CELL_TYPES.index(cell.cell_type)] = 1.0
        vector[types : types + cell_features._N_PATTERN_FEATURES] = (
            cell_features._pattern_part.__wrapped__(syntactic_pattern(cell.value))
        )
    if config.use_style_features:
        vector[featurizer.cell_featurizer.style_feature_slice()] = (
            cell_features._style_part.__wrapped__(cell.style)
        )
    vector[-1] = 1.0 if valid else 0.0
    return vector


def reference_tensor(featurizer: WindowFeaturizer, sheet: Sheet) -> np.ndarray:
    """The padded tensor built one :func:`reference_vector` and one row
    assignment per cell, in address order — what ``_build_tensor`` was."""
    rows, cols = featurizer.config.window_rows, featurizer.config.window_cols
    tensor = np.empty(
        (sheet.n_rows + rows - 1, sheet.n_cols + cols - 1, featurizer.cell_featurizer.dimension),
        dtype=np.float32,
    )
    tensor[:] = reference_vector(featurizer, Cell(), valid=False)
    interior = tensor[rows // 2 : rows // 2 + sheet.n_rows, cols // 2 : cols // 2 + sheet.n_cols]
    interior[:] = reference_vector(featurizer, Cell(), valid=True)
    for address, cell in sheet.cells():
        interior[address.row, address.col] = reference_vector(featurizer, cell, valid=True)
    return tensor


def fresh_featurizer(config: FeatureConfig = None) -> WindowFeaturizer:
    """A cold featurizer whose two constant vectors (padding, empty) are
    already keyed, so a build's lookups are its cells' lookups."""
    featurizer = WindowFeaturizer(config or CONFIG)
    featurizer.padding_features(), featurizer._empty_features()
    return featurizer


def lookups(featurizer: WindowFeaturizer) -> int:
    stats = featurizer.cell_featurizer._table.stats()
    return stats["hit"] + stats["miss"]


# ------------------------------------------------------------------ strategies

_SHARED_STYLES = [
    CellStyle(),
    CellStyle(bold=True, border_top=True),
    CellStyle(background_color="#4472C4", font_color="#FFFFFF", font_size=12.0),
]

cell_values = st.one_of(
    st.none(),
    st.sampled_from(["", "Total", "12.5", "2020-01-02", "#DIV/0!", "n/a", "50%"]),
    st.text(max_size=6),
    st.sampled_from([1, 1.0, True, False, 0, 0.0, float("nan"), float("inf")]),
    st.integers(-1000, 1000),
    st.floats(allow_nan=True, width=32),
    st.dates(datetime.date(1999, 1, 1), datetime.date(2030, 1, 1)),
    st.just(datetime.datetime(2024, 5, 21, 9, 30)),
    st.sampled_from([ErrorValue("#DIV/0!"), ErrorValue("#REF!")]),
)

cell_styles = st.one_of(
    st.sampled_from(_SHARED_STYLES),  # one object on many cells
    st.builds(  # an object of its own, often equal to another cell's
        CellStyle,
        background_color=st.sampled_from([None, "#FFFF00"]),
        bold=st.booleans(),
        font_size=st.sampled_from([11.0, 11, 14.0]),
        border_bottom=st.booleans(),
    ),
)


@st.composite
def sheets(draw):
    sheet = Sheet("drawn")
    addresses = draw(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 6)), max_size=25, unique=True)
    )
    if draw(st.booleans()):
        addresses.append((60, 15))  # one far cell: a mostly empty extent
    for address in addresses:
        formula = draw(st.sampled_from([None, None, "=SUM(A1:A3)"]))
        sheet.set_cell(
            address, Cell(value=draw(cell_values), formula=formula, style=draw(cell_styles))
        )
    return sheet


# ------------------------------------------------------ shared feature parts


class TestSharedFeatureParts:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.builds(
                Cell,
                value=cell_values,
                formula=st.sampled_from([None, "=SUM(A1:A3)"]),
                style=cell_styles,
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_a_vector_does_not_depend_on_what_the_part_memos_hold(self, cells):
        """The type, pattern and style parts are shared across cell keys and
        read-only; a batch built from them gives the bytes a build from
        emptied memos does, and the reference's."""
        featurizer = WindowFeaturizer(CONFIG)
        warm = featurizer.cell_featurizer._featurize_batch(cells, True).tobytes()
        cell_features._pattern_part.cache_clear()
        cell_features._style_part.cache_clear()
        assert featurizer.cell_featurizer._featurize_batch(cells, True).tobytes() == warm
        expected = [reference_vector(featurizer, cell, True) for cell in cells]
        assert np.stack(expected).tobytes() == warm
        assert cell_features._style_part.cache_info().currsize == len({cell.style for cell in cells})
        assert not cell_features._ONE_HOTS.flags.writeable
        for cell in cells:
            parts = [
                cell_features._pattern_part(syntactic_pattern(cell.value)),
                cell_features._style_part(cell.style),
            ]
            assert not any(part.flags.writeable for part in parts)


# ------------------------------------------------------ the bulk tensor build

#: A feature configuration per group switch and embedder.
_CONFIGS = [
    CONFIG,
    replace(CONFIG, use_content_features=False),
    replace(CONFIG, use_style_features=False),
    replace(CONFIG, embedder_name="glove"),
    FeatureConfig(window_rows=6, window_cols=4, content_embedding_dim=8, embedder_name="glove"),
]


class TestBuildTensor:
    @settings(max_examples=60, deadline=None)
    @given(sheets())
    def test_equals_the_cell_by_cell_loop_and_counts_one_lookup_per_cell(self, sheet):
        featurizer = fresh_featurizer()
        before = lookups(featurizer)
        tensor = featurizer._build_tensor(sheet)
        assert lookups(featurizer) - before == sheet.n_cells
        assert tensor.tobytes() == reference_tensor(featurizer, sheet).tobytes()
        # A second build is answered by the table alone, and equally.
        stats = featurizer.cell_featurizer._table.stats()
        assert featurizer._build_tensor(sheet).tobytes() == tensor.tobytes()
        again = featurizer.cell_featurizer._table.stats()
        assert again["hit"] + again["miss"] - stats["hit"] - stats["miss"] == sheet.n_cells
        assert again["size"] == stats["size"]

    def test_signed_zeros_keep_their_own_features(self):
        """0.0 and -0.0 compare and hash equal but read "0.0" and "-0.0": a
        table keyed on the value alone served one's row for the other,
        whichever came first (a drawn example of the property below)."""
        featurizer = fresh_featurizer(replace(CONFIG, embedder_name="sbert"))
        built = []
        for values in ([0.0], [-0.0], [-0.0, 0.0]):
            sheet = Sheet("zeros")
            for col, value in enumerate(values):
                sheet.set((0, col), value)
            built.append(featurizer._build_tensor(sheet).tobytes())
            assert built[-1] == reference_tensor(featurizer, sheet).tobytes()
        assert built[0] != built[1]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(sheets(), min_size=1, max_size=3), st.sampled_from(_CONFIGS), st.booleans())
    def test_every_configuration_and_a_four_row_table_equal_the_reference(
        self, drawn, config, tiny
    ):
        """Whatever the table holds — a 4-row bound starts it over inside one
        build — every tensor is the reference's, for both embedders and with
        either feature group off; every build counts one lookup per cell."""
        with pytest.MonkeyPatch.context() as patch:
            if tiny:
                patch.setattr(cell_features, "_MAX_CACHED_CELLS", 4)
            featurizer = fresh_featurizer(config)
        for sheet in drawn + drawn:
            before = lookups(featurizer)
            tensor = featurizer._build_tensor(sheet)
            assert lookups(featurizer) - before == sheet.n_cells
            assert tensor.tobytes() == reference_tensor(featurizer, sheet).tobytes()
        stats = featurizer.cell_featurizer._table.stats()
        assert stats["size"] <= (4 if tiny else cell_features._MAX_CACHED_CELLS)
        assert featurizer.padding_features().tobytes() == (
            reference_vector(featurizer, Cell(), valid=False).tobytes()
        )

    @settings(max_examples=30, deadline=None)
    @given(sheets())
    def test_single_cell_and_bulk_paths_share_entries(self, sheet):
        featurizer = fresh_featurizer()
        cells = featurizer.cell_featurizer
        keyed = [cell for __, cell in sheet.cells()]
        if not keyed:
            return
        one = cells.featurize(keyed[0], valid=True)
        alone = cells._table.stats()["hit"]
        featurizer._build_tensor(sheet)
        hits = cells._table.stats()["hit"]
        assert hits > alone  # the cell featurized alone is found by the bulk read
        for cell in keyed:  # ... and what the bulk read filled, by the single one
            cells.featurize(cell, valid=True)
        assert cells._table.stats()["hit"] == hits + len(keyed)
        assert cells.featurize(keyed[0], valid=True).tobytes() == one.tobytes()

    def test_a_key_that_misses_twice_in_one_sheet_is_computed_once(self, monkeypatch):
        featurizer = fresh_featurizer()
        cells = featurizer.cell_featurizer
        batches = []
        batch = cells._featurize_batch
        monkeypatch.setattr(
            cells,
            "_featurize_batch",
            lambda drawn, valid: batches.append(len(drawn)) or batch(drawn, valid),
        )
        sheet = Sheet()
        for row in range(40):
            sheet.set((row, 0), "Yes" if row % 2 else "No")
            sheet.set((row, 1), f"text {row}")  # misses once each
        tensor = featurizer._build_tensor(sheet)
        assert batches == [2 + 40]  # one batch for every miss of the build
        assert cells._table.stats()["size"] == 2 + 40 + 2  # + padding and empty
        assert tensor.tobytes() == reference_tensor(featurizer, sheet).tobytes()
        featurizer._build_tensor(sheet)
        assert batches == [2 + 40]  # all hits: no batch

    def test_walks_the_cells_unsorted(self, monkeypatch):
        sheet = Sheet()
        for row in (5, 0, 3):
            sheet.set((row, 1), row)
        monkeypatch.setattr(Sheet, "cells", lambda self: pytest.fail("sorted walk"))
        tensor = WindowFeaturizer(CONFIG)._build_tensor(sheet)
        assert tensor.shape[:2] == (6 + 9, 2 + 5)

    def test_threads_building_the_same_cold_sheets_agree_and_count_exactly(self):
        cold = _cold_sheets(24)
        expected = [reference_tensor(fresh_featurizer(), sheet).tobytes() for sheet in cold]
        featurizer = fresh_featurizer()
        before = lookups(featurizer)
        n_threads = 6
        built = _race(
            [lambda: [featurizer._build_tensor(sheet).tobytes() for sheet in cold]] * n_threads
        )
        assert all(result == expected for result in built)
        assert lookups(featurizer) - before == n_threads * sum(sheet.n_cells for sheet in cold)
        # One held row per distinct content, whoever filled it first.
        single = WindowFeaturizer(CONFIG)
        for sheet in cold:
            single._build_tensor(sheet)
        size = featurizer.cell_featurizer._table.stats()["size"]
        assert size == single.cell_featurizer._table.stats()["size"]
        assert featurizer.cell_featurizer._table.stats()["evict"] == 0

    def test_builds_stay_exact_while_another_thread_forces_start_overs(self, monkeypatch):
        """Two threads build tensors while a third featurizes distinct
        cells into a 16-row table, starting it over every few calls: a read
        copies its rows under the mutex a start-over takes, so no build is
        handed a row rewritten for another key."""
        monkeypatch.setattr(cell_features, "_MAX_CACHED_CELLS", 16)
        featurizer = fresh_featurizer()
        cold = _cold_sheets(12)
        expected = [reference_tensor(featurizer, sheet).tobytes() for sheet in cold]
        done = threading.Event()

        def churn():
            count = 0
            while not done.is_set():
                count += 1
                cells = [Cell(f"churn {count} {index}") for index in range(5)]
                featurizer.cell_featurizer.featurize_many(cells)
            return count

        def build():
            try:
                return [
                    featurizer._build_tensor(sheet).tobytes() for __ in range(3) for sheet in cold
                ]
            finally:
                done.set()

        first, second, churned = _race([build, build, churn])
        assert first == second == expected * 3
        assert churned > 0 and featurizer.cell_featurizer._table.stats()["evict"] > 0


def _cold_sheets(count: int) -> list:
    drawn = np.random.default_rng(5)
    labels = ["Total", "Yes", "No", "Q1", "Q2", 1, 1.0, True, None, 17.5]
    cold = []
    for index in range(count):
        sheet = Sheet(f"cold-{index}")
        for row in range(12):
            for col in range(4):
                value = labels[int(drawn.integers(len(labels)))]
                sheet.set((row, col), value, style=CellStyle(bold=bool((row + index) % 3 == 0)))
        cold.append(sheet)
    return cold


def _race(tasks) -> list:
    """Run every task on its own thread from one barrier, with the
    interpreter switching threads as often as it can; their results."""
    results, errors = [None] * len(tasks), []
    barrier = threading.Barrier(len(tasks))

    def run(index):
        try:
            barrier.wait(TIMEOUT)
            results[index] = tasks[index]()
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(index,)) for index in range(len(tasks))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(worker.is_alive() for worker in workers)
    return results


# ------------------------------------------------------- the batch embedding

#: Texts whose per-text loop the batch must reproduce: empty and blank ones,
#: ones sharing every token, and long ones — "a" * 5000 puts 4 998 equal
#: trigrams in one bucket, a sum of squares past the 2**22 bound.
_EDGE_TEXTS = [
    "", " ", "\t\n ", "Total", "total", "Total Sales", "2020-01-02", "ab", "a", "ÄÖü ß",
    "a" * 5000, "ab" * 1500, " ".join(f"w{i}" for i in range(900)),
]  # fmt: skip


class TestEmbedBatch:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.text(max_size=40),
                st.text(alphabet=st.characters(codec="utf-8"), min_size=2001, max_size=2600),
                st.sampled_from(_EDGE_TEXTS),
            ),
            max_size=8,
        ),
        st.sampled_from([384, 32, 16, 7]),
    )
    def test_rows_equal_the_single_text_loop(self, texts, dimension):
        embedder = HashedSemanticEmbedder(dimension)
        batch = embedder.embed_batch(texts)
        assert batch.shape == (len(texts), dimension) and batch.dtype == np.float32
        for text, row in zip(texts, batch):
            assert row.tobytes() == reference_embed(embedder, text).tobytes()
            assert embedder.embed(text).tobytes() == row.tobytes()

    def test_edge_texts_and_the_norm_fallback(self, monkeypatch):
        embedder = HashedSemanticEmbedder(32)
        unnormalized = reference_embed(embedder, "a" * 5000, normalize=False).astype(np.float64)
        assert unnormalized @ unnormalized >= 2.0**22
        norms = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda x: norms.append(len(x)) or norm(x))
        batch = embedder.embed_batch(_EDGE_TEXTS)
        monkeypatch.undo()
        # The rows whose tokens weigh 2048 or more take the loop's norm.
        heavy = [
            text
            for text in _EDGE_TEXTS
            if len(embedder._word_tokens(text)) + len(embedder._char_tokens(text)) / 2 >= 2048
        ]
        assert "a" * 5000 in heavy and norms == [32] * len(heavy)
        for text, row in zip(_EDGE_TEXTS, batch):
            assert row.tobytes() == reference_embed(embedder, text).tobytes(), text[:20]
        assert not batch[:3].any()  # empty and blank texts embed to zeros


# ------------------------------------------- the reference path nobody runs


def _grid_sheet() -> Sheet:
    sheet = Sheet("grid")
    for row in range(14):
        for col in range(5):
            if (row + col) % 4:
                sheet.set((row, col), f"r{row}c{col}" if col % 2 else row * 1.5 + col)
    sheet.set("B3", formula="=SUM(A1:A2)", value=3.0)
    sheet.set("C9", "styled", style=CellStyle(bold=True, background_color="#FFFF00"))
    return sheet


#: Inside the extent, on each edge of it, and outside it on every side.
_CENTERS = [
    CellAddress(6, 2), CellAddress(0, 0), CellAddress(13, 4), CellAddress(0, 4), CellAddress(13, 0),
    CellAddress(14, 2), CellAddress(6, 5), CellAddress(40, 30), CellAddress(2, 9),
]  # fmt: skip


class TestSparseReference:
    """``_window_sparse`` — what sheets over the densification budget go
    through — is the cell-by-cell reference the array path must equal."""

    def test_featurize_sheet_and_regions_equal_the_dense_path(self, monkeypatch):
        sheet = _grid_sheet()
        dense = WindowFeaturizer(CONFIG)
        dense_sheet = dense.featurize_sheet(sheet)
        dense_regions = {
            blank: dense.featurize_regions(sheet, _CENTERS, blank_center=blank)
            for blank in (False, True)
        }
        assert dense.padded_sheet_tensor(sheet) is not None
        monkeypatch.setattr(window_module, "_MAX_DENSE_BYTES", 1)
        sparse = WindowFeaturizer(CONFIG)
        assert sparse.padded_sheet_tensor(sheet) is None
        assert sparse.featurize_sheet(sheet).tobytes() == dense_sheet.tobytes()
        for blank, windows in dense_regions.items():
            assert (
                sparse.featurize_regions(sheet, _CENTERS, blank_center=blank).tobytes()
                == windows.tobytes()
            )
        assert sparse.featurize_regions(Sheet(), [CellAddress(0, 0)]).tobytes() == (
            WindowFeaturizer(CONFIG).featurize_regions(Sheet(), [CellAddress(0, 0)]).tobytes()
        )
        assert len(sparse._tensor_cache) == 0

    def test_predict_on_an_undensifiable_sheet_gives_the_dense_formula(
        self, trained_encoder, pge_corpus, monkeypatch
    ):
        from repro.corpus import sample_test_cases, split_corpus

        test_workbooks, reference_workbooks = split_corpus(pge_corpus, 0.15, "timestamp")
        cases = sample_test_cases("PGE", test_workbooks, max_per_sheet=1, seed=0)[:6]
        predictor = AutoFormula(trained_encoder)
        predictor.fit(reference_workbooks)
        dense = [predictor.predict(case.target_sheet.copy(), case.target_cell) for case in cases]
        assert any(prediction is not None for prediction in dense)
        monkeypatch.setattr(window_module, "_MAX_DENSE_BYTES", 1)
        for case, expected in zip(cases, dense):
            sheet = case.target_sheet.copy()
            assert trained_encoder.featurizer.padded_sheet_tensor(sheet) is None
            prediction = predictor.predict(sheet, case.target_cell)
            assert (prediction and prediction.formula) == (expected and expected.formula)


# ------------------------------------------------------ shared tensors: safety


class TestSharedTensorsAreReadOnly:
    def test_cached_sheet_tensors_cannot_be_written(self):
        sheet = _grid_sheet()
        featurizer = WindowFeaturizer(CONFIG)
        tensor = featurizer.padded_sheet_tensor(sheet)
        assert featurizer.padded_sheet_tensor(sheet) is tensor
        with pytest.raises(ValueError, match="read-only"):
            tensor[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            tensor += 1.0
        encoder = SheetEncoder(ModelConfig(features=CONFIG))
        reduced = encoder._reduced_entry(sheet).tensor
        assert encoder._reduced_entry(sheet).tensor is reduced
        with pytest.raises(ValueError, match="read-only"):
            reduced[0, 0, 0] = 1.0

    def test_windows_are_private_writable_copies(self):
        sheet = _grid_sheet()
        featurizer = WindowFeaturizer(CONFIG)
        tensor = featurizer.padded_sheet_tensor(sheet)
        before = tensor.tobytes()
        rows, cols = CONFIG.window_rows, CONFIG.window_cols
        padding = featurizer.padding_features()
        for centers in (_CENTERS[:5], _CENTERS):  # the one-copy case, the mixed case
            windows = gather_windows(
                tensor,
                np.array([center.row for center in centers]),
                np.array([center.col for center in centers]),
                sheet.n_rows, sheet.n_cols, rows, cols, padding,
            )  # fmt: skip
            assert windows.flags.writeable and not np.shares_memory(windows, tensor)
            windows[:] = -1.0
        window = window_from_padded(tensor, 3, 1, rows, cols, padding)
        assert window.flags.writeable and not np.shares_memory(window, tensor)
        window[:] = -1.0
        # blank_center writes into what featurize_regions returns.
        blanked = featurizer.featurize_regions(sheet, _CENTERS, blank_center=True)
        assert np.array_equal(blanked[0, rows // 2, cols // 2], padding)
        assert featurizer.featurize_sheet(sheet).flags.writeable
        assert tensor.tobytes() == before

    def test_the_strided_view_cannot_be_written_through(self):
        tensor = np.zeros((12, 9, 4), dtype=np.float32)  # writable itself
        blocks = _window_blocks(tensor, 10, 6)
        assert blocks.shape == (3, 4, 10, 6, 4) and not blocks.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            blocks[0, 0, 0, 0, 0] = 1.0
        with pytest.raises(IndexError):
            blocks[3, 0]
        # A tensor smaller than a window has no block to hand out.
        with pytest.raises(IndexError):
            _window_blocks(np.zeros((9, 5, 4), dtype=np.float32), 10, 6)[0, 0]
        with pytest.raises(ValueError):
            _window_blocks(np.zeros((8, 5, 4), dtype=np.float32), 10, 6)


# ------------------------------------------------ the encoder's one region path


@st.composite
def sheets_and_centers(draw):
    """A drawn sheet and centers on it, past its extent on either axis too."""
    sheet = draw(sheets())
    centers = draw(
        st.lists(
            st.tuples(st.integers(0, sheet.n_rows + 12), st.integers(0, sheet.n_cols + 8)),
            min_size=1,
            max_size=8,
        )
    )
    return sheet, np.array([row for row, __ in centers]), np.array([col for __, col in centers])


_CENTER_ROWS = np.array([center.row for center in _CENTERS])
_CENTER_COLS = np.array([center.col for center in _CENTERS])


def _embeddings(encoder: SheetEncoder, sheet: Sheet) -> list:
    """Bytes of the sheet's vector and of its regions, plain and blanked."""
    return [encoder.embed_sheet(sheet).tobytes()] + [
        encoder.embed_regions(sheet, _CENTER_ROWS, _CENTER_COLS, blank_center=blank).tobytes()
        for blank in (False, True)
    ]


def _fresh_copy(encoder: SheetEncoder) -> SheetEncoder:
    """An encoder that never embedded anything, with ``encoder``'s weights."""
    fresh = SheetEncoder(encoder.config)
    fresh.coarse_model.load_state_dict(encoder.coarse_model.state_dict())
    fresh.fine_model.load_state_dict(encoder.fine_model.state_dict())
    return fresh


class TestEncoderRegions:
    @settings(max_examples=60, deadline=None)
    @given(sheets_and_centers(), st.booleans())
    def test_embed_regions_equals_the_per_window_forward(self, trained_encoder, drawn, blank):
        """The reduced-tensor fast path against reducing every window whole:
        the two blank the center in different spaces, so they agree to
        rounding, not to the bit."""
        sheet, rows, cols = drawn
        assert trained_encoder.featurizer.densifiable(sheet)
        fast = trained_encoder.embed_regions(sheet, rows, cols, blank_center=blank)
        centers = [CellAddress(int(row), int(col)) for row, col in zip(rows, cols)]
        windows = trained_encoder.featurizer.featurize_regions(sheet, centers, blank_center=blank)
        np.testing.assert_allclose(
            fast, trained_encoder.fine_model.forward(windows), rtol=0, atol=1e-6
        )

    def test_a_reduced_hit_reads_no_padded_tensor(self):
        encoder = SheetEncoder(ModelConfig(features=CONFIG))
        sheet = _grid_sheet()
        first = _embeddings(encoder, sheet)
        tensors = encoder.featurizer._tensor_cache
        before = tensors.stats()
        assert _embeddings(encoder, sheet) == first
        after = tensors.stats()
        # The sheet vector reads the padded tensor; the regions do not.
        assert after["hit"] + after["miss"] == before["hit"] + before["miss"] + 1
        encoder.featurizer.clear_cache()
        assert encoder.embed_regions(sheet, _CENTER_ROWS, _CENTER_COLS).tobytes() == first[1]
        assert len(tensors) == 0  # the evicted raw tensor was not rebuilt

    def test_racing_callers_share_the_reduced_tensors(self):
        """Every predictor, extension and thread over one encoder reads its
        reduced tensors: callers racing through eviction (more sheets than
        the cache holds) get a serial run's bytes, and every lookup counts."""
        cold = _cold_sheets(12)

        def embed_all(encoder):
            return [
                encoder.embed_regions(sheet, _CENTER_ROWS, _CENTER_COLS, blank).tobytes()
                for sheet in cold
                for blank in (False, True)
            ]

        expected = embed_all(SheetEncoder(ModelConfig(features=CONFIG)))
        shared = SheetEncoder(ModelConfig(features=CONFIG))
        assert _race([lambda: embed_all(shared)] * 3) == [expected] * 3
        stats = shared._reduced_cache.stats()
        assert stats["hit"] + stats["miss"] == 3 * len(expected)
        assert stats["evict"] > 0 and stats["size"] <= window_module.MAX_CACHED_TARGET_SHEETS

    def test_new_weights_drop_what_the_old_ones_derived(self, training_pairs, tmp_path):
        """``load`` and training change the weights in place: what the
        encoder derived from them (fast-path decision, reduced padding,
        reduced tensors) must go, so its vectors equal a fresh encoder's."""
        config = ModelConfig(features=CONFIG)
        sheet = _grid_sheet()
        encoder = SheetEncoder(config)
        initial = _embeddings(encoder, sheet)
        SheetEncoder(replace(config, seed=1)).save(tmp_path)
        encoder.load(tmp_path)
        loaded = _embeddings(encoder, sheet)
        assert loaded != initial and loaded == _embeddings(_fresh_copy(encoder), sheet)
        TripletTrainer(encoder, TrainingConfig(epochs=1, seed=0)).train(training_pairs)
        trained = _embeddings(encoder, sheet)
        assert trained != loaded and trained == _embeddings(_fresh_copy(encoder), sheet)


# ------------------------------------------------------------- gather_windows


class TestGatherWindows:
    ROWS, COLS = 6, 4

    def _check(self, tensor, n_rows, n_cols, centers):
        padding = np.full(tensor.shape[-1], -7.0, dtype=np.float32)
        center_rows = np.array([row for row, __ in centers], dtype=np.int64)
        center_cols = np.array([col for __, col in centers], dtype=np.int64)
        windows = gather_windows(
            tensor, center_rows, center_cols, n_rows, n_cols, self.ROWS, self.COLS, padding
        )
        assert windows.shape == (len(centers), self.ROWS, self.COLS, tensor.shape[-1])
        assert windows.dtype == np.float32 and windows.flags.c_contiguous
        if centers:  # flattening, as the pipeline does, stays a view
            assert np.shares_memory(windows.reshape(len(centers), -1), windows)
        for window, (row, col) in zip(windows, centers):
            expected = window_from_padded(tensor, row, col, self.ROWS, self.COLS, padding)
            assert window.tobytes() == expected.tobytes()

    def _tensor(self, n_rows, n_cols, dim=5):
        shape = (n_rows + self.ROWS - 1, n_cols + self.COLS - 1, dim)
        return np.random.default_rng(0).standard_normal(shape).astype(np.float32)

    def test_all_in_extent(self):
        self._check(self._tensor(9, 7), 9, 7, [(0, 0), (8, 6), (4, 3), (4, 3), (0, 6)])
        self._check(self._tensor(9, 7), 9, 7, [(5, 5)])

    def test_none_in_extent(self):
        self._check(self._tensor(9, 7), 9, 7, [(9, 0), (0, 7), (30, 30), (10, 8)])

    def test_mixed(self):
        self._check(self._tensor(9, 7), 9, 7, [(9, 0), (0, 0), (8, 6), (0, 7), (3, 3), (11, 2)])

    def test_empty_sheet_and_no_centers(self):
        self._check(self._tensor(0, 0), 0, 0, [(0, 0), (3, 2)])
        self._check(self._tensor(0, 0), 0, 0, [])
        self._check(self._tensor(9, 7), 9, 7, [])

    def test_non_contiguous_tensor(self):
        wide = self._tensor(9, 7, dim=10)
        for tensor in (wide[..., ::2], np.asfortranarray(wide)):
            assert not tensor.flags.c_contiguous
            self._check(tensor, 9, 7, [(0, 0), (8, 6), (4, 3)])
            self._check(tensor, 9, 7, [(0, 0), (9, 6), (4, 3)])


# --------------------------------------------------------------------- im2col


def reference_im2col(x: np.ndarray, kernel_size: int) -> np.ndarray:
    """``Conv2D._im2col`` as it was: ``np.pad``, then one patch per offset."""
    batch, rows, cols, channels = x.shape
    pad = kernel_size // 2
    padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    columns = np.empty((batch, rows, cols, kernel_size * kernel_size * channels), dtype=np.float32)
    for di in range(kernel_size):
        for dj in range(kernel_size):
            start = (di * kernel_size + dj) * channels
            columns[..., start : start + channels] = padded[:, di : di + rows, dj : dj + cols, :]
    return columns


class TestIm2col:
    @pytest.mark.parametrize("kernel_size", [1, 3, 5])
    @pytest.mark.parametrize("batch", [1, 7])
    def test_equals_the_np_pad_reference_and_forward_is_unmoved(self, kernel_size, batch):
        drawn = np.random.default_rng(kernel_size * 10 + batch)
        layer = Conv2D(3, 4, kernel_size=kernel_size, rng=drawn)
        layer.params["b"] = drawn.standard_normal(4).astype(np.float32)
        wide = drawn.standard_normal((batch, 6, 10, 6))
        narrow = wide[..., :3].astype(np.float32)
        inputs = {
            "float32": narrow,
            "float64": wide[..., :3].copy(),
            "strided": wide.astype(np.float32)[:, :, ::2, ::2],
            "transposed": np.ascontiguousarray(narrow.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3),
        }
        assert not inputs["strided"].flags.c_contiguous
        assert not inputs["transposed"].flags.c_contiguous
        for name, x in inputs.items():
            columns = layer._im2col(x)
            expected = reference_im2col(x.astype(np.float32), kernel_size)
            assert columns.dtype == np.float32 and columns.tobytes() == expected.tobytes(), name
            assert columns.tobytes() == reference_im2col(x, kernel_size).tobytes(), name
            output = layer.forward(x)
            assert output.dtype == np.float32
            assert output.tobytes() == (expected @ layer.params["W"] + layer.params["b"]).tobytes()

    def test_training_through_it_yields_the_reference_weights(self, training_pairs, monkeypatch):
        """The toolchain decides the bytes of trained weights, so the golden
        is a second training run in this process through the ``np.pad``
        reference: any value the rewrite moved reaches the weights."""
        config = ModelConfig(
            features=FeatureConfig(window_rows=12, window_cols=8, content_embedding_dim=16)
        )

        def weights():
            encoder, __ = train_models(training_pairs, config, TrainingConfig(epochs=2, seed=0))
            return [
                (name, value.tobytes())
                for model in (encoder.coarse_model, encoder.fine_model)
                for name, value in model.named_parameters()
            ]

        shipped = weights()
        monkeypatch.setattr(
            Conv2D, "_im2col", lambda self, x: reference_im2col(x, self.kernel_size)
        )
        assert weights() == shipped
