"""A cold sheet on arrays: the bulk tensor build, the window gather and
``im2col`` against the cell-by-cell / ``np.pad`` references they replaced.

Nothing here reads a clock: every test compares bytes or counts, so a
rewrite of one of the three kernels that moves a value fails here whatever
the machine's speed.
"""

import datetime
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AutoFormula
from repro.features import FeatureConfig, WindowFeaturizer, cell_features, window as window_module
from repro.features.window import _window_blocks, gather_windows, window_from_padded
from repro.formula.errors import ErrorValue
from repro.models import ModelConfig, SheetEncoder, TrainingConfig, train_models
from repro.nn import Conv2D
from repro.sheet import Cell, CellAddress, CellStyle, Sheet
from repro.sheet.cell import syntactic_pattern

CONFIG = FeatureConfig(window_rows=10, window_cols=6, content_embedding_dim=16)
TIMEOUT = 60.0


def reference_tensor(featurizer: WindowFeaturizer, sheet: Sheet) -> np.ndarray:
    """The padded tensor built one ``featurize`` call and one row
    assignment per cell, in address order — what ``_build_tensor`` was."""
    rows, cols = featurizer.config.window_rows, featurizer.config.window_cols
    tensor = np.empty(
        (sheet.n_rows + rows - 1, sheet.n_cols + cols - 1, featurizer.cell_featurizer.dimension),
        dtype=np.float32,
    )
    tensor[:] = featurizer.padding_features()
    interior = tensor[rows // 2 : rows // 2 + sheet.n_rows, cols // 2 : cols // 2 + sheet.n_cols]
    interior[:] = featurizer.cell_featurizer.featurize(Cell(), valid=True)
    for address, cell in sheet.cells():
        interior[address.row, address.col] = featurizer.cell_featurizer.featurize(cell, valid=True)
    return tensor


def fresh_featurizer() -> WindowFeaturizer:
    """A cold featurizer whose two constant vectors (padding, empty) are
    already keyed, so a build's lookups are its cells' lookups."""
    featurizer = WindowFeaturizer(CONFIG)
    featurizer.padding_features(), featurizer._empty_features()
    return featurizer


def lookups(featurizer: WindowFeaturizer) -> int:
    stats = featurizer.cell_featurizer._cache.stats()
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
    st.just([1, 2]),  # unhashable: featurized, never cached
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

_UNHASHABLE_STYLE = CellStyle(bold=[1])


class TestSharedFeatureParts:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.builds(
                Cell,
                value=cell_values,
                formula=st.sampled_from([None, "=SUM(A1:A3)"]),
                style=cell_styles | st.just(_UNHASHABLE_STYLE),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_a_vector_does_not_depend_on_what_the_part_memos_hold(self, cells):
        """The type, pattern and style parts are shared across cell keys and
        read-only; building a vector from them gives the bytes a build from
        emptied memos does, unhashable styles included (computed, never
        cached)."""
        featurizer = WindowFeaturizer(CONFIG).cell_featurizer
        warm = [featurizer._featurize_uncached(cell, True).tobytes() for cell in cells]
        cell_features._pattern_part.cache_clear()
        cell_features._style_part.cache_clear()
        assert [featurizer._featurize_uncached(cell, True).tobytes() for cell in cells] == warm
        hashable = {cell.style for cell in cells if cell.style is not _UNHASHABLE_STYLE}
        assert cell_features._style_part.cache_info().currsize == len(hashable)
        for cell in cells:
            style = cell.style
            parts = (
                cell_features._TYPE_PARTS[cell.cell_type],
                cell_features._pattern_part(syntactic_pattern(cell.value)),
                cell_features._style_part.__wrapped__(style)
                if style is _UNHASHABLE_STYLE
                else cell_features._style_part(style),
            )
            assert not any(part.flags.writeable for part in parts)


# ------------------------------------------------------ the bulk tensor build


class TestBuildTensor:
    @settings(max_examples=60, deadline=None)
    @given(sheets())
    def test_equals_the_cell_by_cell_loop_and_counts_one_lookup_per_cell(self, sheet):
        featurizer = fresh_featurizer()
        before = lookups(featurizer)
        tensor = featurizer._build_tensor(sheet)
        assert lookups(featurizer) - before == sheet.n_cells
        assert tensor.tobytes() == reference_tensor(WindowFeaturizer(CONFIG), sheet).tobytes()
        # A second build is answered by the cache alone, and equally.
        stats = featurizer.cell_featurizer._cache.stats()
        assert featurizer._build_tensor(sheet).tobytes() == tensor.tobytes()
        again = featurizer.cell_featurizer._cache.stats()
        assert again["hit"] + again["miss"] - stats["hit"] - stats["miss"] == sheet.n_cells
        assert again["size"] == stats["size"]

    @settings(max_examples=30, deadline=None)
    @given(sheets())
    def test_single_cell_and_bulk_paths_share_entries(self, sheet):
        featurizer = fresh_featurizer()
        cells = featurizer.cell_featurizer
        keyed = [cell for __, cell in sheet.cells() if not isinstance(cell.value, list)]
        if not keyed:
            return
        one = cells.featurize(keyed[0], valid=True)
        alone = cells._cache.stats()["hit"]
        featurizer._build_tensor(sheet)
        hits = cells._cache.stats()["hit"]
        assert hits > alone  # the cell featurized alone is found by the bulk read
        for cell in keyed:  # ... and what the bulk read filled, by the single one
            cells.featurize(cell, valid=True)
        assert cells._cache.stats()["hit"] == hits + len(keyed)
        assert cells.featurize(keyed[0], valid=True) is one

    def test_a_key_that_misses_twice_in_one_sheet_is_computed_once(self, monkeypatch):
        featurizer = fresh_featurizer()
        cells = featurizer.cell_featurizer
        computed = []
        uncached = cells._featurize_uncached
        monkeypatch.setattr(
            cells,
            "_featurize_uncached",
            lambda cell, valid: computed.append(cell) or uncached(cell, valid),
        )
        sheet = Sheet()
        for row in range(40):
            sheet.set((row, 0), "Yes" if row % 2 else "No")
            sheet.set((row, 1), [row])  # never cached: computed every time
        tensor = featurizer._build_tensor(sheet)
        assert len(computed) == 2 + 40
        assert cells._cache.stats()["size"] == 2 + 2  # + padding and empty
        assert tensor.tobytes() == reference_tensor(WindowFeaturizer(CONFIG), sheet).tobytes()

    def test_walks_the_cells_unsorted(self, monkeypatch):
        sheet = Sheet()
        for row in (5, 0, 3):
            sheet.set((row, 1), row)
        monkeypatch.setattr(Sheet, "cells", lambda self: pytest.fail("sorted walk"))
        tensor = WindowFeaturizer(CONFIG)._build_tensor(sheet)
        assert tensor.shape[:2] == (6 + 9, 2 + 5)

    def test_threads_building_the_same_cold_sheets_agree_and_count_exactly(self):
        drawn = np.random.default_rng(5)
        labels = ["Total", "Yes", "No", "Q1", "Q2", 1, 1.0, True, None, 17.5]
        cold = []
        for index in range(24):
            sheet = Sheet(f"cold-{index}")
            for row in range(12):
                for col in range(4):
                    value = labels[int(drawn.integers(len(labels)))]
                    sheet.set((row, col), value, style=CellStyle(bold=bool((row + index) % 3 == 0)))
            cold.append(sheet)
        expected = [reference_tensor(WindowFeaturizer(CONFIG), sheet).tobytes() for sheet in cold]
        featurizer = fresh_featurizer()
        before = lookups(featurizer)
        n_threads, built, errors = 6, {}, []
        barrier = threading.Barrier(n_threads)

        def build(worker):
            try:
                barrier.wait(TIMEOUT)
                built[worker] = [featurizer._build_tensor(sheet).tobytes() for sheet in cold]
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=build, args=(worker,)) for worker in range(n_threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(worker.is_alive() for worker in workers)
        assert all(built[worker] == expected for worker in range(n_threads))
        assert lookups(featurizer) - before == n_threads * sum(sheet.n_cells for sheet in cold)
        # One resident entry per distinct content, whoever filled it first.
        single = WindowFeaturizer(CONFIG)
        for sheet in cold:
            single._build_tensor(sheet)
        size = featurizer.cell_featurizer._cache.stats()["size"]
        assert size == single.cell_featurizer._cache.stats()["size"]
        assert featurizer.cell_featurizer._cache.stats()["evict"] == 0


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
        predictor = AutoFormula(SheetEncoder(ModelConfig(features=CONFIG)))
        reduced = predictor._reduced_sheet_tensor(sheet)
        assert predictor._reduced_sheet_tensor(sheet) is reduced
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
