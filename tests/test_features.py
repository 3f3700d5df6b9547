"""Tests for cell featurization and view-window extraction."""

import numpy as np
import pytest

from repro.features import CellFeaturizer, FeatureConfig, WindowFeaturizer, region_window_bounds
from repro.features.window import MAX_CACHED_TENSOR_BYTES
from repro.sheet import Cell, CellAddress, CellStyle, Sheet


@pytest.fixture()
def config() -> FeatureConfig:
    return FeatureConfig(window_rows=10, window_cols=6, content_embedding_dim=16)


@pytest.fixture()
def featurizer(config) -> CellFeaturizer:
    return CellFeaturizer(config)


class TestCellFeaturizer:
    def test_dimension_consistency(self, featurizer):
        vector = featurizer.featurize(Cell(value="hello"))
        assert vector.shape == (featurizer.dimension,)

    def test_empty_cell_mostly_zero(self, featurizer):
        vector = featurizer.featurize(Cell())
        # only the type one-hot (EMPTY), default style features and validity flag are set
        assert np.count_nonzero(vector) < 10

    def test_invalid_cell_flag(self, featurizer):
        valid = featurizer.featurize(Cell(value=1), valid=True)
        invalid = featurizer.featurize(Cell(value=1), valid=False)
        assert valid[-1] == 1.0
        assert invalid[-1] == 0.0

    def test_distinct_types_have_distinct_type_features(self, featurizer):
        text = featurizer.featurize(Cell(value="abc"))
        number = featurizer.featurize(Cell(value=3.0))
        content_slice = featurizer.content_feature_slice()
        assert not np.allclose(text[content_slice], number[content_slice])

    def test_style_features_reflect_style(self, featurizer):
        plain = featurizer.featurize(Cell(value="x"))
        styled = featurizer.featurize(Cell(value="x", style=CellStyle(bold=True, background_color="#FF0000")))
        style_slice = featurizer.style_feature_slice()
        assert not np.allclose(plain[style_slice], styled[style_slice])

    def test_content_ablation_zeroes_content_block(self):
        config = FeatureConfig(content_embedding_dim=16, use_content_features=False)
        featurizer = CellFeaturizer(config)
        vector = featurizer.featurize(Cell(value="Total"))
        assert np.allclose(vector[featurizer.content_feature_slice()], 0.0)
        assert vector.shape == (featurizer.dimension,)

    def test_style_ablation_zeroes_style_block(self):
        config = FeatureConfig(content_embedding_dim=16, use_style_features=False)
        featurizer = CellFeaturizer(config)
        vector = featurizer.featurize(Cell(value="Total", style=CellStyle(bold=True)))
        assert np.allclose(vector[featurizer.style_feature_slice()], 0.0)

    def test_similar_text_similar_embeddings(self, featurizer):
        left = featurizer.featurize(Cell(value="Total Sales"))
        right = featurizer.featurize(Cell(value="Total Revenue"))
        other = featurizer.featurize(Cell(value="zzz unrelated qqq"))
        content = featurizer.content_feature_slice()
        sim_related = float(np.dot(left[content], right[content]))
        sim_unrelated = float(np.dot(left[content], other[content]))
        assert sim_related > sim_unrelated

    def test_cached_vectors_are_read_only_and_equal_the_embedder(self, featurizer):
        """The cell-feature cache is the only memo of text embeddings: a hit
        is the same frozen array, so a caller cannot corrupt later lookups,
        and its content block is the embedder's vector bit for bit."""
        first = featurizer.featurize(Cell(value="Revenue"))
        with pytest.raises(ValueError):
            first[0] = 123.0
        again = featurizer.featurize(Cell(value="Revenue"))
        assert again is first
        expected = featurizer.embedder.embed("Revenue")
        assert expected.dtype == np.float32
        assert np.array_equal(again[:16], expected[:16])
        assert np.array_equal(again, CellFeaturizer(featurizer._config).featurize(Cell(value="Revenue")))


    def test_a_key_is_the_content_not_the_objects(self, featurizer):
        """Equal styles on different objects share an entry; 1 / 1.0 / True,
        equal as dict keys, do not; a formula cell is not its value."""
        first = featurizer.featurize(Cell(value="x", style=CellStyle(bold=True, font_size=12.0)))
        assert featurizer.featurize(Cell(value="x", style=CellStyle(bold=True, font_size=12))) is first
        assert featurizer.featurize(Cell(value="x", style=CellStyle(bold=True))) is not first
        vectors = [featurizer.featurize(Cell(value=value)) for value in (1, 1.0, True)]
        assert len({id(vector) for vector in vectors}) == 3
        assert not np.array_equal(vectors[0], vectors[2])
        assert featurizer.featurize(Cell(value=1, formula="=A1")) is not vectors[0]
        assert featurizer.featurize(Cell(value=1), valid=False) is not vectors[0]
        assert featurizer._cache.stats()["size"] == 7

    def test_unhashable_content_is_featurized_and_never_cached(self, featurizer):
        for cell in (Cell(value=[1, 2]), Cell(value="x", style=CellStyle(bold=[1]))):
            first = featurizer.featurize(cell)
            again = featurizer.featurize(cell)
            assert again is not first and np.array_equal(again, first)
            assert not first.flags.writeable
        assert np.array_equal(
            featurizer.featurize(Cell(value="x", style=CellStyle(bold=[1]))),
            featurizer.featurize(Cell(value="x", style=CellStyle(bold=True))),
        )
        assert featurizer._cache.stats() == {"hit": 0, "miss": 6, "evict": 0, "size": 1}

    def test_forgetting_style_numbers_aliases_no_entry(self, featurizer, monkeypatch):
        """The style intern table is bounded by clearing it; numbers are not
        reused, so a style met again gets a new one and its own vectors."""
        from repro.features import cell_features

        monkeypatch.setattr(cell_features, "_MAX_CACHED_CELLS", 4)
        styles = [CellStyle(font_size=float(size)) for size in range(8, 20)]
        for __ in range(3):
            for style in styles:
                vector = featurizer.featurize(Cell(value="x", style=style))
                expected = CellFeaturizer(featurizer._config).featurize(Cell(value="x", style=style))
                assert np.array_equal(vector, expected)
                assert len(featurizer._style_ids) <= 4
        assert next(featurizer._next_style_id) == 3 * len(styles)


class TestWindowBounds:
    def test_center_in_middle(self):
        assert region_window_bounds(CellAddress(50, 5), 20, 8) == (40, 1)

    def test_center_near_origin_is_not_clamped(self):
        top, left = region_window_bounds(CellAddress(1, 0), 20, 8)
        assert top == -9
        assert left == -4


class TestWindowFeaturizer:
    def test_window_shape(self, config):
        featurizer = WindowFeaturizer(config)
        sheet = Sheet()
        sheet.set("A1", 1)
        window = featurizer.featurize_sheet(sheet)
        assert window.shape == featurizer.window_shape

    def test_sheet_window_anchored_top_left(self, config):
        featurizer = WindowFeaturizer(config)
        sheet = Sheet()
        sheet.set("A1", "corner")
        window = featurizer.featurize_sheet(sheet)
        corner = featurizer.cell_featurizer.featurize(sheet.get("A1"), valid=True)
        assert np.allclose(window[0, 0], corner)

    def test_out_of_bounds_cells_marked_invalid(self, config):
        featurizer = WindowFeaturizer(config)
        sheet = Sheet()
        sheet.set("A1", 1)  # 1x1 sheet
        window = featurizer.featurize_sheet(sheet)
        assert window[0, 0, -1] == 1.0
        assert window[5, 5, -1] == 0.0

    def test_region_window_centered(self, config):
        featurizer = WindowFeaturizer(config)
        sheet = Sheet()
        for row in range(30):
            sheet.set((row, 0), row)
        center = CellAddress(15, 0)
        window = featurizer.featurize_region(sheet, center)
        center_features = featurizer.cell_featurizer.featurize(sheet.get(center), valid=True)
        assert np.allclose(window[config.window_rows // 2, config.window_cols // 2], center_features)

    def test_one_cell_shift_changes_window(self, config):
        featurizer = WindowFeaturizer(config)
        sheet = Sheet()
        for row in range(40):
            sheet.set((row, 2), f"value {row}")
        left = featurizer.featurize_region(sheet, CellAddress(20, 2))
        right = featurizer.featurize_region(sheet, CellAddress(21, 2))
        assert not np.allclose(left, right)

    def test_blank_center_masks_center_cell(self, config):
        featurizer = WindowFeaturizer(config)
        sheet = Sheet()
        for row in range(20):
            sheet.set((row, 2), row)
        center = CellAddress(10, 2)
        plain = featurizer.featurize_region(sheet, center)
        blanked = featurizer.featurize_region(sheet, center, blank_center=True)
        row_offset, col_offset = config.window_rows // 2, config.window_cols // 2
        assert not np.allclose(plain[row_offset, col_offset], blanked[row_offset, col_offset])
        assert blanked[row_offset, col_offset, -1] == 0.0
        # all other cells unchanged
        mask = np.ones(plain.shape[:2], dtype=bool)
        mask[row_offset, col_offset] = False
        assert np.allclose(plain[mask], blanked[mask])

    def test_featurize_regions_batch(self, config):
        featurizer = WindowFeaturizer(config)
        sheet = Sheet()
        sheet.set("C5", 1)
        centers = [CellAddress(4, 2), CellAddress(5, 2)]
        batch = featurizer.featurize_regions(sheet, centers)
        assert batch.shape == (2,) + featurizer.window_shape

    def test_empty_centers(self, config):
        featurizer = WindowFeaturizer(config)
        assert featurizer.featurize_regions(Sheet(), []).shape[0] == 0

    def test_cache_returns_consistent_results(self, config):
        featurizer = WindowFeaturizer(config)
        sheet = Sheet()
        sheet.set("B2", "cached")
        first = featurizer.featurize_sheet(sheet)
        second = featurizer.featurize_sheet(sheet)
        assert np.allclose(first, second)
        featurizer.clear_cache()
        third = featurizer.featurize_sheet(sheet)
        assert np.allclose(first, third)

    def test_tensor_cache_is_bounded_in_bytes(self):
        """Regression: 64 entries of up to 32 MiB each let two-cell sheets
        with far-flung cells pin ~2 GiB.  Twelve of them (363 MiB of padded
        tensors) stay under the byte budget, most recent kept, and an
        evicted sheet is simply featurized again."""
        featurizer = WindowFeaturizer()
        sheets = []
        for index in range(12):
            sheet = Sheet(f"far-{index}")
            sheet.set("A1", float(index))
            sheet.set("L6500", "end")
            sheets.append(sheet)
        total = sum(featurizer.padded_sheet_tensor(sheet).nbytes for sheet in sheets)
        each = total // 12
        assert each > 30 << 20 and total > 360 << 20
        stats = featurizer._tensor_cache.stats()
        kept = MAX_CACHED_TENSOR_BYTES // each
        assert stats["bytes"] == kept * each <= MAX_CACHED_TENSOR_BYTES
        assert stats["size"] == kept < 12 and stats["evict"] == 12 - kept
        for sheet in sheets[-kept:]:  # the most recent ones are the ones held
            featurizer.padded_sheet_tensor(sheet)
        assert featurizer._tensor_cache.stats() == {**stats, "hit": kept}
        centers = [CellAddress(0, 0), CellAddress(6499, 11), CellAddress(3000, 5)]
        evicted = featurizer.featurize_regions(sheets[0], centers)
        featurizer.clear_cache()
        assert np.array_equal(evicted, WindowFeaturizer().featurize_regions(sheets[0], centers))
