"""Tests for the sparse Sheet grid."""

import pytest

from repro.sheet import Cell, CellAddress, CellStyle, Sheet
from repro.sheet.addressing import RangeAddress, parse_range_address
from repro.sheet.cell import CellType


class TestSheetBasics:
    def test_empty_sheet(self):
        sheet = Sheet("Empty")
        assert sheet.n_rows == 0
        assert sheet.n_cols == 0
        assert sheet.n_cells == 0
        assert sheet.used_range() is None
        assert sheet.get("A1").is_empty

    def test_set_and_get_by_a1(self):
        sheet = Sheet()
        sheet.set("B2", 42)
        assert sheet.get("B2").value == 42
        assert sheet["B2"].value == 42

    def test_set_and_get_by_tuple(self):
        sheet = Sheet()
        sheet.set((1, 1), "x")
        assert sheet.get(CellAddress(1, 1)).value == "x"

    def test_extent_grows(self):
        sheet = Sheet()
        sheet.set("C10", 1)
        assert sheet.n_rows == 10
        assert sheet.n_cols == 3

    def test_contains(self):
        sheet = Sheet()
        sheet.set("A1", 1)
        assert "A1" in sheet
        assert "B2" not in sheet

    def test_delete(self):
        sheet = Sheet()
        sheet.set("A1", 1)
        sheet.delete("A1")
        assert sheet.get("A1").is_empty

    def test_set_cell_object(self):
        sheet = Sheet()
        sheet.set_cell("A1", Cell(value=7, style=CellStyle(bold=True)))
        assert sheet.get("A1").style.bold

    def test_used_range(self):
        sheet = Sheet()
        sheet.set("B2", 1)
        sheet.set("D5", 2)
        assert sheet.used_range() == parse_range_address("B2:D5")


class TestSheetIteration:
    def test_cells_sorted(self):
        sheet = Sheet()
        sheet.set("B1", 2)
        sheet.set("A1", 1)
        addresses = [addr.to_a1() for addr, __ in sheet.cells()]
        assert addresses == ["A1", "B1"]

    def test_items_are_the_stored_cells_in_storage_order(self):
        sheet = Sheet()
        assert not sheet.items()
        sheet.set("B1", 2)
        sheet.set("A1", 1)
        sheet.set("C3", 3)
        sheet.delete("C3")
        assert [addr.to_a1() for addr, __ in sheet.items()] == ["B1", "A1"]
        assert sorted(sheet.items()) == list(sheet.cells())
        assert len(sheet.items()) == sheet.n_cells

    def test_formula_cells(self):
        sheet = Sheet()
        sheet.set("A1", 1)
        sheet.set("A2", formula="=A1*2")
        formulas = sheet.formula_cells()
        assert len(formulas) == 1
        assert formulas[0][0].to_a1() == "A2"

    def test_cells_in_range_includes_empty(self):
        sheet = Sheet()
        sheet.set("A1", 1)
        cells = list(sheet.cells_in_range(parse_range_address("A1:A3")))
        assert len(cells) == 3
        assert cells[1][1].is_empty

    def test_values_in_range(self):
        sheet = Sheet()
        sheet.set("A1", 1)
        sheet.set("A2", 2)
        assert sheet.values_in_range(parse_range_address("A1:A3")) == [1, 2, None]

    def test_row_and_column_values(self):
        sheet = Sheet()
        sheet.set("A1", 1)
        sheet.set("B1", 2)
        sheet.set("A2", 3)
        assert sheet.row_values(0) == [1, 2]
        assert sheet.column_values(0) == [1, 3]


class TestSheetStructuralEdits:
    def _make(self) -> Sheet:
        sheet = Sheet()
        sheet.set("A1", "header")
        sheet.set("A2", 1)
        sheet.set("A3", 2)
        sheet.set("B2", "x")
        return sheet

    def test_insert_rows_shifts_down(self):
        sheet = self._make()
        sheet.insert_rows(1, 2)
        assert sheet.get("A1").value == "header"
        assert sheet.get("A4").value == 1
        assert sheet.get("A2").is_empty

    def test_delete_rows_shifts_up(self):
        sheet = self._make()
        sheet.delete_rows(1, 1)
        assert sheet.get("A2").value == 2
        assert sheet.get("B2").is_empty

    def test_insert_cols(self):
        sheet = self._make()
        sheet.insert_cols(0, 1)
        assert sheet.get("B1").value == "header"
        assert sheet.get("A1").is_empty

    def test_delete_cols(self):
        sheet = self._make()
        sheet.delete_cols(0, 1)
        assert sheet.get("A2").value == "x"

    def test_noop_on_zero_count(self):
        sheet = self._make()
        sheet.insert_rows(0, 0)
        sheet.delete_cols(0, 0)
        assert sheet.get("A1").value == "header"

    def test_copy_is_independent(self):
        sheet = self._make()
        clone = sheet.copy("clone")
        clone.set("A1", "changed")
        assert sheet.get("A1").value == "header"
        assert clone.name == "clone"
        assert clone.n_rows == sheet.n_rows


class TestSheetCounts:
    def test_count_by_type(self, survey_sheet):
        counts = survey_sheet.count_by_type()
        assert counts[CellType.FORMULA] == 1
        assert counts[CellType.TEXT] > 10

    def test_n_formulas(self, survey_sheet):
        assert survey_sheet.n_formulas() == 1
