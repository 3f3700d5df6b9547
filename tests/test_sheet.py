"""Tests for the sparse Sheet grid."""

from collections import Counter
from dataclasses import FrozenInstanceError

import pytest

from repro.sheet import Cell, CellAddress, CellStyle, Sheet
from repro.sheet.style import DEFAULT_STYLE
from repro.sheet.cell import CellType
from repro.sheet.addressing import RangeAddress, parse_range_address


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



class TestSheetStructuralEdits:
    def _make(self) -> Sheet:
        sheet = Sheet()
        sheet.set("A1", "header")
        sheet.set("A2", 1)
        sheet.set("A3", 2)
        sheet.set("B2", "x")
        return sheet

    def test_delete_rows_shifts_up(self):
        sheet = self._make()
        sheet.delete_rows(1, 1)
        assert sheet.get("A2").value == 2
        assert sheet.get("B2").is_empty

    def test_delete_cols(self):
        sheet = self._make()
        sheet.delete_cols(0, 1)
        assert sheet.get("A2").value == "x"

    def test_noop_on_zero_count(self):
        sheet = self._make()
        sheet.delete_rows(0, 0)
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
        counts = Counter(cell.cell_type for __, cell in survey_sheet.items())
        assert counts[CellType.FORMULA] == 1
        assert counts[CellType.TEXT] > 10

    def test_n_formulas(self, survey_sheet):
        assert survey_sheet.n_formulas() == 1


class TestCellsAreCheckedWhereMade:
    """What the decoders refuse cannot be constructed in-process either."""

    def test_a_style_field_of_the_wrong_type_raises(self):
        """Checked on construction, not only on decode."""
        for fields in ({"font_size": "big"}, {"bold": 2}, {"background_color": "red"}):
            with pytest.raises(ValueError, match="style field"):
                CellStyle(**fields)
        assert CellStyle(font_size=11, bold=1) == CellStyle(font_size=11, bold=1)

    def test_every_style_field_refuses_a_bad_value(self):
        """Each field, by keyword, by position and through ``_replace``."""
        bad = {"background_color": "red", "font_color": "#12345", "font_size": -1.0}
        bad.update(height=True, width="64")
        for position, field in enumerate(CellStyle._fields):
            value = bad.get(field, 2)  # a flag holds 0, 1, False or True
            with pytest.raises(ValueError, match=f"style field '{field}'"):
                CellStyle(**{field: value})
            with pytest.raises(ValueError, match=f"style field '{field}'"):
                CellStyle(*DEFAULT_STYLE[:position], value)
            with pytest.raises(ValueError, match=f"style field '{field}'"):
                DEFAULT_STYLE._replace(**{field: value})

    def test_a_style_is_the_tuple_of_its_fields(self):
        style = CellStyle(bold=True, font_size=12)
        assert style == (None, None, True, False, False, 12, 15.0, 64.0) + (False,) * 4
        assert hash(style) == hash(tuple(style)) and style == CellStyle(bold=1, font_size=12.0)
        assert style.to_dict() == dict(zip(CellStyle._fields, style))

    def test_a_value_no_cell_can_hold_raises(self):
        class Unhashable(str):
            __hash__ = None

        for value in ([1, 2], {"a": 1}, 10**400, -(10**400), Unhashable("x")):
            with pytest.raises(ValueError, match="cell value"):
                Cell(value)
        with pytest.raises(ValueError, match="cell value"):
            Sheet().set("A1", [1])
        assert Cell(10**300).value == 10**300

    def test_a_cell_is_immutable_and_a_copy_shares_it(self):
        sheet = Sheet()
        cell = sheet.set("A1", 1.0)
        with pytest.raises(FrozenInstanceError):
            cell.value = 2.0
        clone = sheet.copy()
        assert clone.get("A1") is cell
        clone.set("A1", 2.0)
        assert sheet.get("A1") is cell
