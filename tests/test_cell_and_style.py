"""Tests for cell values, data-type inference and styles."""

import datetime

import pytest

from repro.sheet.cell import Cell, CellType, infer_cell_type, syntactic_pattern
from repro.sheet.style import CellStyle, DEFAULT_STYLE


class TestCellTypeInference:
    def test_empty(self):
        assert infer_cell_type(None) is CellType.EMPTY
        assert infer_cell_type("") is CellType.EMPTY

    def test_numeric(self):
        assert infer_cell_type(3) is CellType.NUMERIC
        assert infer_cell_type(3.14) is CellType.NUMERIC
        assert infer_cell_type("42") is CellType.NUMERIC
        assert infer_cell_type("-1.5e3") is CellType.NUMERIC

    def test_boolean(self):
        assert infer_cell_type(True) is CellType.BOOLEAN
        assert infer_cell_type(False) is CellType.BOOLEAN

    def test_text(self):
        assert infer_cell_type("hello") is CellType.TEXT
        assert infer_cell_type("Total Sales") is CellType.TEXT

    def test_date(self):
        assert infer_cell_type(datetime.date(2024, 1, 1)) is CellType.DATE
        assert infer_cell_type("2024-01-01") is CellType.DATE
        assert infer_cell_type("2024/1/5") is CellType.DATE

    def test_formula_overrides_value(self):
        assert infer_cell_type(10.0, formula="=SUM(A1:A2)") is CellType.FORMULA


class TestSyntacticPattern:
    def test_date_pattern(self):
        assert syntactic_pattern("2020-01-01") == "DDDD-DD-DD"

    def test_mixed_pattern(self):
        assert syntactic_pattern("SKU-42 x") == "LLL-DDSL"

    def test_none_is_empty(self):
        assert syntactic_pattern(None) == ""


class TestCell:
    def test_defaults(self):
        cell = Cell()
        assert cell.is_empty
        assert not cell.has_formula
        assert cell.cell_type is CellType.EMPTY

    def test_display_text_integers(self):
        assert Cell(value=5.0).display_text() == "5"
        assert Cell(value=5.5).display_text() == "5.5"
        assert Cell(value="abc").display_text() == "abc"
        assert Cell().display_text() == ""

    def test_roundtrip_plain_value(self):
        cell = Cell(value=12.5)
        assert Cell.from_dict(cell.to_dict()).value == 12.5

    def test_roundtrip_formula_and_style(self):
        style = CellStyle(background_color="#4472C4", font_color="#FFFFFF", bold=True)
        cell = Cell(value=3.0, formula="=SUM(A1:A2)", style=style)
        restored = Cell.from_dict(cell.to_dict())
        assert restored.formula == "=SUM(A1:A2)"
        assert restored.style == style

    def test_roundtrip_date_value(self):
        cell = Cell(value=datetime.date(2023, 6, 1))
        restored = Cell.from_dict(cell.to_dict())
        assert restored.value == datetime.date(2023, 6, 1)


class TestCellStyle:
    def test_default_colors(self):
        assert DEFAULT_STYLE.background_rgb() == (1.0, 1.0, 1.0)
        assert DEFAULT_STYLE.font_rgb() == (0.0, 0.0, 0.0)

    def test_hex_parsing(self):
        style = CellStyle(background_color="#FF0000", font_color="#00FF00")
        assert style.background_rgb() == (1.0, 0.0, 0.0)
        assert style.font_rgb() == (0.0, 1.0, 0.0)

    def test_invalid_hex_raises(self):
        with pytest.raises(ValueError):
            CellStyle(background_color="#FFF").background_rgb()

    def test_roundtrip(self):
        style = CellStyle(bold=True, italic=True, font_size=14.0, border_top=True)
        assert CellStyle.from_dict(style.to_dict()) == style

    def test_equality_and_hash(self):
        assert CellStyle(bold=True) == CellStyle(bold=True)
        assert CellStyle(bold=True) != CellStyle(bold=False)
