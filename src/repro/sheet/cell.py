"""The :class:`Cell` value object and cell data-type inference."""

from __future__ import annotations

import datetime as _dt
import enum
import numbers
import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.sheet.style import CellStyle, DEFAULT_STYLE

CellValue = Union[None, bool, int, float, str, _dt.date]

_DATE_RE = re.compile(r"^\d{4}[-/]\d{1,2}[-/]\d{1,2}$")
_NUMERIC_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?%?$")


class CellType(enum.Enum):
    """Coarse data type of a cell, used as a categorical syntactic feature."""

    EMPTY = "empty"
    NUMERIC = "numeric"
    TEXT = "text"
    DATE = "date"
    BOOLEAN = "boolean"
    FORMULA = "formula"
    ERROR = "error"


def infer_cell_type(value: CellValue, formula: Optional[str] = None) -> CellType:
    """Infer the :class:`CellType` of a value (and optional formula).

    A cell that carries a formula is typed :attr:`CellType.FORMULA`
    regardless of its cached value, matching how the featurizer treats
    formula cells as a distinct category.
    """
    if formula:
        return CellType.FORMULA
    if value is None or (isinstance(value, str) and value == ""):
        return CellType.EMPTY
    if isinstance(value, bool):
        return CellType.BOOLEAN
    if isinstance(value, (_dt.date, _dt.datetime)):
        return CellType.DATE
    if isinstance(value, numbers.Number):
        return CellType.NUMERIC
    if isinstance(value, str):
        text = value.strip()
        if text.startswith("#") and text.endswith(("!", "?")):
            return CellType.ERROR
        if _DATE_RE.match(text):
            return CellType.DATE
        if _NUMERIC_RE.match(text):
            return CellType.NUMERIC
        return CellType.TEXT
    return CellType.TEXT


def syntactic_pattern(value: CellValue) -> str:
    """Return the character-class pattern of a value, e.g. ``"DDDD-DD-DD"``.

    Digits map to ``D``, letters to ``L``, whitespace to ``S`` and any other
    character is kept verbatim, mirroring the syntactic-pattern feature in
    Section 4.4.1.
    """
    if value is None:
        return ""
    text = str(value)
    out = []
    for char in text:
        if char.isdigit():
            out.append("D")
        elif char.isalpha():
            out.append("L")
        elif char.isspace():
            out.append("S")
        else:
            out.append(char)
    return "".join(out)


@dataclass
class Cell:
    """A single spreadsheet cell: a value, an optional formula and a style."""

    value: CellValue = None
    formula: Optional[str] = None
    style: CellStyle = field(default_factory=lambda: DEFAULT_STYLE)

    @property
    def cell_type(self) -> CellType:
        """The inferred :class:`CellType` of this cell."""
        return infer_cell_type(self.value, self.formula)

    @property
    def has_formula(self) -> bool:
        """Whether the cell contains a formula."""
        return bool(self.formula)

    @property
    def is_empty(self) -> bool:
        """Whether the cell has neither a value nor a formula."""
        return self.value in (None, "") and not self.formula

    def display_text(self) -> str:
        """Text shown in the grid (the cached value, or empty string)."""
        if self.value is None:
            return ""
        if isinstance(self.value, float) and self.value.is_integer():
            return str(int(self.value))
        return str(self.value)

    def pattern(self) -> str:
        """Syntactic pattern of the displayed value."""
        return syntactic_pattern(self.value)

    def to_dict(self) -> Dict[str, object]:
        """Serialize to a JSON-friendly dictionary."""
        data: Dict[str, object] = {}
        if self.value is not None:
            if isinstance(self.value, (_dt.date, _dt.datetime)):
                data["value"] = self.value.isoformat()
                data["value_kind"] = "date"
            else:
                data["value"] = self.value
        if self.formula:
            data["formula"] = self.formula
        if self.style is not DEFAULT_STYLE and self.style != DEFAULT_STYLE:
            data["style"] = self.style.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Cell":
        """Reconstruct a cell from :meth:`to_dict` output.

        Strings matching a known Excel-style error code are rehydrated as
        :class:`~repro.formula.errors.ErrorValue`, so a committed error
        keeps its type-based error identity (propagation through the
        engine, ``is_error_value``) across a serialization round-trip.
        """
        value = data.get("value")
        if isinstance(value, str):
            if data.get("value_kind") == "date":
                value = _dt.date.fromisoformat(value)
            elif value.startswith("#"):
                # Imported lazily: at module-import time repro.formula (which
                # pulls in this module) may still be mid-initialization.
                from repro.formula.errors import ALL_ERROR_VALUES, ErrorValue

                if value in ALL_ERROR_VALUES:
                    value = ErrorValue(value)
        style_data = data.get("style")
        style = CellStyle.from_dict(style_data) if isinstance(style_data, dict) else DEFAULT_STYLE
        return cls(value=value, formula=data.get("formula"), style=style)


#: Shared immutable representation of an empty, unstyled cell.
EMPTY_CELL = Cell()
