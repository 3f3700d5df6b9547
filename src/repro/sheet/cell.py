"""The :class:`Cell` value object and cell data-type inference."""

from __future__ import annotations

import datetime as _dt
import enum
import numbers
import re
import sys
from dataclasses import dataclass
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


def _spells_error_code(text: str) -> bool:
    """Whether ``text`` is a known Excel-style error code."""
    if not text.startswith("#"):
        return False
    # Imported lazily: at module-import time repro.formula (which pulls in
    # this module) may still be mid-initialization.
    from repro.formula.errors import ALL_ERROR_VALUES

    return text in ALL_ERROR_VALUES


def decode_cell_value(value: object, kind: Optional[str] = None) -> CellValue:
    """A cell value as it means in a workbook payload, for a workbook's
    cells (:meth:`Cell.from_dict`) and an edit's value alike.

    Text that is a known Excel-style error code becomes an
    :class:`~repro.formula.errors.ErrorValue`, so a committed error keeps
    its type-based error identity (propagation through the engine,
    ``is_error_value``), unless its ``kind`` is ``"text"``: a formula can
    compute text that spells one, and :meth:`Cell.to_dict` tags it so.
    Text of ``kind`` ``"date"`` becomes a datetime when it carries a time
    and a date otherwise.  Anything else is returned as it is: whether a
    cell can hold it is :class:`Cell`'s check.
    """
    if isinstance(value, str):
        if kind == "date":
            # ``date.isoformat()`` is ten characters; a datetime's is longer.
            return (_dt.datetime if len(value) > 10 else _dt.date).fromisoformat(value)
        if kind != "text" and _spells_error_code(value):
            from repro.formula.errors import ErrorValue

            return ErrorValue(value)
    return value


#: Value types :class:`Cell` need not check (``bool`` is an ``int`` that fits).
_PLAIN = frozenset((type(None), float, str, bool))

#: What else a cell holds, subclasses included (``ErrorValue`` is a ``str``,
#: ``datetime`` a ``date``); ``int`` only within the float range.
_HELD = (int, float, str, _dt.date)


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


@dataclass(frozen=True, slots=True, init=False)
class Cell:
    """A single spreadsheet cell: a value, an optional formula and a style.

    Cells are immutable: a write replaces the cell.  A value holds
    ``None``, a ``bool``, an ``int`` within the float range, a ``float``,
    a ``str`` or a ``date`` / ``datetime``; anything else (a list, a
    tuple, a set, ``bytes``, a ``complex``, a ``time``, a NumPy scalar
    that is not a Python ``float``, an integer no float can hold) raises
    ``ValueError`` here: a cell holds one scalar, the engine computes in
    floats, and what the workbook codec cannot write and read back must
    not be written and saved either.
    """

    value: CellValue
    formula: Optional[str]
    style: CellStyle

    def __init__(
        self, value: CellValue = None, formula: Optional[str] = None, style: CellStyle = DEFAULT_STYLE
    ) -> None:
        if type(value) not in _PLAIN:
            if not isinstance(value, _HELD):
                raise ValueError(
                    "a cell value must be None, a bool, a number, text or a date, "
                    f"got a {type(value).__name__}"
                )
            if isinstance(value, int) and not -sys.float_info.max <= value <= sys.float_info.max:
                raise ValueError("a cell value must fit in a float, got an integer past its range")
        # Written once, through the slots: a corpus decode builds every cell,
        # and the generated frozen __init__ costs twice as much per cell.
        _set_value(self, value)
        _set_formula(self, formula)
        _set_style(self, style)

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
                if type(self.value) is str and _spells_error_code(self.value):
                    data["value_kind"] = "text"  # not the error it spells
        if self.formula:
            data["formula"] = self.formula
        if self.style is not DEFAULT_STYLE and self.style != DEFAULT_STYLE:
            data["style"] = self.style.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Cell":
        """Reconstruct a cell from :meth:`to_dict` output; the value goes
        through :func:`decode_cell_value`, and one no cell can hold raises
        ``ValueError``."""
        value = decode_cell_value(data.get("value"), data.get("value_kind"))
        style_data = data.get("style")
        style = CellStyle.from_dict(style_data) if isinstance(style_data, dict) else DEFAULT_STYLE
        return cls(value=value, formula=data.get("formula"), style=style)


_set_value, _set_formula, _set_style = (
    Cell.value.__set__, Cell.formula.__set__, Cell.style.__set__  # type: ignore[attr-defined]
)

#: Shared immutable representation of an empty, unstyled cell.
EMPTY_CELL = Cell()
