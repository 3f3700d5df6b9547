"""Excel-style error values: the value-based failure lattice of the engine.

The recalculation engine (``repro.formula.engine``) represents evaluation
failures as *values* that live in cells and flow through operators, the
way real spreadsheets do, instead of raising exceptions that abort a
whole-sheet recalculation.  The lattice is small and flat:

==============  ====================================================
``#DIV/0!``     division by zero (also AVERAGE/STDEV/MOD-style
                aggregations over empty numeric sets)
``#REF!``       a reference that cannot be resolved; read from stored
                values — the engine writes none: a reference that names
                no cell (row 0, a column past XFD) is a syntax error
                and ``#NAME?``, as in Excel
``#CYCLE!``     the cell participates in (or depends on) a circular
                reference chain
``#VALUE!``     an operand or argument of the wrong type
``#NAME?``      an unknown function name or unparseable formula text
==============  ====================================================

:class:`ErrorValue` subclasses :class:`str` deliberately: an error value
*is* its display text, so it serializes through ``Cell.to_dict``, renders
in ``display_text`` and is classified :attr:`~repro.sheet.cell.CellType.ERROR`
by the existing ``#...!``/``#...?`` pattern in ``infer_cell_type`` without
any special-casing.  The flip side is that error checks must come *first*
wherever strings are handled — ``is_error_value`` before any text coercion
— which is exactly how the engine's operator and function dispatch is
written.
"""

from __future__ import annotations

from typing import Tuple


class ErrorValue(str):
    """An Excel-style error value such as ``#DIV/0!``.

    A ``str`` subclass so the error displays, serializes and pattern-
    matches as its code; identity as an *error* is carried by the type,
    checked via :func:`is_error_value`.
    """

    __slots__ = ()

    @property
    def code(self) -> str:
        """The error code text (the string itself)."""
        return str(self)

    def __repr__(self) -> str:
        return f"ErrorValue({str(self)!r})"


#: Division by zero, including empty-set aggregations (AVERAGE, STDEV, MOD).
DIV0_ERROR = ErrorValue("#DIV/0!")
#: A reference that cannot be resolved (an address no sheet has).
REF_ERROR = ErrorValue("#REF!")
#: A formula on a cycle of references, or downstream of one.
CYCLE_ERROR = ErrorValue("#CYCLE!")
#: A wrongly-typed operand or function argument.
VALUE_ERROR = ErrorValue("#VALUE!")
#: An unknown function name or unparseable formula.
NAME_ERROR = ErrorValue("#NAME?")

#: Every member of the lattice, in documentation order.
ALL_ERROR_VALUES: Tuple[ErrorValue, ...] = (
    DIV0_ERROR,
    REF_ERROR,
    CYCLE_ERROR,
    VALUE_ERROR,
    NAME_ERROR,
)


def is_error_value(value: object) -> bool:
    """Whether ``value`` is an Excel-style error value."""
    return isinstance(value, ErrorValue)


def first_error(values) -> ErrorValue | None:
    """The first :class:`ErrorValue` in an iterable of scalars, or ``None``.

    Used by the engine to propagate errors through function arguments and
    range contents: spreadsheet semantics are that an error anywhere in an
    input poisons the result (``IFERROR`` being the one escape hatch).
    """
    for value in values:
        if isinstance(value, ErrorValue):
            return value
    return None
