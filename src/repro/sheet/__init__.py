"""Spreadsheet substrate: cells, styles, sheets and workbooks.

This package provides the in-memory spreadsheet model that every other part
of the reproduction builds on.  It plays the role of the ``.xlsx`` files and
the Excel object model used by the paper: a :class:`Workbook` holds named
:class:`Sheet` objects, each sheet is a sparse two-dimensional grid of
:class:`Cell` objects, and each cell carries a value, an optional formula
string and a :class:`CellStyle` with the visual attributes (colors, fonts,
sizes) that the representation models consume.
"""

from repro.sheet.addressing import (
    CellAddress,
    RangeAddress,
    column_index_to_letters,
    column_letters_to_index,
    parse_cell_address,
    parse_range_address,
)
from repro.sheet.style import CellStyle
from repro.sheet.cell import Cell, CellType, infer_cell_type
from repro.sheet.sheet import SealedError, Sheet
from repro.sheet.workbook import Workbook
from repro.sheet.io import (
    WorkbookFormatError,
    workbook_from_dict,
    workbook_to_dict,
    load_workbook_json,
    save_workbook_json,
)

__all__ = [
    "CellAddress",
    "RangeAddress",
    "column_index_to_letters",
    "column_letters_to_index",
    "parse_cell_address",
    "parse_range_address",
    "CellStyle",
    "Cell",
    "CellType",
    "infer_cell_type",
    "SealedError",
    "Sheet",
    "Workbook",
    "WorkbookFormatError",
    "workbook_from_dict",
    "workbook_to_dict",
    "load_workbook_json",
    "save_workbook_json",
]
