"""JSON (de)serialization of workbooks.

The paper operates on ``.xlsx`` files; this reproduction stores workbooks in
a simple JSON layout so corpora can be persisted and reloaded without any
binary spreadsheet tooling.  The format keeps only non-empty cells keyed by
their A1 address, plus the sheet extent (``n_rows`` x ``n_cols``) — the
extent can exceed the max written cell after deletes, so re-deriving it
from the cells would not round-trip.

Deserialization is *validating*: a ``format_version`` stamp that is
present but not this module's :data:`FORMAT_VERSION`, or a malformed
``cells`` container / cell record, raises the typed
:class:`WorkbookFormatError` instead of silently dropping data.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.sheet.addressing import parse_cell_address
from repro.sheet.cell import cell_from_record
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

FORMAT_VERSION = 1


class WorkbookFormatError(ValueError):
    """A workbook/sheet payload is malformed or of an unknown version."""


def sheet_to_dict(sheet: Sheet) -> Dict[str, object]:
    """Serialize a :class:`Sheet` to a JSON-friendly dictionary."""
    return {
        "name": sheet.name,
        "n_rows": sheet.n_rows,
        "n_cols": sheet.n_cols,
        "cells": {addr.to_a1(): cell.to_dict() for addr, cell in sheet.cells()},
    }


def sheet_from_dict(data: Dict[str, object]) -> Sheet:
    """Reconstruct a :class:`Sheet` from :func:`sheet_to_dict` output.

    Raises :class:`WorkbookFormatError` if the payload is not a JSON
    object, its ``cells`` entry is not address->record mapping, or any
    cell record/address cannot be decoded.
    """
    if not isinstance(data, dict):
        raise WorkbookFormatError(
            f"sheet payload must be a JSON object, got {type(data).__name__}"
        )
    sheet = Sheet(str(data.get("name", "Sheet1")))
    cells = data.get("cells", {})
    if not isinstance(cells, dict):
        raise WorkbookFormatError(
            f"sheet {sheet.name!r} has a malformed 'cells' entry: expected an "
            f"object mapping A1 addresses to cell records, got {type(cells).__name__}"
        )
    # One loop straight into the sheet's storage, extent and version set
    # once at the end, to what a ``set_cell`` per record would leave.
    stored = sheet._cells
    n_rows = n_cols = 0
    for a1, cell_data in cells.items():
        if not isinstance(cell_data, dict):
            raise WorkbookFormatError(
                f"sheet {sheet.name!r} cell {a1!r} has a malformed record: "
                f"expected an object, got {type(cell_data).__name__}"
            )
        try:
            address = parse_cell_address(a1)
        except (TypeError, ValueError) as error:
            raise WorkbookFormatError(
                f"sheet {sheet.name!r} has an invalid cell address {a1!r}: {error}"
            ) from error
        try:
            stored[address] = cell_from_record(cell_data)
        except (TypeError, ValueError, KeyError) as error:
            raise WorkbookFormatError(
                f"sheet {sheet.name!r} cell {a1!r} cannot be decoded: {error}"
            ) from error
        if address.row >= n_rows:
            n_rows = address.row + 1
        if address.col >= n_cols:
            n_cols = address.col + 1
    sheet._version = len(cells)
    # The stored extent may exceed the max written cell (deletes never
    # shrink it); older payloads without the fields keep the derived extent.
    sheet._n_rows = max(n_rows, _extent(sheet, data, "n_rows"))
    sheet._n_cols = max(n_cols, _extent(sheet, data, "n_cols"))
    return sheet


def _extent(sheet: Sheet, data: Dict[str, object], field: str) -> int:
    """A sheet payload's ``n_rows`` / ``n_cols``: a non-negative integer."""
    value = data.get(field, 0)
    if type(value) is not int or value < 0:
        raise WorkbookFormatError(
            f"sheet {sheet.name!r} has a malformed {field!r}: expected a "
            f"non-negative integer, got {value!r}"
        )
    return value


def workbook_to_dict(workbook: Workbook) -> Dict[str, object]:
    """Serialize a :class:`Workbook` to a JSON-friendly dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "name": workbook.name,
        "last_modified": workbook.last_modified,
        "sheets": [sheet_to_dict(sheet) for sheet in workbook],
    }


def workbook_from_dict(data: Dict[str, object]) -> Workbook:
    """Reconstruct a :class:`Workbook` from :func:`workbook_to_dict` output.

    The ``format_version`` stamp is enforced: a payload carrying a version
    other than :data:`FORMAT_VERSION` raises :class:`WorkbookFormatError`
    (payloads without the stamp are accepted for compatibility with bare
    hand-written fixtures).  Malformed ``sheets`` containers and cell
    records raise too — see :func:`sheet_from_dict`.
    """
    if not isinstance(data, dict):
        raise WorkbookFormatError(
            f"workbook payload must be a JSON object, got {type(data).__name__}"
        )
    if "format_version" in data and data["format_version"] != FORMAT_VERSION:
        raise WorkbookFormatError(
            f"workbook payload has format_version {data['format_version']!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    name = str(data.get("name", "workbook"))
    try:
        workbook = Workbook(name=name, last_modified=data.get("last_modified", 0.0))
    except ValueError as error:
        raise WorkbookFormatError(f"workbook {name!r}: {error}") from error
    sheets = data.get("sheets", [])
    if not isinstance(sheets, list):
        raise WorkbookFormatError(
            f"workbook {workbook.name!r} has a malformed 'sheets' entry: "
            f"expected a list, got {type(sheets).__name__}"
        )
    for sheet_data in sheets:
        workbook.add_sheet(sheet_from_dict(sheet_data))
    return workbook


def save_workbook_json(workbook: Workbook, path: Union[str, Path]) -> None:
    """Write a workbook to ``path`` as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # dumps, not dump: dump streams through the pure-Python encoder.
    path.write_text(json.dumps(workbook_to_dict(workbook), ensure_ascii=False), encoding="utf-8")


def load_workbook_json(path: Union[str, Path]) -> Workbook:
    """Read a workbook previously written by :func:`save_workbook_json`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return workbook_from_dict(json.load(handle))
