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
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Tuple, Union

from repro.sheet.addressing import CellAddress, parse_cell_address
from repro.sheet.cell import Cell, cell_from_record
from repro.sheet.sheet import DeferredSheet, Sheet
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
    name, cells = _sheet_head(data)
    sheet = Sheet(name)
    sheet._cells, sheet._n_rows, sheet._n_cols = decode_sheet(data)
    sheet._version = len(cells)
    return sheet


def _sheet_head(data: object) -> Tuple[str, Dict[str, object]]:
    """A sheet payload's name and ``cells`` mapping, after the checks that
    need no cell decoded: the containers and the stored extent."""
    if not isinstance(data, dict):
        raise WorkbookFormatError(
            f"sheet payload must be a JSON object, got {type(data).__name__}"
        )
    name = str(data.get("name", "Sheet1"))
    cells = data.get("cells", {})
    if not isinstance(cells, dict):
        raise WorkbookFormatError(
            f"sheet {name!r} has a malformed 'cells' entry: expected an "
            f"object mapping A1 addresses to cell records, got {type(cells).__name__}"
        )
    for field in ("n_rows", "n_cols"):
        value = data.get(field, 0)
        if type(value) is not int or value < 0:
            raise WorkbookFormatError(
                f"sheet {name!r} has a malformed {field!r}: expected a "
                f"non-negative integer, got {value!r}"
            )
    return name, cells


def decode_sheet(data: Dict[str, object]) -> Tuple[Dict[CellAddress, Cell], int, int]:
    """The cells and extent of a sheet payload that :func:`_sheet_head`
    accepted: the per-cell part of :func:`sheet_from_dict`, which a sheet
    restored from a snapshot runs on its first read."""
    name, cells = str(data.get("name", "Sheet1")), data.get("cells", {})
    # One loop straight into the sheet's storage; the extent is what a
    # ``set_cell`` per record would leave.
    stored: Dict[CellAddress, Cell] = {}
    n_rows = n_cols = 0
    for a1, cell_data in cells.items():
        if not isinstance(cell_data, dict):
            raise WorkbookFormatError(
                f"sheet {name!r} cell {a1!r} has a malformed record: "
                f"expected an object, got {type(cell_data).__name__}"
            )
        try:
            address = parse_cell_address(a1)
        except (TypeError, ValueError) as error:
            raise WorkbookFormatError(
                f"sheet {name!r} has an invalid cell address {a1!r}: {error}"
            ) from error
        try:
            stored[address] = cell_from_record(cell_data)
        except (TypeError, ValueError, KeyError) as error:
            raise WorkbookFormatError(
                f"sheet {name!r} cell {a1!r} cannot be decoded: {error}"
            ) from error
        if address.row >= n_rows:
            n_rows = address.row + 1
        if address.col >= n_cols:
            n_cols = address.col + 1
    # The stored extent may exceed the max written cell (deletes never
    # shrink it); older payloads without the fields keep the derived extent.
    return stored, max(n_rows, data.get("n_rows", 0)), max(n_cols, data.get("n_cols", 0))


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
    records raise too — see :func:`sheet_from_dict`.  Every cell is decoded
    here, so a payload that loads holds no error for later.
    """
    workbook, sheets = _workbook_head(data)
    for sheet_data in sheets:
        workbook.add_sheet(sheet_from_dict(sheet_data))
    return workbook


def deferred_workbook(
    data: Dict[str, object], decode: Callable[[int], Tuple[Dict[CellAddress, Cell], int, int]]
) -> Workbook:
    """:func:`workbook_from_dict` but for the per-cell decode: sheet ``i``
    gets its cells and extent from ``decode(i)`` on its first read (a
    :class:`~repro.sheet.sheet.DeferredSheet`), which
    runs :func:`decode_sheet` on the same payload.  Every other check runs
    here.  For a payload this program wrote, such as a snapshot's corpus
    line; a client's payload goes through :func:`workbook_from_dict`.
    """
    workbook, sheets = _workbook_head(data)
    for index, sheet_data in enumerate(sheets):
        name, cells = _sheet_head(sheet_data)
        workbook.add_sheet(DeferredSheet(name, len(cells), partial(decode, index)))
    return workbook


def _workbook_head(data: object) -> Tuple[Workbook, list]:
    """An empty workbook of a workbook payload, and its ``sheets`` list."""
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
    return workbook, sheets


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
