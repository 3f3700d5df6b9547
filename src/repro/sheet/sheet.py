"""The :class:`Sheet`: a sparse two-dimensional grid of cells."""

from __future__ import annotations

import math
from typing import Dict, ItemsView, Iterable, Iterator, List, Optional, Tuple, Union

from repro.sheet.addressing import CellAddress, RangeAddress, parse_cell_address
from repro.sheet.cell import Cell, CellType, CellValue, EMPTY_CELL
from repro.sheet.style import CellStyle, DEFAULT_STYLE

AddressLike = Union[str, CellAddress, Tuple[int, int]]


def _to_address(address: AddressLike) -> CellAddress:
    """Normalize the accepted address spellings to a :class:`CellAddress`."""
    if isinstance(address, CellAddress):
        return address
    if isinstance(address, str):
        return parse_cell_address(address)
    row, col = address
    return CellAddress(int(row), int(col))


def _same_value(old: CellValue, new: CellValue) -> bool:
    """Whether a cell showing ``old`` shows the same content with ``new``:
    equal and of one type (``1``, ``1.0`` and ``True`` are three values),
    and a zero of the same sign.  NaN is never the same."""
    if type(old) is not type(new) or old != new:
        return False
    return type(new) is not float or math.copysign(1.0, old) == math.copysign(1.0, new)


def _row_major(item: Tuple[CellAddress, Cell]) -> Tuple[int, int]:
    """Sort key of an ``(address, cell)`` pair: the address's own order,
    without a dataclass ``__lt__`` call per comparison."""
    return (item[0].row, item[0].col)


class Sheet:
    """A single sheet: a named, sparse grid of :class:`Cell` objects.

    Cells are stored in a dictionary keyed by :class:`CellAddress`; any
    address not present reads as an empty cell.  The sheet tracks its used
    extent (``n_rows`` x ``n_cols``) which grows as cells are written.
    """

    def __init__(self, name: str = "Sheet1") -> None:
        self.name = name
        self._cells: Dict[CellAddress, Cell] = {}
        self._n_rows = 0
        self._n_cols = 0
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic mutation counter, bumped by every structural write.

        Consumers that derive state from the sheet (notably the formula
        recalculation engine's dependency graph) watermark this counter to
        detect mutations made behind their back and resynchronize instead
        of serving stale values.  In-place edits of a :class:`Cell` object
        obtained from :meth:`get` are *not* observable here — mutate
        through :meth:`set`/:meth:`set_cell` (or the engine, which commits
        what it computes through :meth:`commit_values`) instead.
        """
        return self._version

    # ------------------------------------------------------------------ access

    def get(self, address: AddressLike) -> Cell:
        """Return the cell at ``address`` (an empty cell if unset)."""
        return self._cells.get(_to_address(address), EMPTY_CELL)

    def set(
        self,
        address: AddressLike,
        value: CellValue = None,
        formula: Optional[str] = None,
        style: Optional[CellStyle] = None,
    ) -> Cell:
        """Create or replace the cell at ``address`` and return it."""
        addr = _to_address(address)
        cell = Cell(value=value, formula=formula, style=style or DEFAULT_STYLE)
        self._cells[addr] = cell
        self._n_rows = max(self._n_rows, addr.row + 1)
        self._n_cols = max(self._n_cols, addr.col + 1)
        self._version += 1
        return cell

    def set_cell(self, address: AddressLike, cell: Cell) -> None:
        """Place an already-constructed :class:`Cell` at ``address``."""
        addr = _to_address(address)
        self._cells[addr] = cell
        self._n_rows = max(self._n_rows, addr.row + 1)
        self._n_cols = max(self._n_cols, addr.col + 1)
        self._version += 1

    def commit_values(self, values: Iterable[Tuple[CellAddress, CellValue]]) -> None:
        """Write computed values into the stored cells at their addresses, in
        place — a recalculation's commit — and bump :attr:`version` once if
        any cell's content changed, so that state derived from the sheet
        (feature tensors, query vectors) is not served from before it."""
        changed = False
        for address, value in values:
            cell = self._cells[address]
            changed = changed or not _same_value(cell.value, value)
            cell.value = value
        if changed:
            self._version += 1

    def restore_cell(
        self, address: AddressLike, cell: Optional[Cell], extent: Tuple[int, int]
    ) -> None:
        """Put back what an edit found: the cell at ``address`` (``None``: no
        cell) and the extent ``(n_rows, n_cols)``.  The version moves on."""
        addr = _to_address(address)
        self._cells.pop(addr, None)
        if cell is not None:
            self._cells[addr] = cell
        self._n_rows, self._n_cols = extent
        self._version += 1

    def delete(self, address: AddressLike) -> None:
        """Remove the cell at ``address`` if present (extent is not shrunk)."""
        if self._cells.pop(_to_address(address), None) is not None:
            self._version += 1

    def __getitem__(self, address: AddressLike) -> Cell:
        return self.get(address)

    def __contains__(self, address: AddressLike) -> bool:
        return _to_address(address) in self._cells

    # ------------------------------------------------------------------ extent

    @property
    def n_rows(self) -> int:
        """Number of rows in the used extent."""
        return self._n_rows

    @property
    def n_cols(self) -> int:
        """Number of columns in the used extent."""
        return self._n_cols

    @property
    def n_cells(self) -> int:
        """Number of non-empty (stored) cells."""
        return len(self._cells)

    def used_range(self) -> Optional[RangeAddress]:
        """The bounding range of all stored cells, or ``None`` if empty."""
        if not self._cells:
            return None
        rows = [addr.row for addr in self._cells]
        cols = [addr.col for addr in self._cells]
        return RangeAddress(
            CellAddress(min(rows), min(cols)), CellAddress(max(rows), max(cols))
        )

    # --------------------------------------------------------------- iteration

    def cells(self) -> Iterator[Tuple[CellAddress, Cell]]:
        """Iterate ``(address, cell)`` pairs for all stored cells."""
        return iter(sorted(self._cells.items(), key=_row_major))

    def items(self) -> ItemsView[CellAddress, Cell]:
        """The ``(address, cell)`` pairs of all stored cells in storage
        order: :meth:`cells` without the sort, for consumers that place
        every cell by its address anyway."""
        return self._cells.items()

    def formula_cells(self) -> List[Tuple[CellAddress, Cell]]:
        """All cells that contain formulas, sorted by address."""
        return sorted((item for item in self._cells.items() if item[1].has_formula), key=_row_major)

    def cells_in_range(self, cell_range: RangeAddress) -> Iterator[Tuple[CellAddress, Cell]]:
        """Iterate ``(address, cell)`` for every address in ``cell_range``.

        Empty addresses yield the shared empty cell, so the iteration always
        covers the full rectangle.
        """
        for addr in cell_range.cells():
            yield addr, self._cells.get(addr, EMPTY_CELL)

    def values_in_range(self, cell_range: RangeAddress) -> List[CellValue]:
        """The values of every cell in ``cell_range`` in row-major order."""
        return [cell.value for __, cell in self.cells_in_range(cell_range)]

    def row_values(self, row: int) -> List[CellValue]:
        """Values in a row across the used column extent."""
        return [self.get((row, col)).value for col in range(self._n_cols)]

    def column_values(self, col: int) -> List[CellValue]:
        """Values in a column across the used row extent."""
        return [self.get((row, col)).value for row in range(self._n_rows)]

    # ------------------------------------------------------------ modification

    def insert_rows(self, at_row: int, count: int = 1) -> None:
        """Insert ``count`` empty rows starting at ``at_row`` (shifts cells down)."""
        if count <= 0:
            return
        moved: Dict[CellAddress, Cell] = {}
        for addr, cell in self._cells.items():
            if addr.row >= at_row:
                moved[addr.shifted(count, 0)] = cell
            else:
                moved[addr] = cell
        self._cells = moved
        self._n_rows += count
        self._version += 1

    def delete_rows(self, at_row: int, count: int = 1) -> None:
        """Delete ``count`` rows starting at ``at_row`` (shifts cells up)."""
        if count <= 0:
            return
        moved: Dict[CellAddress, Cell] = {}
        for addr, cell in self._cells.items():
            if addr.row < at_row:
                moved[addr] = cell
            elif addr.row >= at_row + count:
                moved[addr.shifted(-count, 0)] = cell
        self._cells = moved
        self._n_rows = max(0, self._n_rows - count)
        self._version += 1

    def insert_cols(self, at_col: int, count: int = 1) -> None:
        """Insert ``count`` empty columns starting at ``at_col``."""
        if count <= 0:
            return
        moved: Dict[CellAddress, Cell] = {}
        for addr, cell in self._cells.items():
            if addr.col >= at_col:
                moved[addr.shifted(0, count)] = cell
            else:
                moved[addr] = cell
        self._cells = moved
        self._n_cols += count
        self._version += 1

    def delete_cols(self, at_col: int, count: int = 1) -> None:
        """Delete ``count`` columns starting at ``at_col``."""
        if count <= 0:
            return
        moved: Dict[CellAddress, Cell] = {}
        for addr, cell in self._cells.items():
            if addr.col < at_col:
                moved[addr] = cell
            elif addr.col >= at_col + count:
                moved[addr.shifted(0, -count)] = cell
        self._cells = moved
        self._n_cols = max(0, self._n_cols - count)
        self._version += 1

    def copy(self, name: Optional[str] = None) -> "Sheet":
        """Return a shallow-per-cell copy of this sheet."""
        clone = Sheet(name or self.name)
        for addr, cell in self._cells.items():
            clone.set_cell(addr, Cell(value=cell.value, formula=cell.formula, style=cell.style))
        clone._n_rows = self._n_rows
        clone._n_cols = self._n_cols
        return clone

    # ------------------------------------------------------------------ counts

    def count_by_type(self) -> Dict[CellType, int]:
        """Histogram of stored cells by :class:`CellType`."""
        counts: Dict[CellType, int] = {}
        for __, cell in self._cells.items():
            counts[cell.cell_type] = counts.get(cell.cell_type, 0) + 1
        return counts

    def n_formulas(self) -> int:
        """Number of formula cells in the sheet."""
        return sum(1 for __, cell in self._cells.items() if cell.has_formula)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Sheet(name={self.name!r}, rows={self._n_rows}, cols={self._n_cols}, "
            f"cells={len(self._cells)})"
        )
