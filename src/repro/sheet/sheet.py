"""The :class:`Sheet`: a sparse two-dimensional grid of cells."""

from __future__ import annotations

import math
import threading
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    ItemsView,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.sheet.addressing import CellAddress, RangeAddress, parse_cell_address
from repro.sheet.cell import Cell, CellValue, EMPTY_CELL
from repro.sheet.style import CellStyle, DEFAULT_STYLE

AddressLike = Union[str, CellAddress, Tuple[int, int]]

#: What a :class:`DeferredSheet` fills on its first read.
_DEFERRED = frozenset(("_cells", "_n_rows", "_n_cols"))
#: Held while a deferred sheet decodes, so concurrent first reads decode once.
_DECODE_LOCK = threading.Lock()
#: Sort key of an ``(address, cell)`` pair: its address, in row-major order.
_ADDRESS = itemgetter(0)


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


class SheetEdit(NamedTuple):
    """One edit of a sheet as a re-index reads it: the sheet's ``version``
    and used extent before the edit, and every cell whose content the edit
    changed (the written cell and the ones its recalculation changed).
    Every other cell holds what it held at ``version``."""

    version: int
    n_rows: int
    n_cols: int
    cells: FrozenSet[CellAddress]


class SealedError(RuntimeError):
    """A write to a sheet or workbook that a workspace holds, made around
    the workspace: such a sheet changes only through
    :meth:`~repro.service.workspace.Workspace.edit_cell`."""


class Sheet:
    """A single sheet: a named, sparse grid of :class:`Cell` objects.

    Cells are stored in a dictionary keyed by :class:`CellAddress` (equal
    to its ``(row, col)`` tuple, which finds the same cell); any
    address not present reads as an empty cell.  The sheet tracks its used
    extent (``n_rows`` x ``n_cols``) which grows as cells are written.

    A sheet a workspace holds is *sealed*: its public writers raise
    :class:`SealedError`, and the workspace's formula engine writes it
    through the private ones.
    """

    def __init__(self, name: str = "Sheet1") -> None:
        self._name = name
        self._cells: Dict[CellAddress, Cell] = {}
        self._n_rows = 0
        self._n_cols = 0
        self._version = 0
        self._sealed = False

    @property
    def name(self) -> str:
        """The sheet's name (fixed at construction)."""
        return self._name

    @property
    def version(self) -> int:
        """Monotonic mutation counter, bumped by every write.

        Consumers that derive state from the sheet (feature tensors, query
        vectors, a standalone formula engine's dependency graph) watermark
        this counter, so state derived from earlier content is not served.
        Cells are immutable, so every change of content moves it.
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
        self._check_unsealed()
        cell = Cell(value=value, formula=formula, style=style or DEFAULT_STYLE)
        self._put(_to_address(address), cell)
        return cell

    def set_cell(self, address: AddressLike, cell: Cell) -> None:
        """Place an already-constructed :class:`Cell` at ``address``."""
        self._check_unsealed()
        self._put(_to_address(address), cell)

    def delete(self, address: AddressLike) -> None:
        """Remove the cell at ``address`` if present (extent is not shrunk)."""
        self._check_unsealed()
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
        return iter(sorted(self._cells.items(), key=_ADDRESS))

    def items(self) -> ItemsView[CellAddress, Cell]:
        """The ``(address, cell)`` pairs of all stored cells in storage
        order: :meth:`cells` without the sort, for consumers that place
        every cell by its address anyway."""
        return self._cells.items()

    def formula_cells(self) -> List[Tuple[CellAddress, Cell]]:
        """All cells that contain formulas, sorted by address."""
        return sorted((item for item in self._cells.items() if item[1].has_formula), key=_ADDRESS)

    # ------------------------------------------------------------ modification

    def delete_rows(self, at_row: int, count: int = 1) -> None:
        """Delete ``count`` rows starting at ``at_row`` (shifts cells up)."""
        self._check_unsealed()
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

    def delete_cols(self, at_col: int, count: int = 1) -> None:
        """Delete ``count`` columns starting at ``at_col``."""
        self._check_unsealed()
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
        """An unsealed copy of this sheet; the (immutable) cells are shared."""
        clone = Sheet(name or self._name)
        clone._cells = dict(self._cells)
        clone._n_rows = self._n_rows
        clone._n_cols = self._n_cols
        return clone

    # ---------------------------------------------------- the engine's writers

    def _check_unsealed(self) -> None:
        if self._sealed:
            raise SealedError(
                f"sheet {self._name!r} belongs to a workspace; edit it through the workspace"
            )

    def _put(self, addr: CellAddress, cell: Cell) -> None:
        """Place ``cell`` at ``addr``, sealed or not: every public writer
        and the formula engine's writes come through here."""
        self._cells[addr] = cell
        if addr.row >= self._n_rows:
            self._n_rows = addr.row + 1
        if addr.col >= self._n_cols:
            self._n_cols = addr.col + 1
        self._version += 1

    def _commit_values(
        self, values: Iterable[Tuple[CellAddress, CellValue]]
    ) -> List[CellAddress]:
        """Replace the stored cells at the given addresses with ones holding
        the computed values — a recalculation's commit — and return the
        addresses whose content changed.  A cell that already shows its
        value is left as it is; if any changed, :attr:`version` moves once,
        so that state derived from the sheet (feature tensors, query
        vectors) is not served from before it."""
        changed: List[CellAddress] = []
        cells = self._cells
        for address, value in values:
            cell = cells[address]
            if not _same_value(cell.value, value):
                changed.append(address)
                cells[address] = Cell(value, cell.formula, cell.style)
        if changed:
            self._version += 1
        return changed

    def _checkpoint(self) -> Tuple[Dict[CellAddress, Cell], int, int]:
        """What :meth:`_restore` puts back: the cells and the extent."""
        return dict(self._cells), self._n_rows, self._n_cols

    def _restore(self, checkpoint: Tuple[Dict[CellAddress, Cell], int, int]) -> None:
        """Put back a :meth:`_checkpoint`.  The version moves on."""
        self._cells, self._n_rows, self._n_cols = checkpoint
        self._version += 1

    # ------------------------------------------------------------------ counts

    def n_formulas(self) -> int:
        """Number of formula cells in the sheet."""
        return sum(1 for __, cell in self._cells.items() if cell.has_formula)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Sheet(name={self._name!r}, rows={self._n_rows}, cols={self._n_cols}, "
            f"cells={len(self._cells)})"
        )


class DeferredSheet(Sheet):
    """A :class:`Sheet` whose cells and extent are ``decode()``'s, decoded
    on the first read of either: a sheet restored from a snapshot line.
    Until then it holds its name, ``version`` and seal, and ``decode``.

    The first read decodes under a lock, publishes cells and extent in one
    ``__dict__`` update, and turns the instance into a plain :class:`Sheet`.
    Only this class has ``__getattr__``, which Python calls for an
    attribute the instance lacks; on :class:`Sheet` it would cost every
    sheet's attribute reads their specialization.
    """

    def __init__(
        self, name: str, version: int, decode: Callable[[], Tuple[Dict[CellAddress, Cell], int, int]]
    ) -> None:
        self._name, self._version, self._sealed = name, version, False
        self._decode = decode

    def __getattr__(self, name: str):
        if name not in _DEFERRED:
            raise AttributeError(f"'Sheet' object has no attribute {name!r}")
        state = self.__dict__
        with _DECODE_LOCK:
            decode = state.get("_decode")
            if decode is not None:
                cells, n_rows, n_cols = decode()
                state.update(_n_rows=n_rows, _n_cols=n_cols, _cells=cells)
                del state["_decode"]
                self.__class__ = Sheet
        return state[name]
