"""Incremental dependency-graph recalculation engine.

:class:`FormulaEngine` recalculates one sheet the way real spreadsheets do:

* **Dependency graph.**  Every formula cell's AST is parsed once and its
  *precedents* — the single cells and rectangular ranges it references —
  are extracted into a dependents/precedents graph.  Single-cell edges are
  indexed exactly; range edges are kept per formula and matched by
  containment, so a formula watching ``C7:C37`` is found when any cell of
  that rectangle changes.
* **Dirty-set propagation.**  :meth:`set_value` / :meth:`set_formula`
  mutate the sheet *through* the engine, marking the edited cell's
  dependents dirty; the dirty set is kept closed under the dependents
  relation, so a single-cell edit costs O(dirty subgraph), not O(all
  formulas).
* **Dependency order.**  :meth:`recalculate` evaluates the dirty formulas
  in one topological pass (Kahn's algorithm over the edges between dirty
  cells), each once and after every dirty formula it references, so a
  reference reads a value and the stack holds one tree at a time.  A
  formula the pass cannot order is on or below a cycle of the (static)
  graph: it commits ``#CYCLE!`` and stays dirty, so the next pass meets
  the cycle again.  A value is a function of the sheet, not of its edit
  history.
* **Value-based errors.**  Failures evaluate to Excel-style
  :class:`~repro.formula.errors.ErrorValue` objects (``#DIV/0!``,
  ``#CYCLE!``, ``#VALUE!``, ``#NAME?``) that propagate through
  operators and function arguments and are caught by ``IFERROR``.  A bad
  cell does not abort recalculation: its error value is written into the
  cell, its dependents see (and propagate) the error, and every unaffected
  formula still recomputes.
* **One writer per sheet.**  The engine writes its sheet through the
  sheet's private writers, so it can write a sheet a workspace has sealed;
  a recalculation commits its values through
  :meth:`~repro.sheet.sheet.Sheet._commit_values`, which moves the
  sheet's :attr:`~repro.sheet.sheet.Sheet.version` when a value changed,
  so every cache keyed by it sees the new values.  The engine watermarks
  that version: a standalone engine over an unsealed sheet that was
  written around it (plain ``sheet.set`` calls) rebuilds its graph on its
  next operation instead of serving stale values.  A workspace's sheets
  are sealed, so there the watermark only ever meets the engine's own
  writes.
"""

from __future__ import annotations

import datetime as _dt
import numbers
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Set, Tuple

from repro.formula.ast_nodes import (
    ASTNode,
    BinaryOp,
    BooleanLiteral,
    CellReference,
    FunctionCall,
    Grouping,
    NumberLiteral,
    RangeReference,
    StringLiteral,
    UnaryOp,
    collect_references,
)
from repro.formula.errors import (
    CYCLE_ERROR,
    DIV0_ERROR,
    ErrorValue,
    NAME_ERROR,
    VALUE_ERROR,
    first_error,
    is_error_value,
)
from repro.formula.functions import (
    BUILTIN_FUNCTIONS,
    FunctionError,
    Grid,
    _coerce_number,
    _flatten,
    _truthy,
    scalar,
)
from repro.formula.parser import parse_formula
from repro.formula.tokenizer import FormulaSyntaxError
from repro.obs.tracing import get_tracer
from repro.sheet.addressing import CellAddress, RangeAddress
from repro.sheet.cell import EMPTY_CELL, Cell
from repro.sheet.sheet import AddressLike, Sheet, _to_address


class RecalcReport(NamedTuple):
    """What one :meth:`FormulaEngine.recalculate` pass did.

    ``recalculated`` formulas committed a proper value; ``errored``
    formulas committed an :class:`~repro.formula.errors.ErrorValue`.
    Every formula in the dirty closure is accounted for in exactly one
    of the two counters — nothing is silently skipped.
    """

    recalculated: int
    errored: int

    @property
    def total(self) -> int:
        """Number of formula cells recomputed in the pass."""
        return self.recalculated + self.errored

    def __bool__(self) -> bool:
        """Truthy iff the pass recomputed anything (a bare NamedTuple
        would be truthy even for a no-op pass)."""
        return self.total > 0


def _held(value) -> object:
    """The one value of ``value`` (:func:`~repro.formula.functions.scalar`),
    ``#VALUE!`` for a range of more than one cell: what a cell holds of a
    formula's value, an operand and an ``IF`` condition."""
    try:
        return scalar(value)
    except FunctionError:
        return VALUE_ERROR


class FormulaEngine:
    """Dependency-graph recalculation over one :class:`~repro.sheet.Sheet`.

    Construction parses every formula cell and builds the precedents/
    dependents graph with all formulas marked dirty, so the first
    :meth:`recalculate` is a full pass; subsequent engine-mediated edits
    recompute only the affected subgraph.
    """

    def __init__(self, sheet: Sheet) -> None:
        self._sheet = sheet
        #: Parsed AST per formula cell (the ErrorValue its text evaluates to
        #: when parsing failed).
        self._asts: Dict[CellAddress, object] = {}
        #: Single-cell precedent -> formula cells referencing it directly.
        self._cell_dependents: Dict[CellAddress, Set[CellAddress]] = {}
        #: Formula cell -> its single-cell precedents (for edge removal).
        self._precedent_cells: Dict[CellAddress, FrozenSet[CellAddress]] = {}
        #: Formula cell -> the ranges it watches (matched by containment).
        #: Only range-bearing formulas appear here, so the containment
        #: scan in :meth:`_dependents_of` is O(formulas with ranges), not
        #: O(all formulas).
        self._range_watchers: Dict[CellAddress, Tuple[RangeAddress, ...]] = {}
        #: Formula cells whose committed value may be stale.
        self._dirty: Set[CellAddress] = set()
        #: The dirty formulas' values (:meth:`_evaluate_dirty`); ``None``
        #: until the pass has run since the last edit.
        self._eval_memo: Optional[Dict[CellAddress, object]] = None
        #: The cells whose value the last :meth:`recalculate` changed.
        self.last_changed: Tuple[CellAddress, ...] = ()
        self._synced_version = -1
        self._full_resync()

    # ------------------------------------------------------------------ state

    @property
    def sheet(self) -> Sheet:
        """The sheet this engine recalculates."""
        return self._sheet

    def precedents_of(
        self, address: AddressLike
    ) -> Tuple[Tuple[CellAddress, ...], Tuple[RangeAddress, ...]]:
        """The (cells, ranges) a formula cell references directly."""
        self._sync()
        addr = _to_address(address)
        return (
            tuple(sorted(self._precedent_cells.get(addr, frozenset()))),
            self._range_watchers.get(addr, ()),
        )

    def dependents_of(self, address: AddressLike) -> FrozenSet[CellAddress]:
        """The formula cells that directly reference ``address``."""
        self._sync()
        return frozenset(self._dependents_of(_to_address(address)))

    # ------------------------------------------------------------------ edits

    def set_value(self, address: AddressLike, value=None) -> None:
        """Write a plain value (clearing any formula) and mark dependents dirty."""
        self._sync()
        addr = _to_address(address)
        old = self._sheet.get(addr)
        cell = Cell(value, None, old.style)  # a value no cell holds raises here
        if old.has_formula:
            self._unregister(addr)
            self._dirty.discard(addr)
        self._sheet._put(addr, cell)
        self._synced_version = self._sheet.version
        self._eval_memo = None
        self._mark_dirty(self._dependents_of(addr))

    def set_formula(self, address: AddressLike, formula: str) -> None:
        """Write a formula, rewire its graph edges and mark the subgraph dirty."""
        self._sync()
        addr = _to_address(address)
        old = self._sheet.get(addr)
        if old.has_formula:
            self._unregister(addr)
        text = formula if str(formula).startswith("=") else f"={formula}"
        self._sheet._put(addr, Cell(None, text, old.style))
        self._synced_version = self._sheet.version
        self._eval_memo = None
        self._register(addr)
        self._mark_dirty((addr,))

    def _mark_dirty(self, seeds) -> None:
        """Add ``seeds`` and their transitive dependents to the dirty set.

        The dirty set is kept *closed* under the dependents relation at
        edit time, so every read path — :meth:`recalculate`, but also
        :meth:`evaluate_cell` / :meth:`evaluate_formula` between an edit
        and the next recalculation — sees exactly the same notion of
        staleness and never serves a committed-but-outdated value.
        """
        frontier = [address for address in seeds if address not in self._dirty]
        while frontier:
            address = frontier.pop()
            if address in self._dirty:
                continue
            self._dirty.add(address)
            frontier.extend(
                dependent
                for dependent in self._dependents_of(address)
                if dependent not in self._dirty
            )

    # ------------------------------------------------------------------ recalc

    def recalculate(self) -> RecalcReport:
        """Recompute the dirty formulas and commit their values into the sheet.

        Every dirty formula's value — proper or error, ``#CYCLE!`` for one
        the dependency order cannot reach — is written to its cell.  Clean
        formulas are not recomputed.
        """
        self._sync()
        self.last_changed = ()
        if not self._dirty:
            return RecalcReport(0, 0)
        with get_tracer().span(
            "engine.recalculate", dirty=len(self._dirty)
        ) as span:
            memo = self._evaluate_dirty()
            committed = {address: self._read(address) for address in self._dirty}
            # One commit, one version bump if anything changed; the watermark
            # moves with it, since the engine made the change itself.
            self.last_changed = tuple(self._sheet._commit_values(committed.items()))
            self._synced_version = self._sheet.version
            errored = sum(1 for value in committed.values() if is_error_value(value))
            recalculated = len(committed) - errored
            # What the pass could not order stays dirty (the module docstring's
            # cycle rule).
            self._dirty.difference_update(memo)
            self._eval_memo = None
            span.set_attribute("recalculated", recalculated)
            span.set_attribute("errored", errored)
            return RecalcReport(recalculated, errored)

    # -------------------------------------------------------------- evaluation

    def evaluate_formula(self, formula: str) -> object:
        """Evaluate a formula string against the sheet (no values committed).

        It reads the values the next :meth:`recalculate` would commit and
        returns what a cell holding ``formula`` would hold.  Failures
        return :class:`~repro.formula.errors.ErrorValue` objects.
        Syntax errors in ``formula`` itself raise
        :class:`~repro.formula.tokenizer.FormulaSyntaxError`, matching
        the parser's contract for caller-supplied text.
        """
        self._sync()
        ast = parse_formula(formula)
        self._evaluate_dirty()
        return _held(self._evaluate_node(ast))

    def evaluate_cell(self, address: AddressLike) -> object:
        """Evaluate the cell at ``address`` (its formula, or its stored value)."""
        self._sync()
        self._evaluate_dirty()
        return self._read(_to_address(address))

    def trees(self) -> Mapping[CellAddress, object]:
        """Every formula cell's parsed tree, or the error value its text
        evaluates to when it does not parse (a read-only view)."""
        self._sync()
        return MappingProxyType(self._asts)

    # ------------------------------------------------------------------- graph

    def _sync(self) -> None:
        if self._synced_version != self._sheet.version:
            self._full_resync()

    def _full_resync(self) -> None:
        """Rebuild the graph from scratch; everything becomes dirty."""
        self._asts.clear()
        self._cell_dependents.clear()
        self._precedent_cells.clear()
        self._range_watchers.clear()
        self._eval_memo = None
        self._dirty = set()
        for address, __ in self._sheet.formula_cells():
            self._register(address)
            self._dirty.add(address)
        self._synced_version = self._sheet.version

    def _register(self, address: CellAddress) -> None:
        ast = self._asts[address] = self._parse(self._sheet.get(address).formula or "")
        if isinstance(ast, ErrorValue):
            self._precedent_cells[address] = frozenset()
            return
        cells: Set[CellAddress] = set()
        ranges: List[RangeAddress] = []
        for reference in collect_references(ast):
            if isinstance(reference, CellReference):
                cells.add(reference.address)
            else:
                ranges.append(reference.range)
        self._precedent_cells[address] = frozenset(cells)
        if ranges:
            self._range_watchers[address] = tuple(ranges)
        for precedent in cells:
            self._cell_dependents.setdefault(precedent, set()).add(address)

    def _unregister(self, address: CellAddress) -> None:
        self._asts.pop(address, None)
        for precedent in self._precedent_cells.pop(address, frozenset()):
            dependents = self._cell_dependents.get(precedent)
            if dependents is not None:
                dependents.discard(address)
                if not dependents:
                    del self._cell_dependents[precedent]
        self._range_watchers.pop(address, None)

    def _dependents_of(self, address: CellAddress) -> Set[CellAddress]:
        dependents = set(self._cell_dependents.get(address, ()))
        for formula_address, ranges in self._range_watchers.items():
            for cell_range in ranges:
                if cell_range.contains(address):
                    dependents.add(formula_address)
                    break
        return dependents

    @staticmethod
    def _parse(formula: str) -> object:
        try:
            return parse_formula(formula)
        except FormulaSyntaxError:
            return NAME_ERROR

    # -------------------------------------------------------------- internals

    def _evaluate_dirty(self) -> Dict[CellAddress, object]:
        """The dirty formulas' values, evaluated once per edit in dependency
        order (Kahn's algorithm): a formula becomes ready when every dirty
        formula it references has its value.  The ones never ready — on or
        downstream of a cycle — get no entry, and read as ``#CYCLE!``."""
        if self._eval_memo is not None:
            return self._eval_memo
        memo: Dict[CellAddress, object] = {}
        self._eval_memo = memo
        dirty = self._dirty
        dependents = {
            address: [dependent for dependent in self._dependents_of(address) if dependent in dirty]
            for address in dirty
        }
        waiting = dict.fromkeys(dirty, 0)
        for targets in dependents.values():
            for target in targets:
                waiting[target] += 1
        ready = [address for address, count in waiting.items() if not count]
        while ready:
            address = ready.pop()
            memo[address] = self._formula_value(address)
            for dependent in dependents[address]:
                waiting[dependent] -= 1
                if not waiting[dependent]:
                    ready.append(dependent)
        return memo

    def _read(self, address: CellAddress) -> object:
        """A cell's value as the pass sees it: a dirty formula's from the
        memo, any other cell's as stored (clean formulas are committed)."""
        if address in self._dirty:
            return self._eval_memo.get(address, CYCLE_ERROR)
        return self._sheet._cells.get(address, EMPTY_CELL).value

    def _formula_value(self, address: CellAddress) -> object:
        ast = self._asts[address]
        if isinstance(ast, ErrorValue):
            return ast
        return _held(self._evaluate_node(ast))

    def _evaluate_node(self, node: ASTNode) -> object:
        if isinstance(node, BinaryOp):  # the most common inner node first
            return self._evaluate_binary(node)
        if isinstance(node, (NumberLiteral, StringLiteral, BooleanLiteral)):
            return node.value
        if isinstance(node, Grouping):
            return self._evaluate_node(node.inner)
        if isinstance(node, CellReference):
            return self._read(node.address)
        if isinstance(node, RangeReference):
            return self._range(node.range)
        if isinstance(node, UnaryOp):
            operand = _held(self._evaluate_node(node.operand))
            if is_error_value(operand):
                return operand
            number = self._as_number(operand)
            if is_error_value(number):
                return number
            if node.op == "-":
                return -number
            if node.op == "+":
                return number
            if node.op == "%":
                return number / 100.0
            return NAME_ERROR
        if isinstance(node, FunctionCall):
            return self._evaluate_call(node)
        return VALUE_ERROR

    def _range(self, cell_range: RangeAddress) -> Grid:
        """A range's value: a :class:`~repro.formula.functions.Grid` of its
        shape that holds the cells of its intersection with the sheet's
        used extent (every cell past the extent is blank), so a range costs
        what the sheet stores.  The held cells are read by position in one
        pass, as :meth:`_read` gives them, then the few dirty formulas
        among them are patched in from the memo (a pass with more dirty
        formulas than the block has cells reads cell by cell).  A range
        one cell wide either way is one column, as the lookups read it."""
        start, end = cell_range.start, cell_range.end
        rows = range(start.row, min(end.row, self._sheet.n_rows - 1) + 1)
        cols = range(start.col, min(end.col, self._sheet.n_cols - 1) + 1)
        dirty = self._dirty
        if len(dirty) > len(rows) * len(cols):
            values = [self._read((row, col)) for row in rows for col in cols]
        else:
            get = self._sheet._cells.get
            values = [get((row, col), EMPTY_CELL).value for row in rows for col in cols]
            memo, width = self._eval_memo, len(cols)
            for address in dirty:
                row, col = address.row - rows.start, address.col - cols.start
                if 0 <= row < len(rows) and 0 <= col < width:
                    values[row * width + col] = memo.get(address, CYCLE_ERROR)
        if cell_range.n_rows == 1 or cell_range.n_cols == 1:
            return Grid(cell_range.size, 1, len(values), 1, values)
        return Grid(cell_range.n_rows, cell_range.n_cols, len(rows), len(cols), values)

    def _evaluate_binary(self, node: BinaryOp) -> object:
        left = _held(self._evaluate_node(node.left))
        if is_error_value(left):
            return left
        right = _held(self._evaluate_node(node.right))
        if is_error_value(right):
            return right
        op = node.op
        if op == "&":
            return self._as_text(left) + self._as_text(right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return self._compare(op, left, right)
        left_number = self._as_number(left)
        if is_error_value(left_number):
            return left_number
        right_number = self._as_number(right)
        if is_error_value(right_number):
            return right_number
        if op == "+":
            return left_number + right_number
        if op == "-":
            return left_number - right_number
        if op == "*":
            return left_number * right_number
        if op == "/":
            if right_number == 0:
                return DIV0_ERROR
            return left_number / right_number
        if op == "^":
            try:
                result = left_number ** right_number
            except ZeroDivisionError:
                return DIV0_ERROR
            except (OverflowError, ValueError):
                return VALUE_ERROR
            if isinstance(result, complex):
                return VALUE_ERROR
            return result
        return NAME_ERROR

    def _evaluate_call(self, node: FunctionCall) -> object:
        name = node.name
        if name == "IF":
            # Lazy branches: only the taken arm evaluates, so an error in
            # the untaken arm (e.g. a guarded division) cannot leak out.
            if not 1 <= len(node.args) <= 3:
                return VALUE_ERROR
            condition = _held(self._evaluate_node(node.args[0]))
            if is_error_value(condition):
                return condition
            if _truthy(condition):
                if len(node.args) >= 2:
                    return self._evaluate_node(node.args[1])
                return True
            if len(node.args) == 3:
                return self._evaluate_node(node.args[2])
            return False
        if name == "IFERROR":
            if not 1 <= len(node.args) <= 2:
                return VALUE_ERROR
            value = self._evaluate_node(node.args[0])
            if not is_error_value(value):
                return value
            if len(node.args) == 2:
                return self._evaluate_node(node.args[1])
            return ""
        function = BUILTIN_FUNCTIONS.get(name)
        if function is None:
            return NAME_ERROR
        args = [self._evaluate_node(arg) for arg in node.args]
        error = first_error(_flatten(args))
        if error is not None:
            return error
        try:
            return function(*args)
        except FunctionError as exc:
            return ErrorValue(getattr(exc, "error_code", str(VALUE_ERROR)))
        except ZeroDivisionError:
            return DIV0_ERROR
        except (TypeError, ValueError, OverflowError):
            # OverflowError: an infinite or huge number where an integer
            # is needed (``INT``, ``LEFT``, ``DATE`` ...).
            return VALUE_ERROR

    # ------------------------------------------------------------- conversions

    @staticmethod
    def _as_number(value) -> object:
        """Coerce a scalar to float, or return ``#VALUE!``."""
        if type(value) is float:
            return value
        try:
            return _coerce_number(value)
        except FunctionError:
            return VALUE_ERROR

    @staticmethod
    def _as_text(value) -> str:
        """Spreadsheet text rendering: booleans as ``TRUE``/``FALSE``."""
        if value is None:
            return ""
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)

    @staticmethod
    def _compare_key(value) -> Tuple[int, object]:
        """Excel's cross-type ordering: numbers < text < booleans.

        Within a rank, numbers compare numerically (dates by ordinal,
        matching their serial-number nature) and text case-insensitively.
        """
        if isinstance(value, bool):
            return (2, 1.0 if value else 0.0)
        if isinstance(value, (_dt.date, _dt.datetime)):
            return (0, float(value.toordinal()))
        if isinstance(value, numbers.Number):
            return (0, float(value))
        return (1, str(value).casefold())

    @classmethod
    def _compare(cls, op: str, left, right) -> object:
        # A blank operand adapts to the other side's type (blank = 0,
        # blank = "", blank = FALSE), as in real spreadsheets.
        if left is None and right is None:
            left = right = 0.0
        elif left is None:
            left = "" if isinstance(right, str) else (
                False if isinstance(right, bool) else 0.0
            )
        elif right is None:
            right = "" if isinstance(left, str) else (
                False if isinstance(left, bool) else 0.0
            )
        left_key = cls._compare_key(left)
        right_key = cls._compare_key(right)
        if op == "=":
            return left_key == right_key
        if op == "<>":
            return left_key != right_key
        if op == "<":
            return left_key < right_key
        if op == "<=":
            return left_key <= right_key
        if op == ">":
            return left_key > right_key
        return left_key >= right_key
