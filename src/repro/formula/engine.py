"""Incremental dependency-graph recalculation engine.

The seed evaluator (since deleted) treated every evaluation as a one-shot:
a per-instance value cache that was never invalidated when the sheet
mutated, exception-based failures that aborted whole-sheet recalculation,
and ``recalculate()`` silently keeping stale values when a formula failed.
:class:`FormulaEngine` replaces that substrate with the model real
spreadsheets use:

* **Dependency graph.**  Every formula cell's AST is parsed once and its
  *precedents* — the single cells and rectangular ranges it references —
  are extracted into a dependents/precedents graph.  Single-cell edges are
  indexed exactly; range edges are kept per formula and matched by
  containment, so a formula watching ``C7:C37`` is found when any cell of
  that rectangle changes.
* **Dirty-set propagation.**  :meth:`set_value` / :meth:`set_formula`
  mutate the sheet *through* the engine, marking the edited cell's
  dependents dirty.  :meth:`recalculate` expands the dirty set through the
  dependents relation and recomputes only that closure — a single-cell
  edit costs O(dirty subgraph), not O(all formulas).  Recomputation runs
  as a memoized depth-first pass, which visits the closure in topological
  (precedents-first) order and detects cycles on the recursion path.
* **Value-based errors.**  Failures evaluate to Excel-style
  :class:`~repro.formula.errors.ErrorValue` objects (``#DIV/0!``,
  ``#REF!``, ``#CYCLE!``, ``#VALUE!``, ``#NAME?``) that propagate through
  operators and function arguments and are caught by ``IFERROR``.  A bad
  cell no longer aborts recalculation: its error value is written into
  the cell, its dependents see (and propagate) the error, and every
  unaffected formula still recomputes.
* **External-mutation safety.**  The engine watermarks the sheet's
  mutation :attr:`~repro.sheet.sheet.Sheet.version`; if the sheet was
  edited behind its back (plain ``sheet.set`` calls), the next operation
  falls back to a full resync instead of serving stale values (counted:
  :meth:`FormulaEngine.counters`).  Edits made through the engine keep
  the watermark current, preserving the incremental fast path.  A
  recalculation commits its values through
  :meth:`~repro.sheet.sheet.Sheet.commit_values`, which moves the version
  when a value changed — so every cache keyed by it sees the new values —
  and the watermark moves along.
"""

from __future__ import annotations

import datetime as _dt
import numbers
from typing import Dict, FrozenSet, List, NamedTuple, Set, Tuple

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
    REF_ERROR,
    VALUE_ERROR,
    first_error,
    is_error_value,
)
from repro.formula.functions import (
    BUILTIN_FUNCTIONS,
    FunctionError,
    _coerce_number,
    _flatten,
    _truthy,
)
from repro.formula.parser import MAX_AST_HEIGHT, parse_with_height
from repro.formula.tokenizer import FormulaSyntaxError
from repro.obs.tracing import get_tracer
from repro.sheet.addressing import AddressError, CellAddress, RangeAddress
from repro.sheet.sheet import AddressLike, Sheet, _to_address

#: Formula cells on one evaluation path; the next one down is ``#REF!``.
MAX_CHAIN_CELLS = 64

#: Summed tree height of the formulas on one evaluation path, each charged
#: in full as the path enters it; a formula that takes the path past it is
#: ``#REF!``.  It admits every chain of two-level links the chain bound does
#: (a 128-high tree under 63 ``=SUM(A2:B3)`` links is 254): the deepest takes
#: 764 frames below ``recalculate``, 772 in a server executor thread.
MAX_PATH_HEIGHT = 2 * MAX_AST_HEIGHT


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
        """Truthy iff the pass recomputed anything.

        Guards callers written against the seed ``recalculate() -> int``
        contract (``if evaluator.recalculate(): ...``): a bare NamedTuple
        would be truthy even for a no-op pass.
        """
        return self.total > 0


class FormulaEngine:
    """Dependency-graph recalculation over one :class:`~repro.sheet.Sheet`.

    Construction parses every formula cell and builds the precedents/
    dependents graph with all formulas marked dirty, so the first
    :meth:`recalculate` is a full pass; subsequent engine-mediated edits
    recompute only the affected subgraph.
    """

    def __init__(self, sheet: Sheet) -> None:
        self._sheet = sheet
        #: Parsed AST per formula cell and its height (an ErrorValue and 0
        #: when parsing failed).
        self._asts: Dict[CellAddress, Tuple[object, int]] = {}
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
        #: Memo shared by evaluate_formula/evaluate_cell across calls (the
        #: seed evaluator's cross-call cache, made safe: it is cleared
        #: whenever anything becomes dirty or values are committed).
        self._eval_memo: Dict[CellAddress, object] = {}
        self._synced_version = -1
        #: Full resyncs forced by an edit made behind the engine's back.
        self._external_resyncs = 0
        self._full_resync()

    # ------------------------------------------------------------------ state

    @property
    def sheet(self) -> Sheet:
        """The sheet this engine recalculates."""
        return self._sheet

    @property
    def dirty_count(self) -> int:
        """Number of formula cells currently marked dirty."""
        self._sync()
        return len(self._dirty)

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
        if old.has_formula:
            self._unregister(addr)
            self._dirty.discard(addr)
        style = old.style if addr in self._sheet else None
        self._sheet.set(addr, value, style=style)
        self._synced_version = self._sheet.version
        self._eval_memo.clear()
        self._mark_dirty(self._dependents_of(addr))

    def set_formula(self, address: AddressLike, formula: str) -> None:
        """Write a formula, rewire its graph edges and mark the subgraph dirty."""
        self._sync()
        addr = _to_address(address)
        old = self._sheet.get(addr)
        if old.has_formula:
            self._unregister(addr)
        text = formula if str(formula).startswith("=") else f"={formula}"
        style = old.style if addr in self._sheet else None
        self._sheet.set(addr, None, formula=text, style=style)
        self._synced_version = self._sheet.version
        self._eval_memo.clear()
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
        """Recompute the dirty closure and commit values into the sheet.

        The closure of the dirty set under the dependents relation is
        evaluated precedents-first (memoized DFS = topological order) and
        every member's value — proper or error — is written to its cell.
        Clean formulas outside the closure are not recomputed.
        """
        self._sync()
        if not self._dirty:
            return RecalcReport(0, 0)
        with get_tracer().span(
            "engine.recalculate", dirty=len(self._dirty)
        ) as span:
            # The dirty set is maintained closed under the dependents relation
            # (see _mark_dirty), so it *is* the recomputation closure; while
            # the pass runs, reads of not-yet-committed members go through the
            # memo, never the cell.
            memo: Dict[CellAddress, object] = {}
            committed: List[Tuple[CellAddress, object]] = []
            for address in sorted(self._dirty):
                value = self._cell_value(address, frozenset(), 0, memo)
                if self._sheet.get(address).has_formula:
                    committed.append((address, value))
            # One commit, one version bump if anything changed; the watermark
            # moves with it, since the engine made the change itself.
            self._sheet.commit_values(committed)
            self._synced_version = self._sheet.version
            errored = sum(1 for __, value in committed if is_error_value(value))
            recalculated = len(committed) - errored
            self._dirty = set()
            self._eval_memo.clear()
            span.set_attribute("recalculated", recalculated)
            span.set_attribute("errored", errored)
            return RecalcReport(recalculated, errored)

    # -------------------------------------------------------------- evaluation

    def evaluate_formula(self, formula: str) -> object:
        """Evaluate a formula string against the sheet (no values committed).

        Dirty precedent formulas are computed on the fly into a per-call
        memo; committed values are read for clean ones.  Failures return
        :class:`~repro.formula.errors.ErrorValue` objects.  Syntax errors
        in ``formula`` itself raise
        :class:`~repro.formula.tokenizer.FormulaSyntaxError`, matching
        the parser's contract for caller-supplied text.
        """
        self._sync()
        ast, height = parse_with_height(formula)
        return self._evaluate_node(ast, frozenset(), height, self._eval_memo)

    def evaluate_cell(self, address: AddressLike) -> object:
        """Evaluate the cell at ``address`` (its formula, or its stored value)."""
        self._sync()
        return self._cell_value(_to_address(address), frozenset(), 0, self._eval_memo)

    # ------------------------------------------------------------------- graph

    def _sync(self) -> None:
        if self._synced_version != self._sheet.version:
            self._external_resyncs += 1
            self._full_resync()

    def counters(self) -> Dict[str, int]:
        """``engine.full_resync``: times the version watermark caught an
        edit made around the engine and the whole graph was rebuilt.  The
        values come out right either way, so this count is the only sign
        that the O(dirty subgraph) path was lost."""
        return {"engine.full_resync": self._external_resyncs}

    def _full_resync(self) -> None:
        """Rebuild the graph from scratch; everything becomes dirty."""
        self._asts.clear()
        self._cell_dependents.clear()
        self._precedent_cells.clear()
        self._range_watchers.clear()
        self._eval_memo.clear()
        self._dirty = set()
        for address, __ in self._sheet.formula_cells():
            self._register(address)
            self._dirty.add(address)
        self._synced_version = self._sheet.version

    def _register(self, address: CellAddress) -> None:
        ast, __ = self._asts[address] = self._parse(self._sheet.get(address).formula or "")
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
    def _parse(formula: str) -> Tuple[object, int]:
        try:
            return parse_with_height(formula)
        except AddressError:
            return REF_ERROR, 0
        except FormulaSyntaxError:
            return NAME_ERROR, 0

    # -------------------------------------------------------------- internals

    def _cell_value(
        self,
        address: CellAddress,
        visiting: FrozenSet[CellAddress],
        height: int,
        memo: Dict[CellAddress, object],
    ) -> object:
        cell = self._sheet.get(address)
        if not cell.has_formula:
            return cell.value
        if address in memo:
            return memo[address]
        if address not in self._dirty:
            # Committed by a previous recalculation (or carried by the
            # sheet itself); the dirty protocol guarantees freshness.
            return cell.value
        if address in visiting:
            return CYCLE_ERROR
        parsed = self._asts.get(address)
        if parsed is None:  # formula cell unknown to the graph: parse transiently
            parsed = self._parse(cell.formula or "")
        ast, ast_height = parsed
        height += ast_height
        if len(visiting) >= MAX_CHAIN_CELLS or height > MAX_PATH_HEIGHT:
            return REF_ERROR
        if isinstance(ast, ErrorValue):
            value: object = ast
        else:
            value = self._evaluate_node(ast, visiting | {address}, height, memo)
        memo[address] = value
        return value

    def _evaluate_node(
        self,
        node: ASTNode,
        visiting: FrozenSet[CellAddress],
        height: int,
        memo: Dict[CellAddress, object],
    ) -> object:
        if isinstance(node, (NumberLiteral, StringLiteral, BooleanLiteral)):
            return node.value
        if isinstance(node, Grouping):
            return self._evaluate_node(node.inner, visiting, height, memo)
        if isinstance(node, CellReference):
            return self._cell_value(node.address, visiting, height, memo)
        if isinstance(node, RangeReference):
            cell_range = node.range
            if cell_range.n_cols == 1 or cell_range.n_rows == 1:
                return [
                    self._cell_value(addr, visiting, height, memo)
                    for addr in cell_range.cells()
                ]
            # Two-dimensional ranges evaluate to a list of rows so lookup
            # functions (VLOOKUP / INDEX / MATCH) see the table structure.
            return [
                [
                    self._cell_value(CellAddress(row, col), visiting, height, memo)
                    for col in range(cell_range.start.col, cell_range.end.col + 1)
                ]
                for row in range(cell_range.start.row, cell_range.end.row + 1)
            ]
        if isinstance(node, UnaryOp):
            operand = self._evaluate_node(node.operand, visiting, height, memo)
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
        if isinstance(node, BinaryOp):
            return self._evaluate_binary(node, visiting, height, memo)
        if isinstance(node, FunctionCall):
            return self._evaluate_call(node, visiting, height, memo)
        return VALUE_ERROR

    def _evaluate_binary(
        self,
        node: BinaryOp,
        visiting: FrozenSet[CellAddress],
        height: int,
        memo: Dict[CellAddress, object],
    ) -> object:
        left = self._evaluate_node(node.left, visiting, height, memo)
        if is_error_value(left):
            return left
        right = self._evaluate_node(node.right, visiting, height, memo)
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

    def _evaluate_call(
        self,
        node: FunctionCall,
        visiting: FrozenSet[CellAddress],
        height: int,
        memo: Dict[CellAddress, object],
    ) -> object:
        name = node.name
        if name == "IF":
            # Lazy branches: only the taken arm evaluates, so an error in
            # the untaken arm (e.g. a guarded division) cannot leak out.
            if not 1 <= len(node.args) <= 3:
                return VALUE_ERROR
            condition = self._evaluate_node(node.args[0], visiting, height, memo)
            if is_error_value(condition):
                return condition
            if _truthy(condition):
                if len(node.args) >= 2:
                    return self._evaluate_node(node.args[1], visiting, height, memo)
                return True
            if len(node.args) == 3:
                return self._evaluate_node(node.args[2], visiting, height, memo)
            return False
        if name == "IFERROR":
            if not 1 <= len(node.args) <= 2:
                return VALUE_ERROR
            value = self._evaluate_node(node.args[0], visiting, height, memo)
            if not is_error_value(value):
                return value
            if len(node.args) == 2:
                return self._evaluate_node(node.args[1], visiting, height, memo)
            return ""
        function = BUILTIN_FUNCTIONS.get(name)
        if function is None:
            return NAME_ERROR
        args = [self._evaluate_node(arg, visiting, height, memo) for arg in node.args]
        error = first_error(_flatten(args))
        if error is not None:
            return error
        try:
            return function(*args)
        except FunctionError as exc:
            return ErrorValue(getattr(exc, "error_code", str(VALUE_ERROR)))
        except ZeroDivisionError:
            return DIV0_ERROR
        except (TypeError, ValueError):
            return VALUE_ERROR

    # ------------------------------------------------------------- conversions

    @staticmethod
    def _as_number(value) -> object:
        """Coerce a scalar to float, or return ``#VALUE!``."""
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
        if isinstance(left, list) or isinstance(right, list):
            return VALUE_ERROR
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
