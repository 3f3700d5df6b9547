"""The end-to-end Auto-Formula predictor (Algorithm 2)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ann import SearchResult, VectorIndex
from repro.ann.base import RowStore, closest_in_blocks
from repro.core.config import AutoFormulaConfig
from repro.core.interface import FormulaPredictor, Prediction
from repro.features.window import MAX_CACHED_TARGET_SHEETS, sheet_cache
from repro.formula.ast_nodes import ASTNode
from repro.formula.parser import parse_formula
from repro.formula.template import formula_references, instantiate_template
from repro.formula.tokenizer import FormulaSyntaxError
from repro.models.encoder import SheetEncoder
from repro.obs import Counter, get_tracer
from repro.sheet.addressing import CellAddress, RangeAddress
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

_UNSET = object()

#: What a snapshot manifest records as the kind of both indexes, and every
#: spelling of it a restore accepts (any case, surrounding whitespace
#: aside): snapshots of predictors that could pick an index kind wrote
#: these, and any other kind's answers differ from this predictor's.
_INDEX_KIND = "exact"
_INDEX_KIND_SPELLINGS = frozenset({"exact", "flat", "brute"})


def _reference_parameter_cells(
    references: Sequence[Union[CellAddress, RangeAddress]]
) -> List[CellAddress]:
    """Unique cells referenced as parameters, in first-occurrence order
    (range parameters contribute their start and end cells)."""
    cells: List[CellAddress] = []
    seen: set = set()
    for reference in references:
        ends = (
            (reference.start, reference.end)
            if isinstance(reference, RangeAddress)
            else (reference,)
        )
        for cell in ends:
            key = (cell.row, cell.col)
            if key not in seen:
                seen.add(key)
                cells.append(cell)
    return cells


def _coordinates(cells: Sequence[CellAddress]) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column arrays of a list of cells."""
    return (
        np.array([cell.row for cell in cells], dtype=np.int64),
        np.array([cell.col for cell in cells], dtype=np.int64),
    )


def _rectangle(
    anchor: Tuple[int, int], extent: Tuple[int, int], reach: Tuple[int, int]
) -> Optional[Tuple[int, int, int, int]]:
    """``(row_lo, row_hi, col_lo, col_hi)`` of the +/- ``reach`` neighborhood
    of ``anchor`` clamped to a sheet of ``extent`` rows x columns, or ``None``
    when the neighborhood misses the sheet.  An empty axis still has cell 0,
    so a 0x0 sheet has the one candidate ``(0, 0)``."""
    row_lo = max(anchor[0] - reach[0], 0)
    row_hi = min(anchor[0] + reach[0], max(extent[0] - 1, 0))
    col_lo = max(anchor[1] - reach[1], 0)
    col_hi = min(anchor[1] + reach[1], max(extent[1] - 1, 0))
    if row_lo > row_hi or col_lo > col_hi:
        return None
    return row_lo, row_hi, col_lo, col_hi


class _Piece(NamedTuple):
    """A clamped rectangle ``(row_lo, row_hi, col_lo, col_hi)`` of S3
    candidates, and which of its cells are candidates: their row-major
    offsets (``None``: all of them)."""

    bounds: Tuple[int, int, int, int]
    keep: Optional[np.ndarray]

    @property
    def area(self) -> int:
        """Cells of the rectangle, candidates or not."""
        row_lo, row_hi, col_lo, col_hi = self.bounds
        return (row_hi - row_lo + 1) * (col_hi - col_lo + 1)

    @property
    def size(self) -> int:
        return self.area if self.keep is None else self.keep.size

    def cell(self, position: int) -> CellAddress:
        """The candidate at ``position``."""
        row_lo, __, col_lo, col_hi = self.bounds
        offset = position if self.keep is None else int(self.keep[position])
        row, col = divmod(offset, col_hi - col_lo + 1)
        return CellAddress(row_lo + row, col_lo + col)

    def offsets(self) -> np.ndarray:
        """Row-major offsets of the candidates in the rectangle."""
        return np.arange(self.area) if self.keep is None else self.keep

    def cells(self) -> Tuple[np.ndarray, np.ndarray]:
        """Rows and columns of the candidates, in order."""
        row_lo, __, col_lo, col_hi = self.bounds
        rows, cols = np.divmod(self.offsets(), col_hi - col_lo + 1)
        return rows + row_lo, cols + col_lo


class _Candidates(NamedTuple):
    """The S3 candidates of one parameter (see :func:`_parameter_candidates`)."""

    pieces: List[_Piece]
    #: Manhattan distance from each candidate to the nearer anchor.
    steps: np.ndarray

    def cell(self, position: int) -> CellAddress:
        """The candidate at ``position``."""
        for piece in self.pieces:
            if position < piece.size:
                return piece.cell(position)
            position -= piece.size
        raise IndexError(position)

    def cells(self) -> Tuple[np.ndarray, np.ndarray]:
        """Rows and columns of the candidates, in order."""
        rows, cols = zip(*(piece.cells() for piece in self.pieces))
        return np.concatenate(rows), np.concatenate(cols)


def _parameter_candidates(
    anchors: Sequence[Tuple[int, int]], extent: Tuple[int, int], reach: Tuple[int, int]
) -> Optional[_Candidates]:
    """The S3 candidates of one parameter with anchors ``(moved, own)``, or
    ``None`` when no anchor's neighborhood touches the sheet.

    The first anchor's clamped rectangle comes row-major, then the cells of
    the second's that lie outside the first.  That is the first-occurrence
    order of the two rectangles enumerated one after the other, so equal
    scores keep resolving toward the primary anchor, top-left first.  A
    rectangle's steps are built from its two 1-D ranges and no per-cell row
    or column array is made: :meth:`_Piece.cells` makes them for the cells
    that must be embedded.
    """
    rectangles = [
        bounds
        for anchor in anchors
        if (bounds := _rectangle(anchor, extent, reach)) is not None
    ]
    if not rectangles:
        return None
    first = rectangles[0]
    pieces = [_Piece(first, None)]
    if len(rectangles) == 2:
        row_lo, row_hi, col_lo, col_hi = rectangles[1]
        # Coincident anchors (a target cell where the reference formula
        # sits) give the same rectangle twice: nothing outside the first.
        if row_lo < first[0] or row_hi > first[1] or col_lo < first[2] or col_hi > first[3]:
            row_range = np.arange(row_lo, row_hi + 1)
            col_range = np.arange(col_lo, col_hi + 1)
            outside = ((row_range < first[0]) | (row_range > first[1]))[:, None] | (
                (col_range < first[2]) | (col_range > first[3])
            )
            pieces.append(_Piece(rectangles[1], np.flatnonzero(outside)))
    steps = []
    for (row_lo, row_hi, col_lo, col_hi), keep in pieces:
        block = None
        for anchor_row, anchor_col in dict.fromkeys(anchors):
            distance = np.add.outer(
                np.abs(np.arange(row_lo - anchor_row, row_hi - anchor_row + 1)),
                np.abs(np.arange(col_lo - anchor_col, col_hi - anchor_col + 1)),
            )
            block = distance if block is None else np.minimum(block, distance)
        steps.append(block.ravel() if keep is None else block.ravel()[keep])
    return _Candidates(pieces, steps[0] if len(steps) == 1 else np.concatenate(steps))


class _Regions(NamedTuple):
    """S3's reference side of one state of a reference sheet: the region
    embeddings of all its formulas' parameter cells and their squared
    norms, written once by one exactly sized :meth:`RowStore.append
    <repro.ann.base.RowStore.append>` (the indexes' norm rule) and then
    only read.  An edit replaces the block whole."""

    #: The parameter cells, one ``(row, col)`` per row of ``rows`` (an
    #: array: 16 bytes a cell, where a dict of tuples takes ~150).
    cells: np.ndarray
    rows: np.ndarray
    norms: np.ndarray

    @classmethod
    def of(cls, cells: np.ndarray, vectors: np.ndarray) -> "_Regions":
        """The block of the ``(n, 2)`` ``cells`` embedded as ``vectors``."""
        store = RowStore(vectors.shape[1], len(vectors))
        store.append(vectors)
        rows, norms = store.rows, store.norms
        for array in (cells, rows, norms):
            array.flags.writeable = False
        return cls(cells, rows, norms)

    def positions(self, cells: Sequence[Tuple[int, int]]) -> np.ndarray:
        """The rows holding ``cells`` (``IndexError`` for a cell not in
        the block: it holds every parameter cell of its sheet)."""
        return np.array(
            [np.flatnonzero((self.cells == cell).all(axis=1))[0] for cell in cells],
            dtype=np.int64,
        )


@dataclass
class _AdaptationPlan:
    """What S3 needs from one reference formula, worked out once.

    ``cells`` are the unique parameter cells as ``(row, col)`` and ``slots``
    their rows in the owning reference sheet's :class:`_Regions` (an edit
    that keeps the formula list keeps every cell's row); ``references``
    lists the formula's parameters in template order, each as indexes into
    ``cells``: one for a cell, two (start, end) for a range.
    """

    formula_cell: CellAddress
    ast: ASTNode
    references: List[Tuple[int, ...]]
    cells: List[Tuple[int, int]]
    slots: np.ndarray

    def instantiate(self, mapped: Sequence[CellAddress]) -> str:
        """The formula with ``cells[i]`` re-grounded to ``mapped[i]``."""
        return instantiate_template(
            self.ast,
            [
                mapped[ends[0]]
                if len(ends) == 1
                else RangeAddress(mapped[ends[0]], mapped[ends[1]])
                for ends in self.references
            ],
        )


class _ReferenceFormula(NamedTuple):
    """A formula cell on an indexed reference sheet: its address and text."""

    address: CellAddress
    formula: str


@dataclass
class _ReferenceSheet:
    """One indexed reference sheet, its formula cells and the index rows
    it owns."""

    workbook_name: str
    sheet: Sheet
    formulas: List[_ReferenceFormula]
    #: Region embeddings of the formulas' parameter cells (``None`` until a
    #: restored sheet's first S3 use).
    regions: Optional[_Regions]
    #: Its position in the sheet index (S1).
    sheet_row: int
    #: Its formulas' positions in the formula index (S2), in formula order.
    formula_rows: np.ndarray
    #: Adaptation plans by formula position, built on first use (``None``
    #: for a formula that does not parse: S3 abstains on it every time).
    plans: Dict[int, Optional[_AdaptationPlan]] = field(default_factory=dict)


@dataclass(frozen=True)
class ScoredPrediction:
    """One target cell's best S2 hit, with the keys needed to merge
    candidate predictions from disjoint sheet subsets deterministically.

    Returned by :meth:`AutoFormula.predict_batch_scored`.  ``prediction``
    is ``None`` when the hit failed the acceptance threshold or S3
    re-grounding (the same cases in which :meth:`AutoFormula.predict`
    abstains).  ``sheet_rank`` is the index of the owning reference sheet
    in the ``sheet_ids`` sequence the caller passed — the caller's own
    candidate ordering — and ``formula_index`` is the formula's position
    within that sheet, so ``(distance, sheet_rank, formula_index)``
    reproduces the single-pool tie-break when bests from several subsets
    are compared.
    """

    prediction: Optional[Prediction]
    distance: float
    sheet_rank: int
    formula_index: int


class AutoFormula(FormulaPredictor):
    """Formula recommendation by similar-sheet / similar-region retrieval.

    The online phase is a vectorized two-stage retrieval engine: S1 finds
    ``top_k_sheets`` similar sheets in the sheet-level index, S2 scores the
    target region against *all* formula regions of those sheets with a
    single matrix product over a second-stage index, and S3 re-grounds the
    winning formula's parameters.  :meth:`predict_batch` runs S1 once and
    featurizes/encodes every target region of a sheet in one forward pass.

    A new predictor indexes an empty corpus, and the corpus is mutable
    from then on: :meth:`fit` replaces it whole, :meth:`add_workbooks`
    appends new reference sheets without touching the existing ones,
    :meth:`remove_workbook` tombstones a workbook's sheets out of both
    vector indexes (see :meth:`repro.ann.VectorIndex.remove_batch`), and
    :meth:`reindex_sheet` re-embeds one sheet that was edited in place over
    the rows it already owns, keeping its stable id and its place in the
    corpus.  Predictions stay bit-identical to a fresh ``fit`` on the
    equivalent corpus (sheets in the order they were added; an edit never
    moves one).
    """

    name = "Auto-Formula"

    def __init__(
        self,
        encoder: SheetEncoder,
        config: Optional[AutoFormulaConfig] = None,
    ) -> None:
        self.encoder = encoder
        self.config = config or AutoFormulaConfig()
        #: S3 candidates scored, and those re-ranked (see :meth:`counters`);
        #: serves run concurrently, hence instruments.
        self._candidates_scored = Counter()
        self._candidates_reranked = Counter()
        #: S1 query embeddings, reused within and across requests.
        self._query_vector_cache = sheet_cache("query_vectors", MAX_CACHED_TARGET_SHEETS)
        self._reset()

    def _reset(self) -> None:
        """An empty corpus (no reference sheet, both indexes empty) and a
        cold query cache."""
        self._query_vector_cache.clear()
        #: Reference sheets by stable sheet id; removed sheets become None.
        self._reference_sheets: List[Optional[_ReferenceSheet]] = []
        #: Stable ids of each indexed workbook's sheets, and of each indexed
        #: sheet object (by ``id()``: its registry entry pins the object), so
        #: no mutation walks the whole registry.
        self._workbook_sheet_ids: Dict[str, List[int]] = {}
        self._sheet_ids: Dict[int, int] = {}
        sheet_dimension = (
            self.encoder.fine_dimension
            if self.config.granularity == "fine_only"
            else self.encoder.coarse_dimension
        )
        self._sheet_index = VectorIndex(sheet_dimension)
        self._formula_index = VectorIndex(self._region_dimension)

    # --------------------------------------------------------------- encoding

    def _embed_sheet(self, sheet: Sheet) -> np.ndarray:
        """S1 embedding: the coarse model's, the fine one's under the
        fine-only ablation."""
        return self.encoder.embed_sheet(sheet, fine=self.config.granularity == "fine_only")

    def _embed_regions(
        self, sheet: Sheet, rows: np.ndarray, cols: np.ndarray, blank_center: bool = False
    ) -> np.ndarray:
        """S2 / S3 embeddings of the cells ``(rows[i], cols[i])``: the fine
        model's, the coarse one's under the coarse-only ablation."""
        return self.encoder.embed_regions(
            sheet, rows, cols, blank_center, coarse=self.config.granularity == "coarse_only"
        )

    @property
    def _region_dimension(self) -> int:
        if self.config.granularity == "coarse_only":
            return self.encoder.coarse_dimension
        return self.encoder.fine_dimension

    def _reference_regions(self, sheet: Sheet, cells: Sequence[Tuple[int, int]]) -> _Regions:
        """The S3 block of ``sheet``'s parameter cells ``(row, col)`` — all
        of them, in :meth:`_parameter_cells` order — embedded in one
        forward.  Fit, add, re-index and a restored sheet's first S3 use
        all build it here, so they write the same bytes under every
        granularity (the coarse forward rounds a row differently in
        another batch)."""
        cells = np.array(cells, dtype=np.int64).reshape(-1, 2)
        return _Regions.of(cells, self._embed_regions(sheet, cells[:, 0], cells[:, 1]))

    def _regions(self, reference: _ReferenceSheet) -> _Regions:
        """``reference``'s S3 block, built on a restored sheet's first use
        (under the workspace's lock, like every other read and write)."""
        regions = reference.regions
        if regions is None:
            regions = reference.regions = self._reference_regions(
                reference.sheet, self._parameter_cells(reference.formulas)
            )
        return regions

    def counters(self) -> Dict[str, int]:
        """Everything this predictor and its indexes count, keyed by full
        metric name (the server mirrors each key as a gauge).

        ``s3.candidates_scored`` / ``s3.candidates_reranked`` are S3's
        candidates since construction and those its tier 1 could not settle
        alone (rows of re-ranked slices, see
        :func:`~repro.ann.base.closest_in_blocks`; under the fine fast path
        the only target regions S3 embeds): a rising share means a loose
        bound or tie-heavy sheets.  The indexes' own
        :meth:`~repro.ann.VectorIndex.counters` are summed over both (a
        ``fit`` builds new indexes, whose counts start again).
        """
        counts = {
            "s3.candidates_scored": self._candidates_scored.value,
            "s3.candidates_reranked": self._candidates_reranked.value,
        }
        for index in (self._sheet_index, self._formula_index):
            for key, count in index.counters().items():
                counts[key] = counts.get(key, 0) + count
        return counts

    # ---------------------------------------------------------------- offline

    @staticmethod
    def _parameter_cells(
        formulas: Sequence[_ReferenceFormula],
        trees: Optional[Mapping[CellAddress, object]] = None,
    ) -> List[Tuple[int, int]]:
        """Unique cells ``(row, col)`` referenced as parameters by any of
        ``formulas`` (one with an entry in ``trees`` is not parsed again)."""
        references: List[Union[CellAddress, RangeAddress]] = []
        for formula in formulas:
            ast = trees.get(formula.address) if trees else None
            if ast is None:
                try:
                    ast = parse_formula(formula.formula)
                except FormulaSyntaxError:
                    continue
            if isinstance(ast, ASTNode):
                references.extend(formula_references(ast))
        return [(cell.row, cell.col) for cell in _reference_parameter_cells(references)]

    @staticmethod
    def _flatten(
        reference_workbooks: Sequence[Union[Workbook, Sheet]]
    ) -> List[Tuple[str, Sheet]]:
        """(workbook name, sheet) pairs in corpus order."""
        sheets: List[Tuple[str, Sheet]] = []
        for item in reference_workbooks:
            if isinstance(item, Sheet):
                sheets.append(("<sheet>", item))
            else:
                sheets.extend((item.name, sheet) for sheet in item)
        return sheets

    def fit(self, reference_workbooks: Sequence[Union[Workbook, Sheet]]) -> None:
        """Offline phase: embed and index every reference sheet and formula,
        in place of the corpus indexed so far.

        All or nothing, as :meth:`_index_sheets` is: the old registry and
        indexes are kept until the last forward has run, and put back if
        one raises.
        """
        old = (
            self._reference_sheets,
            self._workbook_sheet_ids,
            self._sheet_ids,
            self._sheet_index,
            self._formula_index,
        )
        sheets = self._flatten(reference_workbooks)
        with get_tracer().span("core.fit", sheets=len(sheets)):
            self._reset()
            try:
                self._index_sheets(sheets)
            except BaseException:
                (
                    self._reference_sheets,
                    self._workbook_sheet_ids,
                    self._sheet_ids,
                    self._sheet_index,
                    self._formula_index,
                ) = old
                raise

    def _index_sheets(self, sheets: Sequence[Tuple[str, Sheet]]) -> None:
        """Embed and index new reference sheets, appended after existing ones.

        All or nothing: registry entries and lookups are written after the
        last forward, and if one raises both indexes are cut back to the
        rows they held when the call began (appends only go to the tail,
        and an add never compacts).
        """
        if not sheets:
            return
        base_id = len(self._reference_sheets)
        indexes = (self._sheet_index, self._formula_index)
        sizes = [len(index.vectors) for index in indexes]
        added: List[_ReferenceSheet] = []
        try:
            for sheet_id, (workbook_name, sheet) in enumerate(sheets, base_id):
                formulas, embeddings = self._formula_entries(sheet)
                # Embed every formula's parameter regions while this sheet's
                # feature tensor is hot, so online S3 re-grounding never has
                # to re-featurize a reference sheet.
                regions = self._reference_regions(sheet, self._parameter_cells(formulas))
                formula_rows = self._formula_index.add_batch(
                    [(sheet_id, local) for local in range(len(formulas))], embeddings
                )
                # One forward per sheet, as ``reindex_sheet`` and the query
                # side run it: a stacked forward rounds every row differently.
                [sheet_row] = self._sheet_index.add_batch(
                    [sheet_id], self._embed_sheet(sheet)[None, :]
                ).tolist()
                added.append(
                    _ReferenceSheet(workbook_name, sheet, formulas, regions, sheet_row, formula_rows)
                )
        except BaseException:
            for index, size in zip(indexes, sizes):
                index.truncate(size)
            raise
        for reference in added:
            self._register(reference)

    def _register(self, reference: Optional[_ReferenceSheet]) -> None:
        """Append ``reference`` to the registry under the next stable id."""
        sheet_id = len(self._reference_sheets)
        self._reference_sheets.append(reference)
        if reference is not None:
            self._workbook_sheet_ids.setdefault(reference.workbook_name, []).append(sheet_id)
            self._sheet_ids[id(reference.sheet)] = sheet_id

    def _formula_entries(self, sheet: Sheet) -> Tuple[List[_ReferenceFormula], np.ndarray]:
        """The sheet's formula cells as registry entries, with their
        center-blanked region embeddings (one forward pass)."""
        formula_cells = sheet.formula_cells()
        embeddings = self._embed_regions(
            sheet, *_coordinates([address for address, __ in formula_cells]), blank_center=True
        )
        formulas = [
            _ReferenceFormula(address, cell.formula or "")
            for address, cell in formula_cells
        ]
        return formulas, embeddings

    def _remove_rows(self, formula_rows: np.ndarray, sheet_rows: Sequence[int] = ()) -> None:
        """Tombstone index rows; a compaction's remap goes to the live
        registry entries."""
        formula_remap = self._formula_index.remove_batch(formula_rows)
        sheet_remap = self._sheet_index.remove_batch(sheet_rows)
        if formula_remap is None and sheet_remap is None:
            return  # no compaction: nothing walks the registry
        for reference in filter(None, self._reference_sheets):
            if formula_remap is not None:
                reference.formula_rows = formula_remap[reference.formula_rows]
            if sheet_remap is not None:
                reference.sheet_row = int(sheet_remap[reference.sheet_row])

    # ------------------------------------------------------- corpus mutation

    def add_workbooks(self, workbooks: Sequence[Union[Workbook, Sheet]]) -> int:
        """Index additional workbooks without refitting the existing corpus.

        Returns the number of sheets added.  Equivalent to a fresh
        :meth:`fit` on the old corpus followed by the new workbooks, with
        bit-identical predictions.
        """
        pairs = self._flatten(workbooks)
        self._index_sheets(pairs)
        return len(pairs)

    def add_workbook(self, workbook: Union[Workbook, Sheet]) -> int:
        """Index one additional workbook (see :meth:`add_workbooks`)."""
        return self.add_workbooks([workbook])

    def remove_workbook(self, workbook_name: str) -> int:
        """Remove every indexed sheet of ``workbook_name`` in place.

        Sheets are tombstoned out of the sheet and formula indexes (no
        refit); when an index compacts, the returned remap is applied to the
        rows the remaining registry entries own.  Returns the number of
        sheets removed and raises ``KeyError`` if the workbook is not
        indexed.
        """
        removed_ids = self._workbook_sheet_ids.get(workbook_name)
        if not removed_ids:
            raise KeyError(f"workbook {workbook_name!r} is not indexed")

        removed = [self._reference_sheets[sheet_id] for sheet_id in removed_ids]
        self._remove_rows(
            np.concatenate([reference.formula_rows for reference in removed]),
            [reference.sheet_row for reference in removed],
        )
        del self._workbook_sheet_ids[workbook_name]
        for sheet_id, reference in zip(removed_ids, removed):
            self._sheet_ids.pop(id(reference.sheet), None)
            self._reference_sheets[sheet_id] = None
        return len(removed_ids)

    def reindex_sheet(
        self, sheet: Sheet, trees: Optional[Mapping[CellAddress, object]] = None
    ) -> Dict[str, object]:
        """Re-index one reference sheet whose content was edited in place.

        Recomputes exactly what indexing computes for this one sheet — its
        S2 formula-region rows, the S3 block (:class:`_Regions`), its S1
        sheet vector — and writes the result over the rows the sheet already
        owns.  The sheet keeps its stable id and its place in the corpus, so
        answers equal a fresh :meth:`fit` on the same workbooks in the same
        order.

        When the formula list (addresses and texts) is what was indexed —
        every value edit — the formula rows are overwritten where they sit,
        the S3 block is rebuilt over the same cells in the same order (a
        restored sheet's block not built yet stays so) and the cached
        adaptation plans stay.  Otherwise the sheet's formula rows alone are
        replaced (tombstone + append: no answer depends on physical order in
        the formula index) and its block and plans are rebuilt.  The S1 row
        is overwritten either way.  Every forward runs before the first
        write, so one that raises leaves the sheet's rows and block as they
        were.

        Bit-safety rule: every forward pass here has the batch shape a
        fresh fit uses for this sheet — the fine prefix over the *whole*
        sheet tensor, then a row-wise gather and ``L2Normalize``; one sheet
        window through the sheet model, as indexing does for every sheet.
        Do not reduce only the cells an edit touched: BLAS picks its
        kernel from the operand shapes, and ``X[idx] @ W`` is not bitwise
        ``(X @ W)[idx]``.

        ``trees``: the sheet's parsed formulas, by address, as its engine
        holds them (:meth:`~repro.formula.engine.FormulaEngine.trees`).

        Returns ``n_formulas``, ``formulas_changed`` and ``n_store_cells``
        for the caller's span; raises ``KeyError`` if the sheet is not
        indexed.
        """
        sheet_id = self._sheet_ids.get(id(sheet))
        if sheet_id is None:
            raise KeyError(f"sheet {sheet.name!r} is not indexed")
        reference = self._reference_sheets[sheet_id]
        formulas, embeddings = self._formula_entries(sheet)
        changed = formulas != reference.formulas
        regions = reference.regions
        if changed:
            regions = self._reference_regions(sheet, self._parameter_cells(formulas, trees))
        elif regions is not None:  # the same cells in the same order
            regions = self._reference_regions(sheet, regions.cells)
        sheet_vector = self._embed_sheet(sheet)
        if changed:
            self._remove_rows(reference.formula_rows)
            reference.formula_rows = self._formula_index.add_batch(
                [(sheet_id, local) for local in range(len(formulas))], embeddings
            )
            reference.formulas, reference.plans = formulas, {}
        else:
            self._formula_index.update_batch(reference.formula_rows, embeddings)
        reference.regions = regions
        self._sheet_index.update_batch([reference.sheet_row], sheet_vector[None, :])
        return {
            "n_formulas": len(formulas),
            "formulas_changed": changed,
            "n_store_cells": 0 if regions is None else len(regions.cells),
        }

    @property
    def n_reference_sheets(self) -> int:
        """Number of indexed (live) reference sheets."""
        return sum(1 for reference in self._reference_sheets if reference is not None)

    @property
    def n_reference_formulas(self) -> int:
        """Number of indexed (live) reference formulas."""
        return sum(
            len(reference.formulas)
            for reference in self._reference_sheets
            if reference is not None
        )

    # ------------------------------------------------------------- persistence

    def snapshot_state(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """Export the fitted state as ``(manifest fragment, raw arrays)``.

        The manifest fragment is JSON-ready bookkeeping (reference-sheet
        registry with tombstones, the index kind for load-time validation);
        the arrays are the two indexes' contiguous stores plus the rows
        each registry entry owns, kept as raw blocks so a snapshot loader
        can memory-map them.  Embedding caches are deliberately *not*
        exported: both a fresh fit and a restored predictor compute
        query-time embeddings with identical batch shapes, so the caches
        are pure warm-up state.
        """
        state: Dict[str, object] = {
            "predictor": type(self).__name__,
            "granularity": self.config.granularity,
            "sheet_index_kind": _INDEX_KIND,
            "formula_index_kind": _INDEX_KIND,
            # Always true; a snapshot an older build wrote of a workspace
            # that never indexed a workbook says false and holds no arrays.
            "fitted": True,
            "sheet_store_size": len(self._sheet_index.vectors),
            "formula_store_size": len(self._formula_index.vectors),
            "reference_sheets": [
                None
                if reference is None
                else {
                    "workbook": reference.workbook_name,
                    "sheet": reference.sheet.name,
                    "formulas": [
                        [formula.address.to_a1(), formula.formula]
                        for formula in reference.formulas
                    ],
                }
                for reference in self._reference_sheets
            ],
        }
        arrays: Dict[str, np.ndarray] = {}
        for name, index in (("sheet", self._sheet_index), ("formula", self._formula_index)):
            for part, block in index.store_state().items():
                arrays[f"{name}_{part}"] = block
            arrays[f"{name}_keys"] = np.asarray(index._keys, dtype=np.int64)
        # ``(sheet id, formula)`` pairs, also when there are none.
        arrays["formula_keys"] = arrays["formula_keys"].reshape(-1, 2)
        references = self._reference_sheets
        arrays["sheet_positions"] = np.asarray(
            [-1 if reference is None else reference.sheet_row for reference in references],
            dtype=np.int64,
        )
        arrays["formula_positions_flat"] = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [reference.formula_rows for reference in filter(None, references)]
        )
        counts = [0 if ref is None else len(ref.formula_rows) for ref in references]
        arrays["formula_positions_offsets"] = np.cumsum([0] + counts, dtype=np.int64)
        return state, arrays

    def restore_snapshot_state(
        self,
        state: Dict[str, object],
        arrays: Dict[str, np.ndarray],
        resolve_sheet: Callable[[str, str], Sheet],
    ) -> None:
        """Adopt a :meth:`snapshot_state` export onto this (fresh) predictor.

        ``resolve_sheet`` maps ``(workbook name, sheet name)`` to the live
        :class:`Sheet` object of the restored corpus, so reference-sheet
        entries point at the same objects the owning workspace serves and
        edits.  The snapshot's granularity must match the configured one,
        and both its index kinds must be the exact index's: the stored
        vectors would load under any kind, but not reproduce the answers of
        a predictor that searched them approximately, and the store sizes
        the manifest records must be the restored matrices'.  Raises
        ``ValueError`` on any mismatch.
        """
        theirs = state.get("granularity")
        if theirs != self.config.granularity:
            raise ValueError(
                f"snapshot was taken with granularity={theirs!r}, this predictor "
                f"is configured with {self.config.granularity!r}"
            )
        for field in ("sheet_index_kind", "formula_index_kind"):
            kind = state.get(field)
            if str(kind).strip().lower() not in _INDEX_KIND_SPELLINGS:
                raise ValueError(
                    f"snapshot was taken with {field}={kind!r}, this predictor "
                    f"has only the {_INDEX_KIND!r} index"
                )
        self._reset()
        if not state.get("fitted", False):
            return  # an older build's snapshot of a never-indexed workspace
        # Key and position blocks may be memory maps: one ``tolist()`` per
        # block, not one ``__getitem__`` per row (keys stay Python ints).
        self._sheet_index.restore_store(
            arrays["sheet_keys"].tolist(),
            arrays["sheet_matrix"],
            arrays["sheet_sq_norms"],
            arrays["sheet_alive"],
        )
        self._formula_index.restore_store(
            [tuple(key) for key in arrays["formula_keys"].tolist()],
            arrays["formula_matrix"],
            arrays["formula_sq_norms"],
            arrays["formula_alive"],
        )
        for name, index in (("sheet", self._sheet_index), ("formula", self._formula_index)):
            size = int(state[f"{name}_store_size"])
            if size != len(index.vectors):
                raise ValueError(
                    f"snapshot manifest records {size} {name}-index rows, its "
                    f"matrix holds {len(index.vectors)}"
                )
        sheet_rows = arrays["sheet_positions"].tolist()
        offsets = arrays["formula_positions_offsets"].tolist()
        flat = np.array(arrays["formula_positions_flat"], dtype=np.int64)
        for sheet_id, entry in enumerate(state.get("reference_sheets", [])):
            if entry is None:
                self._register(None)
                continue
            sheet = resolve_sheet(str(entry["workbook"]), str(entry["sheet"]))
            self._register(
                _ReferenceSheet(
                    workbook_name=str(entry["workbook"]),
                    sheet=sheet,
                    formulas=[
                        _ReferenceFormula(CellAddress.from_a1(a1), formula)
                        for a1, formula in entry["formulas"]
                    ],
                    # Built on the sheet's first S3 use (see ``_regions``).
                    regions=None,
                    sheet_row=sheet_rows[sheet_id],
                    formula_rows=flat[offsets[sheet_id] : offsets[sheet_id + 1]],
                )
            )

    def memory_stats(self) -> Dict[str, object]:
        """Resident-byte accounting of both vector indexes (JSON-ready).

        See :meth:`repro.ann.VectorIndex.memory_stats`; ``total_bytes``
        sums both indexes.
        """
        sheet = self._sheet_index.memory_stats()
        formula = self._formula_index.memory_stats()
        total = int(sheet["bytes"]["total"]) + int(formula["bytes"]["total"])  # type: ignore[index]
        return {"sheet_index": sheet, "formula_index": formula, "total_bytes": total}

    @property
    def sheet_index(self):
        """The S1 sheet-level vector index."""
        return self._sheet_index

    @property
    def formula_index(self):
        """The S2 formula-region vector index."""
        return self._formula_index

    # ----------------------------------------------------------------- online

    def predict(self, target_sheet: Sheet, target_cell: CellAddress) -> Optional[Prediction]:
        """Run S1 -> S2 -> S3 and return a prediction (or ``None`` to abstain)."""
        return self.predict_batch(target_sheet, [target_cell])[0]

    def predict_batch(
        self, target_sheet: Sheet, target_cells: Sequence[CellAddress]
    ) -> List[Optional[Prediction]]:
        """Predict every target cell of one sheet, sharing the per-sheet work.

        S1 runs once, all target regions are featurized and encoded in one
        forward pass, and S2 scores the whole batch against the candidate
        formula pool with a single matrix product.
        """
        cells = list(target_cells)
        if not cells:
            return []
        # S1: similar-sheet search over the coarse index (once per sheet).
        hits = self.sheet_hits(target_sheet)
        if not hits:
            return [None] * len(cells)
        # S2 + S3 over the hit sheets' formula pools, in hit order so
        # distance ties resolve toward the most similar sheet.
        scored = self.predict_batch_scored(
            target_sheet, cells, [int(hit.key) for hit in hits]
        )
        return [item.prediction if item is not None else None for item in scored]

    def sheet_query_vector(self, target_sheet: Sheet) -> np.ndarray:
        """The S1 query-side embedding of a target sheet.

        Cached by sheet identity + mutation version, so repeated requests
        for the same sheet within and across batches encode once and an
        edited sheet re-encodes; reference sheets go through the same
        :meth:`_embed_sheet` uncached.  Exposed so a staged caller can embed
        the query *once* and pass it to :meth:`sheet_hits` (of this or any
        other predictor over the same encoder: the vector depends only on
        the encoder).
        """
        vector = self._query_vector_cache.get(target_sheet)
        if vector is None:
            vector = self._embed_sheet(target_sheet)
            vector.flags.writeable = False
            vector = self._query_vector_cache.put(target_sheet, vector)
        return vector

    def region_query_vectors(
        self, target_sheet: Sheet, target_cells: Sequence[CellAddress]
    ) -> np.ndarray:
        """The S2 query-side embeddings of the target cells (center-blanked).

        The counterpart of :meth:`sheet_query_vector` for
        :meth:`predict_batch_scored`'s ``target_vectors`` argument.  A
        cell's vector does not depend on the cells asked beside it: under
        the coarse-only ablation, whose forward rounds a window's row
        differently in another batch, each cell goes through a forward of
        its own.
        """
        rows, cols = _coordinates(list(target_cells))
        if self.config.granularity != "coarse_only" or len(rows) < 2:
            return self._embed_regions(target_sheet, rows, cols, blank_center=True)
        return np.concatenate(
            [
                self._embed_regions(target_sheet, row, col, blank_center=True)
                for row, col in zip(rows[:, None], cols[:, None])
            ]
        )

    def sheet_hits(
        self,
        target_sheet: Sheet,
        k: Optional[int] = None,
        query_vector: Optional[np.ndarray] = None,
    ) -> List[SearchResult]:
        """S1 as a standalone stage: the (up to) ``k`` most similar indexed
        reference sheets, most similar first.

        Hit keys are *stable sheet ids* usable with
        :meth:`predict_batch_scored`.  ``k`` defaults to the configured
        ``top_k_sheets``; ``query_vector`` takes a once-computed
        :meth:`sheet_query_vector` instead of re-embedding the sheet.
        """
        if len(self._sheet_index) == 0:
            return []
        with get_tracer().span(
            "s1.sheet_hits", k=self.config.top_k_sheets if k is None else k
        ) as span:
            if query_vector is None:
                query_vector = self.sheet_query_vector(target_sheet)
            hits = self._sheet_index.search(
                query_vector, k=self.config.top_k_sheets if k is None else k
            )
            span.set_attribute("n_hits", len(hits))
            return hits

    def _live_reference(self, sheet_id: int) -> _ReferenceSheet:
        reference = self._reference_sheets[int(sheet_id)]
        if reference is None:
            raise KeyError(f"reference sheet {sheet_id} has been removed")
        return reference

    def reference_sheet(
        self, sheet_id: int
    ) -> Tuple[str, Sheet, Tuple[Tuple[CellAddress, str], ...]]:
        """The indexed sheet with stable id ``sheet_id`` (a :meth:`sheet_hits`
        key): its workbook name, the sheet, and its ``(address, formula)``
        pairs in formula order, the order
        :attr:`ScoredPrediction.formula_index` counts in.  Raises
        ``KeyError`` if the sheet has been removed."""
        reference = self._live_reference(sheet_id)
        return reference.workbook_name, reference.sheet, tuple(reference.formulas)

    def predict_batch_scored(
        self,
        target_sheet: Sheet,
        target_cells: Sequence[CellAddress],
        sheet_ids: Sequence[int],
        target_vectors: Optional[np.ndarray] = None,
        adapt: bool = True,
    ) -> List[Optional[ScoredPrediction]]:
        """S2 (+ optionally S3) restricted to the given reference sheets.

        ``sheet_ids`` are stable sheet ids (e.g. from :meth:`sheet_hits`),
        in candidate-priority order: the S2 pool is the concatenation of
        their formula regions in that order, so distance ties break toward
        earlier sheets exactly as in :meth:`predict_batch`.  Returns one
        :class:`ScoredPrediction` per target cell (``None`` when the pool
        is empty), carrying the best hit's distance and pool coordinates so
        bests from disjoint sheet subsets can be merged deterministically.

        ``target_vectors`` optionally carries the query-side region
        embeddings (see :meth:`region_query_vectors`) so a caller scoring
        one batch against several sheet subsets encodes the targets once.
        With ``adapt=False`` the expensive S3 re-grounding is skipped and
        every returned ``prediction`` is ``None``: the caller first merges
        the per-subset bests, then runs :meth:`adapt_batch` only on each
        cell's winner instead of adapting every losing candidate.
        Raises ``KeyError`` if a sheet id refers to a removed sheet.
        """
        cells = list(target_cells)
        if not cells:
            return []
        if target_vectors is not None and len(target_vectors) != len(cells):
            raise ValueError(
                f"{len(target_vectors)} target vectors for {len(cells)} cells"
            )
        rank_of: Dict[int, int] = {}
        pools: List[np.ndarray] = []
        for rank, sheet_id in enumerate(sheet_ids):
            rank_of[int(sheet_id)] = rank
            pools.append(self._live_reference(sheet_id).formula_rows)
        pool = np.concatenate([np.empty(0, dtype=np.int64)] + pools)
        if pool.size == 0:
            return [None] * len(cells)

        # S2: one matmul scoring all target regions against the pool.
        with get_tracer().span(
            "s2.score", n_cells=len(cells), pool_size=int(pool.size), adapt=adapt
        ):
            if target_vectors is None:
                target_vectors = self.region_query_vectors(target_sheet, cells)
            hit_lists = self._formula_index.search_batch(target_vectors, k=1, positions=pool)

        results: List[Optional[ScoredPrediction]] = []
        winners: List[Tuple[CellAddress, int, int, float]] = []
        winner_positions: List[int] = []
        for target_cell, hits in zip(cells, hit_lists):
            if not hits:
                results.append(None)
                continue
            distance = hits[0].distance
            sheet_id, local = hits[0].key
            if adapt and distance <= self.config.acceptance_threshold:
                winner_positions.append(len(results))
                winners.append((target_cell, int(sheet_id), int(local), distance))
            results.append(ScoredPrediction(None, distance, rank_of[int(sheet_id)], int(local)))
        if winners:
            # S3 on the accepted hits, through the staged entry point.
            for position, prediction in zip(
                winner_positions, self.adapt_batch(target_sheet, winners)
            ):
                results[position] = replace(results[position], prediction=prediction)
        return results

    def adapt_batch(
        self,
        target_sheet: Sheet,
        items: Sequence[Tuple[CellAddress, int, int, float]],
    ) -> List[Optional[Prediction]]:
        """S3 re-grounding for already-chosen S2 winners.

        Each item is ``(target cell, stable sheet id, formula index, S2
        distance)`` — what a staged caller knows about a cell's winning
        hit after merging :meth:`predict_batch_scored` results.
        Returns the finished predictions (``None`` where re-grounding
        fails), identical to what the un-split pipeline would produce:
        :meth:`predict_batch_scored` adapts its own winners through this
        method.  The caller is responsible for the acceptance-threshold
        check.
        """
        with get_tracer().span("s3.adapt", n_items=len(items)) as span:
            if not items:
                return []
            predictions: List[Optional[Prediction]] = []
            n_params = n_candidates = n_reranked = 0
            for target_cell, sheet_id, local, distance in items:
                reference = self._reference_sheets[int(sheet_id)]
                reference_formula = reference.formulas[int(local)]
                regions = self._regions(reference)
                plan = self._adaptation_plan(reference, int(local), regions)
                if plan is None:
                    predictions.append(None)
                    continue
                mapped, candidates, reranked = self._map_parameters(
                    regions, plan, target_sheet, target_cell
                )
                n_params += len(mapped)
                n_candidates += candidates
                n_reranked += reranked
                try:
                    formula = plan.instantiate(mapped)
                except ValueError:
                    predictions.append(None)
                    continue
                predictions.append(
                    Prediction(
                        formula=formula,
                        confidence=max(0.0, 1.0 - distance / 4.0),
                        details={
                            "reference_workbook": reference.workbook_name,
                            "reference_sheet": reference.sheet.name,
                            "reference_cell": reference_formula.address.to_a1(),
                            "reference_formula": reference_formula.formula,
                            "s2_distance": distance,
                        },
                    )
                )
            self._candidates_scored.inc(n_candidates)
            self._candidates_reranked.inc(n_reranked)
            span.set_attribute("n_params", n_params)
            span.set_attribute("n_candidates", n_candidates)
            span.set_attribute("n_reranked", n_reranked)
            return predictions

    # --------------------------------------------------------------------- S3

    @staticmethod
    def _adaptation_plan(
        reference: _ReferenceSheet, local: int, regions: _Regions
    ) -> Optional[_AdaptationPlan]:
        """The plan of one reference formula, built on first use from the
        sheet's block ``regions`` (``None`` for a formula that does not
        parse)."""
        plan = reference.plans.get(local, _UNSET)
        if plan is not _UNSET:
            return plan
        try:
            ast = parse_formula(reference.formulas[local].formula)
        except FormulaSyntaxError:
            reference.plans[local] = None
            return None
        references = formula_references(ast)
        unique = _reference_parameter_cells(references)
        index_of = {cell: index for index, cell in enumerate(unique)}
        cells = [(cell.row, cell.col) for cell in unique]
        plan = _AdaptationPlan(
            formula_cell=reference.formulas[local].address,
            ast=ast,
            references=[
                (index_of[item.start], index_of[item.end])
                if isinstance(item, RangeAddress)
                else (index_of[item],)
                for item in references
            ],
            cells=cells,
            slots=regions.positions(cells),
        )
        reference.plans[local] = plan
        return plan

    def _map_parameters(
        self,
        regions: _Regions,
        plan: _AdaptationPlan,
        target_sheet: Sheet,
        target_cell: CellAddress,
    ) -> Tuple[List[CellAddress], int, int]:
        """Map each unique parameter cell of ``plan`` into the target sheet.

        Also returns the number of candidates scored and how many of them
        were re-ranked (:func:`~repro.ann.base.closest_in_blocks`).

        The primary anchor translates the parameter by the displacement
        between the reference formula cell and the target cell (Algorithm 2
        lines 24-25).  A secondary anchor keeps the parameter's absolute
        location, which recovers parameters tied to the *top* of a table
        (range starts just under a header) when the two sheets differ in row
        count by more than the search neighborhood.  Among all neighborhood
        candidates of both anchors, the cell whose fine-grained region is
        most similar to the region around the reference parameter wins; a
        small locality penalty breaks embedding ties in favour of the
        nearest anchor.
        """
        row_delta = target_cell.row - plan.formula_cell.row
        col_delta = target_cell.col - plan.formula_cell.col
        extent = (target_sheet.n_rows, target_sheet.n_cols)
        reach = (self.config.neighborhood_rows, self.config.neighborhood_cols)
        anchors = [
            ((row + row_delta, col + col_delta), (row, col)) for row, col in plan.cells
        ]
        mapped = [CellAddress(max(moved[0], 0), max(moved[1], 0)) for moved, __ in anchors]
        candidates = [_parameter_candidates(pair, extent, reach) for pair in anchors]
        found = [index for index, cells in enumerate(candidates) if cells is not None]
        if not found:
            return mapped, 0, 0
        parts = [candidates[index] for index in found]
        # ||r||^2 comes from the block as it is now: a value edit replaces
        # the block under plans that stay.
        slots = plan.slots[found]
        references, reference_sq_norms = regions.rows[slots], regions.norms[slots]
        penalties = self.config.locality_penalty * np.concatenate(
            [part.steps for part in parts]
        ).astype(np.float32)
        lengths = [part.steps.size for part in parts]
        sq_norms, cross, vectors_of = self._tier1_terms(target_sheet, parts, references, lengths)
        best, n_reranked = closest_in_blocks(
            sq_norms, cross, references, reference_sq_norms, penalties, lengths, vectors_of
        )
        for index, part, position in zip(found, parts, best):
            mapped[index] = part.cell(position)
        return mapped, len(penalties), n_reranked

    def _tier1_terms(
        self,
        target_sheet: Sheet,
        parts: Sequence[_Candidates],
        references: np.ndarray,
        lengths: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray, Callable[[int, np.ndarray], np.ndarray]]:
        """``(sq_norms, cross, vectors_of)`` of every candidate of ``parts``
        (part ``i`` scored against ``references[i]``), for
        :func:`~repro.ann.base.closest_in_blocks`.

        Under the fine fast path both terms come off the target's reduced
        tensor (:meth:`~repro.models.SheetEncoder.region_products`), and
        only the cells a slice keeps are embedded.  Otherwise — the
        coarse-only ablation, a sheet over the densification budget — the
        formula's candidates are embedded in one call and scored as rows.
        """
        pieces = [(piece, index) for index, part in enumerate(parts) for piece in part.pieces]
        products = None
        if self.config.granularity != "coarse_only":
            products = self.encoder.region_products(
                target_sheet,
                [piece.bounds for piece, __ in pieces],
                references[[index for __, index in pieces]],
            )
        if products is not None:
            cross, sq_norms = products
            if any(piece.keep is not None for piece, __ in pieces):
                # The terms cover whole rectangles; a second rectangle's
                # candidates are its cells outside the first.
                starts = np.cumsum([0] + [piece.area for piece, __ in pieces])
                chosen = np.concatenate(
                    [start + piece.offsets() for (piece, __), start in zip(pieces, starts)]
                )
                cross, sq_norms = cross[chosen], sq_norms[chosen]

            def vectors_of(index: int, kept: np.ndarray) -> np.ndarray:
                rows, cols = parts[index].cells()
                return self._embed_regions(target_sheet, rows[kept], cols[kept])

            return sq_norms, cross, vectors_of
        rows, cols = (np.concatenate(axis) for axis in zip(*(part.cells() for part in parts)))
        # One call for the whole formula: its rows are a function of the
        # request, whatever other requests embedded before it.
        vectors = self._embed_regions(target_sheet, rows, cols)
        starts = np.cumsum([0] + list(lengths))
        cross = np.concatenate(
            [
                vectors[start:stop] @ reference
                for start, stop, reference in zip(starts, starts[1:], references)
            ]
        )
        return (
            np.einsum("ij,ij->i", vectors, vectors),
            cross,
            lambda index, kept: vectors[starts[index] + kept],
        )
