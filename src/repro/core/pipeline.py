"""The end-to-end Auto-Formula predictor (Algorithm 2)."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.ann import SearchResult, VectorIndex
from repro.ann.base import RowStore, closest_in_blocks
from repro.core.config import AutoFormulaConfig
from repro.core.interface import FormulaPredictor, Prediction
from repro.features.window import MAX_CACHED_TARGET_SHEETS, sheet_cache
from repro.formula.ast_nodes import ASTNode
from repro.formula.parser import parse_formula
from repro.formula.template import fill_template, formula_references, template_pieces
from repro.formula.tokenizer import FormulaSyntaxError
from repro.models.encoder import SheetEncoder
from repro.obs import Counter, get_tracer
from repro.sheet.addressing import CellAddress, RangeAddress, cell_a1
from repro.sheet.sheet import Sheet, SheetEdit
from repro.sheet.workbook import Workbook

_UNSET = object()

#: What a snapshot manifest records as the kind of both indexes, and every
#: spelling of it a restore accepts (any case, surrounding whitespace
#: aside): snapshots of predictors that could pick an index kind wrote
#: these, and any other kind's answers differ from this predictor's.
_INDEX_KIND = "exact"
_INDEX_KIND_SPELLINGS = frozenset({"exact", "flat", "brute"})


def _coordinates(cells: Iterable[Tuple[int, int]]) -> np.ndarray:
    """``(row, col)`` cells (addresses among them, or an array of them) as
    a new ``(n, 2)`` int64 array: ``np.array`` of tuple subclasses probes
    each one as a sequence, ``fromiter`` over their coordinates is 4x
    faster."""
    if isinstance(cells, np.ndarray):
        return cells.astype(np.int64).reshape(-1, 2)
    return np.fromiter(chain.from_iterable(cells), np.int64).reshape(-1, 2)


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
            if cell not in seen:
                seen.add(cell)
                cells.append(cell)
    return cells


class _Candidates(NamedTuple):
    """The S3 candidates of a group's parameters (see :func:`_candidates`).

    Each parameter that has candidates owns a block of one or two boxes of
    one shape, laid out as ``(block, box, row, col)`` arrays: its
    candidates are the set cells of ``mask``, in that order."""

    #: The parameters that have candidates, one per block.
    found: List[int]
    #: Top-left cell of each box, ``(block, box, 2)``; ``boxes`` lists the
    #: boxes that hold candidates, as ``(block, box)`` flattened.
    origins: np.ndarray
    boxes: np.ndarray
    shape: Tuple[int, int]
    mask: np.ndarray
    #: Manhattan distance from each cell of the boxes to its parameter's
    #: nearer anchor (float32).
    steps: np.ndarray

    def cells(self, blocks: np.ndarray, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rows and columns of the cells at ``positions`` (flat over a
        block's boxes) of ``blocks``."""
        box, position = np.divmod(positions, self.shape[0] * self.shape[1])
        row, col = np.divmod(position, self.shape[1])
        origin = self.origins[blocks, box]
        return origin[:, 0] + row, origin[:, 1] + col


def _candidates(
    anchors: Sequence[Tuple[int, int, int, int]], extent: Tuple[int, int], reach: Tuple[int, int]
) -> _Candidates:
    """The S3 candidates of parameters with anchors ``(moved row, moved
    col, own row, own col)``: translated, then absolute.

    An anchor's neighborhood is the +/- ``reach`` rectangle clamped to a
    sheet of ``extent`` rows x columns (an empty axis still has cell 0, so
    a 0x0 sheet has the one candidate ``(0, 0)``); a parameter whose two
    rectangles both miss the sheet has no candidates.  The first anchor's
    rectangle comes row-major (the second's, when the first misses), then
    the cells of the second that lie outside the first.  That is the
    first-occurrence order of the two rectangles enumerated one after the
    other, so equal scores keep resolving toward the primary anchor,
    top-left first.

    Each rectangle lies in a box of one shape — ``2 * reach + 1`` cells a
    side, or the whole axis when that is shorter — placed inside the
    sheet, and is a mask of it: a block's first box masks its first
    rectangle, its second box the second rectangle's cells outside the
    first (none when the anchors coincide), so the set cells of a block,
    box after box and row-major, are its candidates in order.
    """
    last_row, last_col = max(extent[0], 1) - 1, max(extent[1], 1) - 1
    shape = (min(2 * reach[0] + 1, last_row + 1), min(2 * reach[1] + 1, last_col + 1))
    # The last corner at which a box still lies inside the sheet.
    top, left = last_row + 1 - shape[0], last_col + 1 - shape[1]
    found: List[int] = []
    #: Per block, per box: its corner, then the two anchors' offsets from it.
    corners: List[List[Tuple[int, ...]]] = []
    #: (block, box, corner row, corner col, rectangle, rectangle left out).
    pieces: List[Tuple[int, int, int, int, Tuple[int, ...], Optional[Tuple[int, ...]]]] = []
    for index, (moved_row, moved_col, own_row, own_col) in enumerate(anchors):
        rectangles = []
        for row, col in ((moved_row, moved_col), (own_row, own_col)):
            row_lo, row_hi = max(row - reach[0], 0), min(row + reach[0], last_row)
            col_lo, col_hi = max(col - reach[1], 0), min(col + reach[1], last_col)
            if row_lo <= row_hi and col_lo <= col_hi:
                rectangles.append((row_lo, row_hi, col_lo, col_hi))
        if not rectangles:
            continue
        block = len(found)
        found.append(index)
        first = rectangles[0]
        boxes = [(first, None)]
        if len(rectangles) == 2:
            second = rectangles[1]
            # Coincident anchors (a target cell where the reference formula
            # sits) give the same rectangle twice: nothing outside the first.
            if second[0] < first[0] or second[1] > first[1] or second[2] < first[2] or second[3] > first[3]:
                boxes.append((second, first))
        corners.append([])
        for box, (bounds, outside) in enumerate(boxes):
            row, col = min(bounds[0], top), min(bounds[2], left)
            pieces.append((block, box, row, col, bounds, outside))
            corners[-1].append((row, col, moved_row - row, moved_col - col, own_row - row, own_col - col))
    # Two boxes a block when any block has a second rectangle, else one; a
    # block without one keeps an empty second box at its first's corner.
    n_boxes = 2 if len(pieces) > len(found) else 1
    mask = np.zeros((n_boxes * len(found),) + shape, dtype=bool)
    for block, box, row, col, bounds, outside in pieces:
        slot = n_boxes * block + box
        mask[slot, bounds[0] - row : bounds[1] - row + 1, bounds[2] - col : bounds[3] - col + 1] = True
        if outside is not None:  # clamped: a negative bound would count from the end
            mask[
                slot,
                max(outside[0] - row, 0) : max(outside[1] - row + 1, 0),
                max(outside[2] - col, 0) : max(outside[3] - col + 1, 0),
            ] = False
    table = np.array(
        [value for boxes in corners for box in range(n_boxes) for value in boxes[box % len(boxes)]],
        dtype=np.int64,
    ).reshape(-1, 6)
    # A box cell's distance to an anchor, from the anchor's offsets from the
    # box's corner: |row - anchor row| + |col - anchor col|; the nearer one.
    rows = np.abs(np.subtract.outer(table[:, 2::2], np.arange(shape[0]), dtype=np.float32))
    cols = np.abs(np.subtract.outer(table[:, 3::2], np.arange(shape[1]), dtype=np.float32))
    distances = rows[:, :, :, None] + cols[:, :, None, :]
    layout = (len(found), n_boxes) + shape
    return _Candidates(
        found=found,
        origins=table[:, :2].reshape(len(found), n_boxes, 2),
        boxes=np.array([n_boxes * block + box for block, box, *__ in pieces], dtype=np.int64),
        shape=shape,
        mask=mask.reshape(layout),
        steps=np.minimum(distances[:, 0], distances[:, 1]).reshape(layout),
    )


class _Run(NamedTuple):
    """:func:`~repro.ann.base.closest_in_blocks`'s arguments for S3's jobs
    on one target sheet that have candidates, a row per block of their
    :class:`_Candidates` (or for several runs' rows, :func:`_merged`)."""

    #: :meth:`AutoFormula._tier1_terms` of the run.
    sq_norms: np.ndarray
    cross: np.ndarray
    references: np.ndarray
    reference_sq_norms: np.ndarray
    penalties: np.ndarray
    mask: np.ndarray
    vectors_of: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _merged(runs: Sequence[_Run]) -> _Run:
    """Several runs' rows as one run, in order: the rows of each padded on
    the right to the widest run with cells that are no candidate, in the
    float type that holds every run's terms (a row's choice depends on
    nothing but the row)."""
    width = max(run.mask.shape[1] for run in runs)
    offsets = list(accumulate((len(run.mask) for run in runs), initial=0))

    def padded(blocks: Sequence[np.ndarray]) -> np.ndarray:
        rows = np.zeros((offsets[-1], width), np.result_type(*blocks))
        for block, offset in zip(blocks, offsets):
            rows[offset : offset + len(block), : block.shape[1]] = block
        return rows

    def vectors_of(rows: np.ndarray, positions: np.ndarray) -> np.ndarray:
        # ``rows`` ascend: each run's rows are one slice of them.
        bounds = np.searchsorted(rows, offsets).tolist()
        return np.concatenate(
            [
                run.vectors_of(rows[lo:hi] - offset, positions[lo:hi])
                for run, offset, lo, hi in zip(runs, offsets, bounds, bounds[1:])
                if lo < hi
            ]
        )

    columns = list(zip(*runs))
    return _Run(
        padded(columns[0]),
        padded(columns[1]),
        np.concatenate(columns[2]),
        np.concatenate(columns[3]),
        padded(columns[4]),
        padded(columns[5]),
        vectors_of,
    )


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

    ``cells`` are the unique parameter cells, an ``(n, 2)`` array of
    ``(row, col)``, and ``slots`` their rows in the owning reference sheet's
    :class:`_Regions` (an edit that keeps the formula list keeps every
    cell's row); ``references`` lists the formula's parameters in template
    order, each as indexes into ``cells``: one for a cell, two (start, end)
    for a range.
    """

    formula_cell: CellAddress
    #: The formula's text around its parameters (:func:`template_pieces`).
    pieces: Tuple[str, ...]
    references: List[Tuple[int, ...]]
    cells: np.ndarray
    slots: np.ndarray

    def instantiate(self, mapped: Sequence[Tuple[int, int]]) -> str:
        """The formula with ``cells[i]`` re-grounded to the cell
        ``mapped[i]`` (``(row, col)``); a range is written start:end with
        start <= end on both axes, as :class:`RangeAddress` normalizes it."""
        texts = []
        for ends in self.references:
            if len(ends) == 1:
                texts.append(cell_a1(*mapped[ends[0]]))
            else:
                (start_row, start_col), (end_row, end_col) = mapped[ends[0]], mapped[ends[1]]
                texts.append(
                    cell_a1(min(start_row, end_row), min(start_col, end_col))
                    + ":"
                    + cell_a1(max(start_row, end_row), max(start_col, end_col))
                )
        return fill_template(self.pieces, texts)


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
        cells = _coordinates(cells)
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
    ) -> List[CellAddress]:
        """Unique cells referenced as parameters by any of
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
        return _reference_parameter_cells(references)

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
        rows, cols = _coordinates(address for address, __ in formula_cells).T
        embeddings = self._embed_regions(sheet, rows, cols, blank_center=True)
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
        self,
        sheet: Sheet,
        trees: Optional[Mapping[CellAddress, object]] = None,
        edit: Optional[SheetEdit] = None,
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
        the formula index) and its block and plans are rebuilt.  Every
        forward runs before the first write, so one that raises leaves the
        sheet's rows and block as they were.

        ``edit`` (the workspace passes it; ``None`` assumes nothing) says
        which cells changed since the version the index holds.  Two things
        an edit cannot have changed are reused, each byte-identical to what
        recomputing it gives:

        * **The padded feature tensor** (``tensor_patched``).  When the
          featurizer holds it at ``edit.version`` and the extent did not
          move, it is copied and only ``edit.cells`` are re-featurized
          (:meth:`~repro.features.window.WindowFeaturizer.patch_tensor`):
          a cell's features are a function of that cell alone.
        * **The S1 row** (``s1_skipped``).  When no cell of ``edit.cells``
          lies in the sheet window and the extent did not move, the window
          the sheet model reads is the one it read for the row the index
          holds, so the row is kept and the model does not run.

        Bit-safety rule: every forward pass that does run has the batch
        shape a fresh fit uses for this sheet — the fine prefix over the
        *whole* sheet tensor, then a row-wise gather and ``L2Normalize``;
        one sheet window through the sheet model, as indexing does for
        every sheet.  Do not reduce only the cells an edit touched: BLAS
        picks its kernel from the operand shapes, and ``X[idx] @ W`` is not
        bitwise ``(X @ W)[idx]``.

        ``trees``: the sheet's parsed formulas, by address, as its engine
        holds them (:meth:`~repro.formula.engine.FormulaEngine.trees`).

        Returns ``n_formulas``, ``formulas_changed``, ``n_store_cells``,
        ``tensor_patched`` and ``s1_skipped`` for the caller's span; raises
        ``KeyError`` if the sheet is not indexed.
        """
        sheet_id = self._sheet_ids.get(id(sheet))
        if sheet_id is None:
            raise KeyError(f"sheet {sheet.name!r} is not indexed")
        reference = self._reference_sheets[sheet_id]
        featurizer = self.encoder.featurizer
        tensor_patched = edit is not None and featurizer.patch_tensor(sheet, edit)
        s1_skipped = (
            edit is not None
            and (edit.n_rows, edit.n_cols) == (sheet.n_rows, sheet.n_cols)
            and not featurizer.in_sheet_window(edit.cells)
        )
        formulas, embeddings = self._formula_entries(sheet)
        changed = formulas != reference.formulas
        regions = reference.regions
        if changed:
            regions = self._reference_regions(sheet, self._parameter_cells(formulas, trees))
        elif regions is not None:  # the same cells in the same order
            regions = self._reference_regions(sheet, regions.cells)
        sheet_vector = None if s1_skipped else self._embed_sheet(sheet)
        if changed:
            self._remove_rows(reference.formula_rows)
            reference.formula_rows = self._formula_index.add_batch(
                [(sheet_id, local) for local in range(len(formulas))], embeddings
            )
            reference.formulas, reference.plans = formulas, {}
        else:
            self._formula_index.update_batch(reference.formula_rows, embeddings)
        reference.regions = regions
        if sheet_vector is not None:
            self._sheet_index.update_batch([reference.sheet_row], sheet_vector[None, :])
        return {
            "n_formulas": len(formulas),
            "formulas_changed": changed,
            "n_store_cells": 0 if regions is None else len(regions.cells),
            "tensor_patched": tensor_patched,
            "s1_skipped": s1_skipped,
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
        """Predict every target cell of one sheet: :meth:`predict_sheets`
        of one sheet."""
        return self.predict_sheets([(target_sheet, target_cells)])[0]

    def predict_sheets(
        self, batches: Sequence[Tuple[Sheet, Sequence[CellAddress]]]
    ) -> List[List[Optional[Prediction]]]:
        """Predict the cells of several target sheets in one pass.

        S1 is one sheet-index search over the stacked query vectors of all
        the sheets.  S2 embeds every target region in one call and scores,
        in one formula-index call, each sheet's cells against the formula
        pool of that sheet's own hit sheets, in hit order so distance ties
        resolve toward the most similar sheet.  S3 re-grounds every
        accepted winner of every sheet in one pass.  Each of these steps is
        row-independent, so every answer is the one its sheet gets alone.
        """
        batches = [(sheet, list(cells)) for sheet, cells in batches]
        asked = [batch for batch in batches if batch[1]]
        hits = self._sheet_hits_of([sheet for sheet, __ in asked])
        groups = [
            (sheet, cells, [int(hit.key) for hit in sheet_hits])
            for (sheet, cells), sheet_hits in zip(asked, hits)
            if sheet_hits
        ]
        # Keyed by the cell lists made above, one per batch.
        scored = {
            id(cells): items for (__, cells, __), items in zip(groups, self._score_groups(groups))
        }
        return [
            [None if item is None else item.prediction for item in scored[id(cells)]]
            if id(cells) in scored
            else [None] * len(cells)
            for __, cells in batches
        ]

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
        cell's vector does not depend on the cells asked beside it, on this
        sheet or another (see :meth:`_region_queries`).
        """
        return self._region_queries([(target_sheet, target_cells)])

    def _region_queries(
        self, groups: Sequence[Tuple[Sheet, Sequence[CellAddress]]]
    ) -> np.ndarray:
        """The S2 query-side embeddings of every ``(sheet, cells)`` group,
        stacked in order, from one :meth:`~repro.models.SheetEncoder.embed_region_groups`
        call: under the fine fast path a gather per sheet and one row-wise
        normalisation.  Under the coarse-only ablation, whose forward rounds
        a window's row differently in another batch, each cell goes through
        a forward of its own."""
        parts = []
        for sheet, cells in groups:
            rows, cols = _coordinates(cells).T
            if self.config.granularity == "coarse_only":
                parts.extend((sheet, row, col) for row, col in zip(rows[:, None], cols[:, None]))
            else:
                parts.append((sheet, rows, cols))
        return self.encoder.embed_region_groups(
            parts, blank_center=True, coarse=self.config.granularity == "coarse_only"
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
        queries = None if query_vector is None else np.asarray(query_vector).reshape(1, -1)
        return self._sheet_hits_of([target_sheet], k, queries)[0]

    def _sheet_hits_of(
        self, sheets: Sequence[Sheet], k: Optional[int] = None, queries: Optional[np.ndarray] = None
    ) -> List[List[SearchResult]]:
        """:meth:`sheet_hits` of every sheet, from one search over their
        stacked query vectors (``queries``, when the caller has them)."""
        if not sheets or len(self._sheet_index) == 0:
            return [[] for __ in sheets]
        k = self.config.top_k_sheets if k is None else k
        with get_tracer().span("s1.sheet_hits", k=k, n_sheets=len(sheets)) as span:
            if queries is None:
                vectors = [self.sheet_query_vector(sheet) for sheet in sheets]
                queries = vectors[0][None, :] if len(vectors) == 1 else np.stack(vectors)
            hits = self._sheet_index.search_batch(queries, k=k)
            span.set_attribute("n_hits", sum(len(sheet_hits) for sheet_hits in hits))
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
        if target_vectors is not None and len(target_vectors) != len(cells):
            raise ValueError(
                f"{len(target_vectors)} target vectors for {len(cells)} cells"
            )
        return self._score_groups([(target_sheet, cells, sheet_ids)], target_vectors, adapt)[0]

    def _score_groups(
        self,
        groups: Sequence[Tuple[Sheet, List[CellAddress], Sequence[int]]],
        target_vectors: Optional[np.ndarray] = None,
        adapt: bool = True,
    ) -> List[List[Optional[ScoredPrediction]]]:
        """:meth:`predict_batch_scored` of every ``(sheet, cells, sheet ids)``
        group: one embedding call, one formula-index call scoring each
        group's cells against its own pool, and one S3 pass over every
        group's accepted winners.  ``target_vectors``, the staged caller's
        embeddings, come with a single group."""
        results: List[List[Optional[ScoredPrediction]]] = [
            [None] * len(cells) for __, cells, __ in groups
        ]
        ranks: List[Dict[int, int]] = []
        pools: List[np.ndarray] = []
        for __, __, sheet_ids in groups:
            rank_of: Dict[int, int] = {}
            rows: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
            for rank, sheet_id in enumerate(sheet_ids):
                rank_of[int(sheet_id)] = rank
                rows.append(self._live_reference(sheet_id).formula_rows)
            ranks.append(rank_of)
            pools.append(np.concatenate(rows))
        scored = [group for group, pool in enumerate(pools) if pool.size and groups[group][1]]
        if not scored:
            return results

        # S2: one formula-index call, each group's rows against its pool.
        searched = [(len(groups[group][1]), pools[group]) for group in scored]
        with get_tracer().span(
            "s2.score",
            n_cells=sum(n for n, __ in searched),
            pool_size=sum(pool.size for __, pool in searched),
            adapt=adapt,
        ):
            if target_vectors is None:
                target_vectors = self._region_queries([groups[group][:2] for group in scored])
            hit_lists = iter(self._formula_index.search_groups(target_vectors, searched, k=1))

        winners: List[Tuple[Sheet, List[Tuple[CellAddress, int, int, float]]]] = []
        #: Per accepted hit: its group, position and pool coordinates.
        accepted: List[Tuple[int, int, float, int, int]] = []
        for group in scored:
            sheet, cells, __ = groups[group]
            items: List[Tuple[CellAddress, int, int, float]] = []
            for position, target_cell in enumerate(cells):
                hits = next(hit_lists)
                if not hits:
                    continue
                distance = hits[0].distance
                sheet_id, local = int(hits[0].key[0]), int(hits[0].key[1])
                rank = ranks[group][sheet_id]
                if adapt and distance <= self.config.acceptance_threshold:
                    accepted.append((group, position, distance, rank, local))
                    items.append((target_cell, sheet_id, local, distance))
                else:
                    results[group][position] = ScoredPrediction(None, distance, rank, local)
            if items:
                winners.append((sheet, items))
        # S3 on every group's accepted hits, in one pass.
        adapted = chain.from_iterable(self._adapt_groups(winners)) if winners else ()
        for (group, position, distance, rank, local), prediction in zip(accepted, adapted):
            results[group][position] = ScoredPrediction(prediction, distance, rank, local)
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
        :meth:`predict_sheets` adapts its winners through the same pass
        (:meth:`_adapt_groups`).  The caller is responsible for the
        acceptance-threshold check.

        The items are re-grounded together, in one pass over all their
        parameters (:meth:`_map_parameters`), and each answer is the one
        the item would get alone: tier 1 only selects, and the cell is
        chosen by the sequential expression over the item's own
        candidates.
        """
        return self._adapt_groups([(target_sheet, items)])[0]

    def _adapt_groups(
        self, groups: Sequence[Tuple[Sheet, Sequence[Tuple[CellAddress, int, int, float]]]]
    ) -> List[List[Optional[Prediction]]]:
        """:meth:`adapt_batch` of every ``(target sheet, items)`` group, in
        one pass over all their parameters."""
        with get_tracer().span("s3.adapt", n_items=sum(len(items) for __, items in groups)) as span:
            predictions: List[List[Optional[Prediction]]] = [
                [None] * len(items) for __, items in groups
            ]
            jobs: List[Tuple[int, int, _ReferenceSheet, _AdaptationPlan]] = []
            pass_jobs: List[Tuple[Sheet, CellAddress, _Regions, _AdaptationPlan]] = []
            for group, (target_sheet, items) in enumerate(groups):
                for position, (cell, sheet_id, local, __) in enumerate(items):
                    reference = self._reference_sheets[int(sheet_id)]
                    regions = self._regions(reference)
                    plan = self._adaptation_plan(reference, int(local), regions)
                    if plan is not None:
                        jobs.append((group, position, reference, plan))
                        pass_jobs.append((target_sheet, cell, regions, plan))
            mapped, n_candidates, n_reranked = self._map_parameters(pass_jobs)
            for (group, position, reference, plan), cells in zip(jobs, mapped):
                __, __, local, distance = groups[group][1][position]
                reference_formula = reference.formulas[int(local)]
                predictions[group][position] = Prediction(
                    formula=plan.instantiate(cells),
                    confidence=max(0.0, 1.0 - distance / 4.0),
                    details={
                        "reference_workbook": reference.workbook_name,
                        "reference_sheet": reference.sheet.name,
                        "reference_cell": reference_formula.address.to_a1(),
                        "reference_formula": reference_formula.formula,
                        "s2_distance": distance,
                    },
                )
            self._candidates_scored.inc(n_candidates)
            self._candidates_reranked.inc(n_reranked)
            span.set_attribute("n_params", sum(len(cells) for cells in mapped))
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
        cells = _coordinates(unique)
        cells.flags.writeable = False
        plan = _AdaptationPlan(
            formula_cell=reference.formulas[local].address,
            pieces=template_pieces(ast),
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
        self, jobs: Sequence[Tuple[Sheet, CellAddress, _Regions, _AdaptationPlan]]
    ) -> Tuple[List[List[Tuple[int, int]]], int, int]:
        """Map each unique parameter cell of every ``(target sheet, target
        cell, block, plan)`` job into its target sheet, as ``(row, col)``,
        all jobs in one pass.

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
        nearest anchor.  A parameter with no candidate keeps its translated
        cell, clamped to the sheet's first row and column.

        Candidates and tier-1 terms are worked out per run of consecutive
        jobs on one target sheet (a box is placed inside its sheet, and its
        terms come off that sheet's tensor); every run's rows then go
        through one :func:`~repro.ann.base.closest_in_blocks` call, each
        run's rows padded to the widest with cells that are no candidate.
        """
        anchors, owners = [], []
        for job, (__, cell, __, plan) in enumerate(jobs):
            row_shift, col_shift = cell.row - plan.formula_cell.row, cell.col - plan.formula_cell.col
            for row, col in plan.cells.tolist():
                anchors.append((row + row_shift, col + col_shift, row, col))
                owners.append(job)
        mapped = [(max(row, 0), max(col, 0)) for row, col, __, __ in anchors]
        #: Per run of jobs on one target sheet with candidates: its first
        #: parameter, its candidates and its rows.
        runs: List[Tuple[int, _Candidates, _Run]] = []
        n_candidates = n_reranked = 0
        first = start = 0
        for stop in range(1, len(jobs) + 1):
            sheet = jobs[first][0]
            if stop < len(jobs) and jobs[stop][0] is sheet:
                continue
            run = jobs[first:stop]
            size = sum(len(plan.cells) for __, __, __, plan in run)
            found = _candidates(
                anchors[start : start + size],
                (sheet.n_rows, sheet.n_cols),
                (self.config.neighborhood_rows, self.config.neighborhood_cols),
            )
            if found.found:
                n_candidates += int(np.count_nonzero(found.mask))
                # ||r||^2 comes from each block as it is now: a value edit
                # replaces the block under plans that stay.
                references = [regions.rows[plan.slots] for __, __, regions, plan in run]
                reference_sq_norms = [regions.norms[plan.slots] for __, __, regions, plan in run]
                if len(run) == 1:
                    references, reference_sq_norms = references[0], reference_sq_norms[0]
                else:
                    references = np.concatenate(references)
                    reference_sq_norms = np.concatenate(reference_sq_norms)
                if len(found.found) < size:
                    references = references[found.found]
                    reference_sq_norms = reference_sq_norms[found.found]
                sq_norms, cross, vectors_of = self._tier1_terms(
                    sheet, found, references, [owners[start + parameter] for parameter in found.found]
                )
                rows = len(sq_norms)
                runs.append(
                    (
                        start,
                        found,
                        _Run(
                            sq_norms,
                            cross,
                            references,
                            reference_sq_norms,
                            self.config.locality_penalty * found.steps.reshape(rows, -1),
                            found.mask.reshape(rows, -1),
                            vectors_of,
                        ),
                    )
                )
            first, start = stop, start + size
        if runs:
            best, n_reranked = closest_in_blocks(
                *(runs[0][2] if len(runs) == 1 else _merged([run for __, __, run in runs]))
            )
            best = iter(best.tolist())
            for start, found, __ in runs:
                corners = found.origins.tolist()
                box_cells, width = found.shape[0] * found.shape[1], found.shape[1]
                for block, parameter in enumerate(found.found):
                    box, position = divmod(next(best), box_cells)
                    row, col = corners[block][box]
                    mapped[start + parameter] = (row + position // width, col + position % width)
        mapped_jobs, start = [], 0
        for __, __, __, plan in jobs:
            mapped_jobs.append(mapped[start : start + len(plan.cells)])
            start += len(plan.cells)
        return mapped_jobs, n_candidates, n_reranked

    def _tier1_terms(
        self,
        target_sheet: Sheet,
        found: _Candidates,
        references: np.ndarray,
        owners: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
        """``(sq_norms, cross, vectors_of)`` of every cell of ``found``'s
        boxes, one row per block (block ``i`` scored against
        ``references[i]``), for :func:`~repro.ann.base.closest_in_blocks`.

        Under the fine fast path both terms come off the target's reduced
        tensor for every box that holds candidates at once
        (:meth:`~repro.models.SheetEncoder.region_products`), and only the
        cells a slice keeps are embedded, in one call.  Otherwise — the
        coarse-only ablation, a sheet over the densification budget, an
        empty axis — each job's candidates (block ``i`` is job
        ``owners[i]``'s) are embedded in one call of their own and scored as
        rows: that forward rounds a row differently in another batch, so a
        job's rows must not depend on the jobs beside it.
        """
        n_blocks, n_boxes = found.mask.shape[:2]
        width = found.mask[0].size
        products = None
        if self.config.granularity != "coarse_only":
            # With one box a block every box holds candidates.
            origins, box_references = found.origins.reshape(-1, 2), references
            if n_boxes > 1:
                origins, box_references = origins[found.boxes], references[found.boxes // n_boxes]
            products = self.encoder.region_products(
                target_sheet, origins, found.shape, box_references
            )
        if products is not None:
            if n_boxes == 1:
                cross, sq_norms = (product.reshape(n_blocks, width) for product in products)
            else:  # an empty second box has no product
                cross, sq_norms = (np.zeros((n_blocks * n_boxes,) + found.shape) for __ in products)
                cross[found.boxes], sq_norms[found.boxes] = products
                cross, sq_norms = cross.reshape(n_blocks, width), sq_norms.reshape(n_blocks, width)

            def vectors_of(blocks: np.ndarray, positions: np.ndarray) -> np.ndarray:
                return self._embed_regions(target_sheet, *found.cells(blocks, positions))

            return sq_norms, cross, vectors_of
        blocks, positions = np.nonzero(found.mask.reshape(n_blocks, width))
        rows, cols = found.cells(blocks, positions)
        splits = np.flatnonzero(np.diff(np.asarray(owners)[blocks])) + 1
        vectors = np.concatenate(
            [
                self._embed_regions(target_sheet, job_rows, job_cols)
                for job_rows, job_cols in zip(np.split(rows, splits), np.split(cols, splits))
            ]
        )
        sq_norms = np.zeros((n_blocks, width), dtype=vectors.dtype)
        cross = np.zeros_like(sq_norms)
        sq_norms[blocks, positions] = np.einsum("ij,ij->i", vectors, vectors)
        cross[blocks, positions] = np.einsum("ij,ij->i", vectors, references[blocks])
        # A candidate's row in ``vectors``: its place in the blocks' order.
        order = np.zeros(sq_norms.shape, dtype=np.int64)
        order[blocks, positions] = np.arange(len(blocks))
        return sq_norms, cross, lambda blocks, positions: vectors[order[blocks, positions]]
