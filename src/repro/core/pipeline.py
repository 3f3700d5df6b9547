"""The end-to-end Auto-Formula predictor (Algorithm 2)."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ann import SearchResult, VectorIndex
from repro.ann.base import RowStore, closest_in_blocks
from repro.core.config import AutoFormulaConfig
from repro.core.interface import FormulaPredictor, Prediction
from repro.features.window import MAX_CACHED_TENSOR_BYTES, gather_windows, sheet_cache
from repro.formula.ast_nodes import ASTNode
from repro.formula.parser import parse_formula
from repro.formula.template import formula_references, instantiate_template
from repro.formula.tokenizer import FormulaSyntaxError
from repro.models.encoder import SheetEncoder
from repro.nn.layers import Dropout, Flatten, L2Normalize, Linear, ReLU, Tanh
from repro.obs import Counter, get_tracer
from repro.sheet.addressing import CellAddress, RangeAddress
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

#: Layers that act independently on every cell of a window, so they commute
#: with window extraction (see ``AutoFormula._fine_fast_path``).
_PER_CELL_LAYERS = (Linear, ReLU, Tanh, Dropout)

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
    def size(self) -> int:
        if self.keep is not None:
            return self.keep.size
        row_lo, row_hi, col_lo, col_hi = self.bounds
        return (row_hi - row_lo + 1) * (col_hi - col_lo + 1)

    def cell(self, position: int) -> CellAddress:
        """The candidate at ``position``."""
        row_lo, __, col_lo, col_hi = self.bounds
        offset = position if self.keep is None else int(self.keep[position])
        row, col = divmod(offset, col_hi - col_lo + 1)
        return CellAddress(row_lo + row, col_lo + col)

    def cells(self) -> Tuple[np.ndarray, np.ndarray]:
        """Rows and columns of the candidates, in order."""
        row_lo, __, col_lo, col_hi = self.bounds
        offsets = np.arange(self.size) if self.keep is None else self.keep
        rows, cols = np.divmod(offsets, col_hi - col_lo + 1)
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


class _RegionStore:
    """Region embeddings of one sheet's cells, as rows of one row store.

    ``_slots`` maps a cell of the sheet's used extent to its row of
    ``_store`` (-1 until the cell is embedded); reference parameters may
    point outside the extent, and those few cells live in ``_overflow``.
    A cell's row never changes once assigned, so slots handed out stay
    valid while the store grows.  The store serves one state of its sheet:
    target stores sit in a version-checked :func:`sheet_cache`, reference
    stores are re-embedded (:meth:`refresh`) or rebuilt when their sheet is
    re-indexed.

    Concurrent readers reach one store (the workspace read lock admits
    parallel serves of the same target sheet), so filling and reading run
    under ``_mutex``, which guards grid and rows together.
    """

    def __init__(self, sheet: Sheet, dimension: int, capacity: int = 0) -> None:
        self._slots = np.full(
            (max(sheet.n_rows, 1), max(sheet.n_cols, 1)), -1, dtype=np.int32
        )
        self._overflow: Dict[Tuple[int, int], int] = {}
        # Never past one row per cell of the extent: a doubling matrix
        # showed up in peak RSS.
        self._store = RowStore(dimension, capacity, limit=self._slots.size)
        self._mutex = threading.Lock()

    def __len__(self) -> int:
        return len(self._store)

    def _on_grid(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return (rows < self._slots.shape[0]) & (cols < self._slots.shape[1])

    def _lookup(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        try:
            return self._slots[rows, cols]
        except IndexError:  # some cell lies outside the used extent
            inside = self._on_grid(rows, cols)
            slots = np.full(len(rows), -1, dtype=self._slots.dtype)
            slots[inside] = self._slots[rows[inside], cols[inside]]
            for position in np.flatnonzero(~inside):
                key = (int(rows[position]), int(cols[position]))
                slots[position] = self._overflow.get(key, -1)
            return slots

    def _append(self, rows: np.ndarray, cols: np.ndarray, vectors: np.ndarray) -> None:
        new_slots = np.arange(self._store.append(vectors), len(self._store))
        inside = self._on_grid(rows, cols)
        self._slots[rows[inside], cols[inside]] = new_slots[inside]
        for position in np.flatnonzero(~inside):
            key = (int(rows[position]), int(cols[position]))
            self._overflow[key] = int(new_slots[position])

    def grid_slots(self, pieces: Sequence[_Piece]) -> np.ndarray:
        """Matrix rows of the cells of ``pieces`` — rectangles inside the
        used extent — in order, -1 for a cell not stored yet."""
        with self._mutex:
            blocks = []
            for (row_lo, row_hi, col_lo, col_hi), keep in pieces:
                block = self._slots[row_lo : row_hi + 1, col_lo : col_hi + 1]
                blocks.append(block.ravel() if keep is None else block.ravel()[keep])
            return np.concatenate(blocks)

    def slots_of(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        embed: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> Tuple[np.ndarray, int]:
        """Matrix rows of the cells ``(rows[i], cols[i])`` and how many of
        these lookups found their cell not stored yet.

        All cells not stored yet go through one ``embed(rows, cols)`` call,
        in first-occurrence order with repeats dropped.
        """
        with self._mutex:
            slots = self._lookup(rows, cols)
            missing = np.flatnonzero(slots < 0)
            if not missing.size:
                return slots, 0
            n_missing = len(missing)
            keys = rows[missing] * (int(cols.max()) + 1) + cols[missing]
            missing = missing[np.sort(np.unique(keys, return_index=True)[1])]
            rows_missing, cols_missing = rows[missing], cols[missing]
            self._append(rows_missing, cols_missing, embed(rows_missing, cols_missing))
            return self._lookup(rows, cols), n_missing

    def rows(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The stored vectors of ``slots`` as a fresh C-contiguous matrix,
        and their squared norms."""
        with self._mutex:
            return self._store.take(slots)

    def refresh(self, embed: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> None:
        """Re-embed every stored cell into the row it already has: the
        sheet's content changed, the cells stored and the slots handed out
        did not.  One ``embed(rows, cols)`` call, cells in slot order."""
        with self._mutex:
            size = len(self._store)
            if not size:
                return
            rows = np.empty(size, dtype=np.int64)
            cols = np.empty(size, dtype=np.int64)
            grid_rows, grid_cols = np.nonzero(self._slots >= 0)
            slots = self._slots[grid_rows, grid_cols]
            rows[slots], cols[slots] = grid_rows, grid_cols
            for (row, col), slot in self._overflow.items():
                rows[slot], cols[slot] = row, col
            self._store.overwrite(slice(0, size), embed(rows, cols))


@dataclass
class _AdaptationPlan:
    """What S3 needs from one reference formula, worked out once.

    ``cells`` are the unique parameter cells as ``(row, col)`` and ``slots``
    their rows in the owning reference sheet's region store; ``references``
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


@dataclass
class _ReferenceFormula:
    """A formula cell on an indexed reference sheet.

    ``sheet_position`` is the owning sheet's *stable id* (its slot in
    ``AutoFormula._reference_sheets``, which is never renumbered — removed
    sheets leave ``None`` tombstones).  The formula-region embedding itself
    lives in the second-stage vector index, at the physical position
    recorded in the owning sheet's entry of
    ``AutoFormula._formula_positions``.
    """

    sheet_position: int
    address: CellAddress
    formula: str


@dataclass
class _ReferenceSheet:
    """One indexed reference sheet and its formula cells."""

    workbook_name: str
    sheet: Sheet
    formulas: List[_ReferenceFormula]
    #: Region embeddings of the formulas' parameter cells.
    store: _RegionStore
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

    The indexed corpus is mutable after :meth:`fit`: :meth:`add_workbooks`
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
    supports_incremental_corpus = True

    def __init__(
        self,
        encoder: SheetEncoder,
        config: Optional[AutoFormulaConfig] = None,
    ) -> None:
        self.encoder = encoder
        self.config = config or AutoFormulaConfig()
        #: Reference sheets by stable sheet id; removed sheets become None.
        self._reference_sheets: List[Optional[_ReferenceSheet]] = []
        #: Stable ids of each indexed workbook's sheets, and of each indexed
        #: sheet object (by ``id()``: its registry entry pins the object), so
        #: no mutation walks the whole registry.
        self._workbook_sheet_ids: Dict[str, List[int]] = {}
        self._sheet_ids: Dict[int, int] = {}
        self._sheet_index = None
        self._formula_index = None
        #: Per reference sheet (by stable id): physical positions of its
        #: formulas in the formula index (None once the sheet is removed).
        self._formula_positions: List[Optional[np.ndarray]] = []
        #: Per reference sheet (by stable id): its physical position in the
        #: sheet index (None once the sheet is removed).
        self._sheet_positions: List[Optional[int]] = []
        #: Physical store sizes of both indexes (tombstones included); kept
        #: here so newly added vectors get their positions without peeking
        #: at index internals, and rewritten on compaction remaps.
        self._sheet_store_size = 0
        self._formula_store_size = 0
        # Three caches of per-target-sheet values share one entry bound.
        bound = self.config.max_cached_target_sheets
        #: Target sheets' region stores (S3 candidate vectors).
        self._target_cache = sheet_cache("target_stores", bound)
        #: Target-store lookups since construction (see :meth:`counters`);
        #: serves run concurrently, hence instruments.
        self._store_hits = Counter()
        self._store_misses = Counter()
        #: S3 candidates scored, and those re-ranked (see :meth:`counters`).
        self._candidates_scored = Counter()
        self._candidates_reranked = Counter()
        #: Model-reduced per-sheet tensors (the fine model's per-cell prefix
        #: applied to a sheet's padded feature tensor once, instead of once
        #: per overlapping window).
        self._reduced_cache = sheet_cache("reduced_tensors", bound, MAX_CACHED_TENSOR_BYTES)
        self._reduced_padding: Optional[np.ndarray] = None
        self._fine_fast = _UNSET
        #: S1 query embeddings, reused within and across requests.
        self._query_vector_cache = sheet_cache("query_vectors", bound)

    # --------------------------------------------------------------- encoding

    def _sheet_vector(self, sheet: Sheet) -> np.ndarray:
        """Sheet-level embedding (coarse model, unless fine-only ablation).

        Query-side: reference sheets go through the same one-sheet
        :meth:`_encode_sheet_vector` uncached, in ``_index_sheets`` and
        ``reindex_sheet``.  The vector is cached by sheet identity +
        mutation version, so repeated requests for the same sheet within
        and across batches encode once and an edited sheet re-encodes.
        """
        vector = self._query_vector_cache.get(sheet)
        if vector is None:
            vector = self._encode_sheet_vector(sheet)
            vector.flags.writeable = False
            vector = self._query_vector_cache.put(sheet, vector)
        return vector

    @property
    def _sheet_model(self):
        """The model behind sheet-level embeddings."""
        if self.config.granularity == "fine_only":
            return self.encoder.fine_model
        return self.encoder.coarse_model

    def _encode_sheet_vector(self, sheet: Sheet) -> np.ndarray:
        window = self.encoder.featurizer.featurize_sheet(sheet)[None, ...]
        return self._sheet_model.forward(window)[0]

    @property
    def _region_dimension(self) -> int:
        if self.config.granularity == "coarse_only":
            return self.encoder.coarse_dimension
        return self.encoder.fine_dimension

    def _region_vectors(
        self, sheet: Sheet, centers: Sequence[CellAddress], blank_center: bool = False
    ) -> np.ndarray:
        """Region-level embeddings (fine model, unless coarse-only ablation).

        ``blank_center`` masks the center cell of every window; the S2
        formula-region comparison uses this so that an already-filled
        reference cell and a still-empty target cell embed comparably.
        """
        return self._region_vectors_at(sheet, *_coordinates(centers), blank_center)

    def _region_vectors_at(
        self, sheet: Sheet, rows: np.ndarray, cols: np.ndarray, blank_center: bool = False
    ) -> np.ndarray:
        """:meth:`_region_vectors` of the cells ``(rows[i], cols[i])``."""
        if not len(rows):
            return np.zeros((0, self._region_dimension), dtype=np.float32)
        if self.config.granularity != "coarse_only":
            vectors = self._fine_region_vectors_fast(sheet, rows, cols, blank_center)
            if vectors is not None:
                return vectors
        centers = [CellAddress(row, col) for row, col in zip(rows.tolist(), cols.tolist())]
        windows = self.encoder.featurizer.featurize_regions(
            sheet, centers, blank_center=blank_center
        )
        if self.config.granularity == "coarse_only":
            return self.encoder.coarse_model.forward(windows)
        return self.encoder.fine_model.forward(windows)

    # ----------------------------------------------------- fine-model fast path

    def _fine_fast_path(self):
        """``(per-cell prefix layers, normalizer)`` when the fine model is
        per-cell all the way to its ``Flatten`` + ``L2Normalize`` tail.

        Such a model commutes with window extraction: applying the prefix to
        a sheet's padded feature tensor once and gathering windows in the
        reduced space gives the same embeddings as reducing every
        (heavily overlapping) window separately, at a fraction of the cost.
        Returns ``None`` for architectures with spatial layers (conv /
        pooling), which fall back to the general per-window path.
        """
        if self._fine_fast is _UNSET:
            result = None
            layers = getattr(self.encoder.fine_model, "layers", None)
            if layers:
                for index, layer in enumerate(layers):
                    if isinstance(layer, Flatten):
                        prefix, tail = layers[:index], layers[index + 1 :]
                        if (
                            all(isinstance(item, _PER_CELL_LAYERS) for item in prefix)
                            and len(tail) == 1
                            and isinstance(tail[0], L2Normalize)
                        ):
                            result = (prefix, tail[0])
                        break
                    if not isinstance(layer, _PER_CELL_LAYERS):
                        break
            self._fine_fast = result
        return self._fine_fast

    def _reduced_padding_features(self) -> np.ndarray:
        if self._reduced_padding is None:
            prefix, __ = self._fine_fast_path()
            vector = self.encoder.featurizer.padding_features()[None, :]
            for layer in prefix:
                vector = layer.forward(vector, training=False)
            self._reduced_padding = vector[0]
        return self._reduced_padding

    def _reduced_sheet_tensor(self, sheet: Sheet) -> Optional[np.ndarray]:
        """The fine prefix applied to the sheet's padded tensor, memoized."""
        tensor = self.encoder.featurizer.padded_sheet_tensor(sheet)
        if tensor is None:  # sheet exceeds the densification budget
            return None
        reduced = self._reduced_cache.get(sheet)
        if reduced is not None:
            return reduced
        prefix, __ = self._fine_fast_path()
        height, width, dim = tensor.shape
        block = tensor.reshape(-1, dim)
        for layer in prefix:
            block = layer.forward(block, training=False)
        reduced = block.reshape(height, width, -1)
        reduced.flags.writeable = False
        return self._reduced_cache.put(sheet, reduced)

    def _fine_region_vectors_fast(
        self, sheet: Sheet, center_rows: np.ndarray, center_cols: np.ndarray, blank_center: bool
    ) -> Optional[np.ndarray]:
        """Fine region embeddings via the reduced per-sheet tensor, or
        ``None`` when the fast path does not apply."""
        if self._fine_fast_path() is None:
            return None
        reduced = self._reduced_sheet_tensor(sheet)
        if reduced is None:
            return None
        rows = self.encoder.featurizer.config.window_rows
        cols = self.encoder.featurizer.config.window_cols
        padding = self._reduced_padding_features()
        windows = gather_windows(
            reduced, center_rows, center_cols, sheet.n_rows, sheet.n_cols, rows, cols, padding
        )
        if blank_center:
            windows[:, rows // 2, cols // 2] = padding
        __, normalizer = self._fine_fast_path()
        return normalizer.forward(windows.reshape(len(center_rows), -1), training=False)

    def _target_store(self, sheet: Sheet) -> _RegionStore:
        """The region store of a target sheet at its current version."""
        store = self._target_cache.get(sheet)
        if store is None:
            store = self._target_cache.put(sheet, _RegionStore(sheet, self._region_dimension))
        return store

    def _reference_store(
        self, sheet: Sheet, parameter_cells: Sequence[CellAddress] = ()
    ) -> _RegionStore:
        """A reference sheet's region store, sized for and filled with
        ``parameter_cells`` in one forward pass."""
        store = _RegionStore(sheet, self._region_dimension, capacity=len(parameter_cells))
        if parameter_cells:
            store.slots_of(*_coordinates(parameter_cells), partial(self._region_vectors_at, sheet))
        return store

    def counters(self) -> Dict[str, int]:
        """Everything this predictor and its indexes count, keyed by full
        metric name (the server mirrors each key as a gauge).

        ``workspace.region_store_*`` is the target region-store accounting:
        candidate lookups that found their cell stored (``hit``) or not
        (``miss``; a cell two parameters of a cold request both reach
        counts twice, and is embedded once) since construction, and the
        ``cells`` held by the cached stores now.  ``s3.candidates_scored`` /
        ``s3.candidates_reranked`` are S3's candidates since construction and
        those its tier 1 could not settle alone (rows of re-ranked slices,
        see :func:`~repro.ann.base.closest_in_blocks`): a rising share means
        a loose bound or tie-heavy sheets.  The indexes' own
        :meth:`~repro.ann.VectorIndex.counters` are summed over both (a
        ``fit`` builds new indexes, whose counts start again).
        """
        counts = {
            "workspace.region_store_hit": self._store_hits.value,
            "workspace.region_store_miss": self._store_misses.value,
            "workspace.region_store_cells": sum(
                len(store) for store in self._target_cache.values()
            ),
            "s3.candidates_scored": self._candidates_scored.value,
            "s3.candidates_reranked": self._candidates_reranked.value,
        }
        for index in (self._sheet_index, self._formula_index):
            if index is not None:
                for key, count in index.counters().items():
                    counts[key] = counts.get(key, 0) + count
        return counts

    # ---------------------------------------------------------------- offline

    @staticmethod
    def _parameter_cells(formulas: Sequence[_ReferenceFormula]) -> List[CellAddress]:
        """Unique cells referenced as parameters by any of ``formulas``."""
        references: List[Union[CellAddress, RangeAddress]] = []
        for formula in formulas:
            try:
                ast = parse_formula(formula.formula)
            except FormulaSyntaxError:
                continue
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
        """Offline phase: embed and index every reference sheet and formula."""
        self._reference_sheets = []
        self._workbook_sheet_ids = {}
        self._sheet_ids = {}
        self._target_cache.clear()
        self._reduced_cache.clear()
        self._query_vector_cache.clear()
        # The encoder's models (weights or whole objects) may have changed
        # since the last fit; drop everything derived from them.
        self._reduced_padding = None
        self._fine_fast = _UNSET

        sheet_dimension = (
            self.encoder.fine_dimension
            if self.config.granularity == "fine_only"
            else self.encoder.coarse_dimension
        )
        self._sheet_index = VectorIndex(sheet_dimension)
        self._formula_index = VectorIndex(self._region_dimension)
        self._formula_positions = []
        self._sheet_positions = []
        self._sheet_store_size = 0
        self._formula_store_size = 0
        sheets = self._flatten(reference_workbooks)
        with get_tracer().span("core.fit", sheets=len(sheets)):
            self._index_sheets(sheets)

    def _index_sheets(self, sheets: Sequence[Tuple[str, Sheet]]) -> None:
        """Embed and index new reference sheets, appended after existing ones."""
        if not sheets:
            return
        base_id = len(self._reference_sheets)
        sheet_vectors: List[np.ndarray] = []
        for offset, (workbook_name, sheet) in enumerate(sheets):
            sheet_id = base_id + offset
            formulas, embeddings = self._formula_entries(sheet_id, sheet)
            # Pre-embed every formula's parameter regions while this sheet's
            # feature tensor is hot, so online S3 re-grounding never has to
            # re-featurize a reference sheet.
            store = self._reference_store(sheet, self._parameter_cells(formulas))
            self._reference_sheets.append(
                _ReferenceSheet(workbook_name, sheet, formulas, store)
            )
            self._workbook_sheet_ids.setdefault(workbook_name, []).append(sheet_id)
            self._sheet_ids[id(sheet)] = sheet_id
            self._formula_positions.append(self._append_formula_rows(sheet_id, embeddings))
            # One forward per sheet, as ``reindex_sheet`` and the query side
            # run it: a stacked forward rounds every row differently.
            sheet_vectors.append(self._encode_sheet_vector(sheet))

        self._sheet_index.add_batch(
            list(range(base_id, base_id + len(sheets))), np.stack(sheet_vectors)
        )
        self._sheet_positions.extend(
            range(self._sheet_store_size, self._sheet_store_size + len(sheets))
        )
        self._sheet_store_size += len(sheets)

    def _formula_entries(
        self, sheet_id: int, sheet: Sheet
    ) -> Tuple[List[_ReferenceFormula], np.ndarray]:
        """The sheet's formula cells as registry entries, with their
        center-blanked region embeddings (one forward pass)."""
        formula_cells = sheet.formula_cells()
        embeddings = self._region_vectors(
            sheet, [address for address, __ in formula_cells], blank_center=True
        )
        formulas = [
            _ReferenceFormula(sheet_id, address, cell.formula or "")
            for address, cell in formula_cells
        ]
        return formulas, embeddings

    def _append_formula_rows(self, sheet_id: int, embeddings: np.ndarray) -> np.ndarray:
        """Append a sheet's formula embeddings to the formula index; returns
        the physical positions they landed on."""
        count = len(embeddings)
        self._formula_index.add_batch(
            [(sheet_id, local) for local in range(count)], embeddings
        )
        positions = np.arange(
            self._formula_store_size, self._formula_store_size + count, dtype=np.int64
        )
        self._formula_store_size += count
        return positions

    def _remove_formula_rows(self, positions: np.ndarray) -> None:
        """Tombstone formula-index rows, following a compaction's remap."""
        if not positions.size:
            return
        remap = self._formula_index.remove_batch(positions)
        if remap is not None:
            self._formula_positions = [
                remap[kept] if kept is not None else None
                for kept in self._formula_positions
            ]
            self._formula_store_size = len(self._formula_index)

    # ------------------------------------------------------- corpus mutation

    def add_workbooks(self, workbooks: Sequence[Union[Workbook, Sheet]]) -> int:
        """Index additional workbooks without refitting the existing corpus.

        Returns the number of sheets added.  Equivalent to a fresh
        :meth:`fit` on the old corpus followed by the new workbooks, with
        bit-identical predictions.
        """
        if self._sheet_index is None:
            self.fit(list(workbooks))
            return self.n_reference_sheets
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
        physical-position bookkeeping.  Returns the number of sheets removed
        and raises ``KeyError`` if the workbook is not indexed.
        """
        removed_ids = self._workbook_sheet_ids.get(workbook_name)
        if not removed_ids:
            raise KeyError(f"workbook {workbook_name!r} is not indexed")

        self._remove_formula_rows(
            np.concatenate([self._formula_positions[sheet_id] for sheet_id in removed_ids])
        )

        sheet_remap = self._sheet_index.remove_batch(
            [self._sheet_positions[sheet_id] for sheet_id in removed_ids]
        )
        if sheet_remap is not None:
            self._sheet_positions = [
                int(sheet_remap[position]) if position is not None else None
                for position in self._sheet_positions
            ]
            self._sheet_store_size = len(self._sheet_index)

        del self._workbook_sheet_ids[workbook_name]
        for sheet_id in removed_ids:
            self._sheet_ids.pop(id(self._reference_sheets[sheet_id].sheet), None)
            self._reference_sheets[sheet_id] = None
            self._formula_positions[sheet_id] = None
            self._sheet_positions[sheet_id] = None
        return len(removed_ids)

    def reindex_sheet(self, sheet: Sheet) -> Dict[str, object]:
        """Re-index one reference sheet whose content was edited in place.

        Recomputes exactly what indexing computes for this one sheet — its
        S2 formula-region rows, the region store behind S3, its S1 sheet
        vector — and writes the result over the rows the sheet already
        owns.  The sheet keeps its stable id and its place in the corpus, so
        answers equal a fresh :meth:`fit` on the same workbooks in the same
        order.

        When the formula list (addresses and texts) is what was indexed —
        every value edit — the formula rows are overwritten where they sit,
        the region store is re-embedded slot by slot and the cached
        adaptation plans stay.  Otherwise the sheet's formula rows alone are
        replaced (tombstone + append: no answer depends on physical order in
        the formula index) and its store and plans are rebuilt.  The S1 row
        is overwritten either way.

        Bit-safety rule: every forward pass here has the batch shape a
        fresh fit uses for this sheet — the fine prefix over the *whole*
        sheet tensor, then a row-wise gather and ``L2Normalize``; one sheet
        window through the sheet model, as indexing does for every sheet.
        Do not reduce only the cells an edit touched: BLAS picks its
        kernel from the operand shapes, and ``X[idx] @ W`` is not bitwise
        ``(X @ W)[idx]``.

        Returns ``n_formulas``, ``formulas_changed`` and ``n_store_cells``
        for the caller's span; raises ``KeyError`` if the sheet is not
        indexed.
        """
        sheet_id = self._sheet_ids.get(id(sheet))
        if sheet_id is None:
            raise KeyError(f"sheet {sheet.name!r} is not indexed")
        reference = self._reference_sheets[sheet_id]
        formulas, embeddings = self._formula_entries(sheet_id, sheet)
        changed = formulas != reference.formulas
        if changed:
            self._remove_formula_rows(self._formula_positions[sheet_id])
            self._formula_positions[sheet_id] = self._append_formula_rows(sheet_id, embeddings)
            reference.formulas = formulas
            reference.store = self._reference_store(sheet, self._parameter_cells(formulas))
            reference.plans = {}
        else:
            self._formula_index.update_batch(self._formula_positions[sheet_id], embeddings)
            reference.store.refresh(partial(self._region_vectors_at, sheet))
        self._sheet_index.update_batch(
            [self._sheet_positions[sheet_id]], self._encode_sheet_vector(sheet)[None, :]
        )
        return {
            "n_formulas": len(formulas),
            "formulas_changed": changed,
            "n_store_cells": len(reference.store),
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
        the arrays are the two indexes' contiguous stores plus the
        physical-position maps, kept as raw blocks so a snapshot loader
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
            "fitted": self._sheet_index is not None,
            "sheet_store_size": int(self._sheet_store_size),
            "formula_store_size": int(self._formula_store_size),
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
        if self._sheet_index is not None:
            for name, block in self._sheet_index.store_state().items():
                arrays[f"sheet_{name}"] = block
            arrays["sheet_keys"] = np.asarray(self._sheet_index._keys, dtype=np.int64)
            for name, block in self._formula_index.store_state().items():
                arrays[f"formula_{name}"] = block
            formula_keys = self._formula_index._keys
            arrays["formula_keys"] = (
                np.asarray(formula_keys, dtype=np.int64)
                if formula_keys
                else np.empty((0, 2), dtype=np.int64)
            )
            arrays["sheet_positions"] = np.asarray(
                [-1 if position is None else position for position in self._sheet_positions],
                dtype=np.int64,
            )
            live_position_blocks = [
                positions
                for positions in self._formula_positions
                if positions is not None
            ]
            arrays["formula_positions_flat"] = (
                np.concatenate(live_position_blocks).astype(np.int64)
                if live_position_blocks
                else np.empty(0, dtype=np.int64)
            )
            offsets = [0]
            for positions in self._formula_positions:
                offsets.append(offsets[-1] + (0 if positions is None else len(positions)))
            arrays["formula_positions_offsets"] = np.asarray(offsets, dtype=np.int64)
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
        a predictor that searched them approximately.  Raises
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
        self.fit([])  # reset indexes, caches and bookkeeping to a blank fit
        references: List[Optional[_ReferenceSheet]] = []
        for sheet_id, entry in enumerate(state.get("reference_sheets", [])):
            if entry is None:
                references.append(None)
                continue
            sheet = resolve_sheet(str(entry["workbook"]), str(entry["sheet"]))
            references.append(
                _ReferenceSheet(
                    workbook_name=str(entry["workbook"]),
                    sheet=sheet,
                    formulas=[
                        _ReferenceFormula(sheet_id, CellAddress.from_a1(a1), formula)
                        for a1, formula in entry["formulas"]
                    ],
                    # Filled formula by formula, as plans are first built.
                    store=self._reference_store(sheet),
                )
            )
        self._reference_sheets = references
        for sheet_id, reference in enumerate(references):
            if reference is not None:
                self._workbook_sheet_ids.setdefault(reference.workbook_name, []).append(sheet_id)
                self._sheet_ids[id(reference.sheet)] = sheet_id
        if not state.get("fitted", False):
            self._sheet_index = None
            self._formula_index = None
            return
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
        self._sheet_positions = [
            None if position < 0 else position
            for position in arrays["sheet_positions"].tolist()
        ]
        flat = np.array(arrays["formula_positions_flat"], dtype=np.int64)
        blocks = np.split(flat, arrays["formula_positions_offsets"][1:-1])
        self._formula_positions = [
            None if reference is None else block
            for reference, block in zip(references, blocks)
        ]
        self._sheet_store_size = int(state["sheet_store_size"])
        self._formula_store_size = int(state["formula_store_size"])

    def memory_stats(self) -> Dict[str, object]:
        """Resident-byte accounting of both vector indexes (JSON-ready).

        See :meth:`repro.ann.VectorIndex.memory_stats`; ``total_bytes``
        sums both indexes.
        """
        sheet = self._sheet_index.memory_stats() if self._sheet_index is not None else None
        formula = (
            self._formula_index.memory_stats() if self._formula_index is not None else None
        )
        total = 0
        for stats in (sheet, formula):
            if stats is not None:
                total += int(stats["bytes"]["total"])  # type: ignore[index]
        return {"sheet_index": sheet, "formula_index": formula, "total_bytes": total}

    @property
    def sheet_index(self):
        """The S1 sheet-level vector index (``None`` before ``fit``)."""
        return self._sheet_index

    @property
    def formula_index(self):
        """The S2 formula-region vector index (``None`` before ``fit``)."""
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

        Exposed so a staged caller can embed the query *once* and pass it
        to :meth:`sheet_hits` (of this or any other predictor over the same
        encoder: the vector depends only on the encoder).
        """
        return self._sheet_vector(target_sheet)

    def region_query_vectors(
        self, target_sheet: Sheet, target_cells: Sequence[CellAddress]
    ) -> np.ndarray:
        """The S2 query-side embeddings of the target cells (center-blanked).

        The counterpart of :meth:`sheet_query_vector` for
        :meth:`predict_batch_scored`'s ``target_vectors`` argument.
        """
        return self._region_vectors(target_sheet, list(target_cells), blank_center=True)

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
        if not self._reference_sheets or self._sheet_index is None or len(self._sheet_index) == 0:
            return []
        with get_tracer().span(
            "s1.sheet_hits", k=self.config.top_k_sheets if k is None else k
        ) as span:
            if query_vector is None:
                query_vector = self._sheet_vector(target_sheet)
            hits = self._sheet_index.search(
                query_vector, k=self.config.top_k_sheets if k is None else k
            )
            span.set_attribute("n_hits", len(hits))
            return hits

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
            sheet_id = int(sheet_id)
            positions = self._formula_positions[sheet_id]
            if positions is None:
                raise KeyError(f"reference sheet {sheet_id} has been removed")
            rank_of[sheet_id] = rank
            pools.append(positions)
        pool = (
            np.concatenate(pools) if pools else np.empty(0, dtype=np.int64)
        )
        if pool.size == 0:
            return [None] * len(cells)

        # S2: one matmul scoring all target regions against the pool.
        with get_tracer().span(
            "s2.score", n_cells=len(cells), pool_size=int(pool.size), adapt=adapt
        ):
            if target_vectors is None:
                target_vectors = self._region_vectors(target_sheet, cells, blank_center=True)
            hit_lists = self._formula_index.search_batch(target_vectors, k=1, positions=pool)

        results: List[Optional[ScoredPrediction]] = []
        winners: List[Tuple[CellAddress, int, int, float]] = []
        winner_positions: List[int] = []
        for target_cell, hits in zip(cells, hit_lists):
            if not hits:
                results.append(None)
                continue
            distance = hits[0].distance
            sheet_position, local = hits[0].key
            if adapt and distance <= self.config.acceptance_threshold:
                winner_positions.append(len(results))
                winners.append((target_cell, int(sheet_position), int(local), distance))
            results.append(
                ScoredPrediction(None, distance, rank_of[int(sheet_position)], int(local))
            )
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
            store = self._target_store(target_sheet)
            predictions: List[Optional[Prediction]] = []
            n_params = n_candidates = n_misses = n_reranked = 0
            for target_cell, sheet_id, local, distance in items:
                reference = self._reference_sheets[int(sheet_id)]
                reference_formula = reference.formulas[int(local)]
                plan = self._adaptation_plan(reference, int(local))
                if plan is None:
                    predictions.append(None)
                    continue
                mapped, candidates, misses, reranked = self._map_parameters(
                    reference, plan, store, target_sheet, target_cell
                )
                n_params += len(mapped)
                n_candidates += candidates
                n_misses += misses
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
            self._store_hits.inc(n_candidates - n_misses)
            self._store_misses.inc(n_misses)
            self._candidates_scored.inc(n_candidates)
            self._candidates_reranked.inc(n_reranked)
            span.set_attribute("n_params", n_params)
            span.set_attribute("n_candidates", n_candidates)
            span.set_attribute("n_region_misses", n_misses)
            span.set_attribute("n_reranked", n_reranked)
            return predictions

    # --------------------------------------------------------------------- S3

    def _adaptation_plan(
        self, reference: _ReferenceSheet, local: int
    ) -> Optional[_AdaptationPlan]:
        """The plan of one reference formula, built on first use (``None``
        for a formula that does not parse)."""
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
        slots = np.empty(0, dtype=np.int32)
        if unique:
            # A restored predictor's reference stores start empty: this is
            # where a formula's parameter regions are embedded, in one pass.
            slots, __ = reference.store.slots_of(
                *_coordinates(unique), partial(self._region_vectors_at, reference.sheet)
            )
        plan = _AdaptationPlan(
            formula_cell=reference.formulas[local].address,
            ast=ast,
            references=[
                (index_of[item.start], index_of[item.end])
                if isinstance(item, RangeAddress)
                else (index_of[item],)
                for item in references
            ],
            cells=[(cell.row, cell.col) for cell in unique],
            slots=slots,
        )
        reference.plans[local] = plan
        return plan

    def _map_parameters(
        self,
        reference: _ReferenceSheet,
        plan: _AdaptationPlan,
        store: _RegionStore,
        target_sheet: Sheet,
        target_cell: CellAddress,
    ) -> Tuple[List[CellAddress], int, int, int]:
        """Map each unique parameter cell of ``plan`` into the target sheet,
        whose region store is ``store``.

        Also returns the number of candidates scored, how many of them were
        not in the store yet and how many were re-ranked
        (:func:`~repro.ann.base.closest_in_blocks`).

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
            return mapped, 0, 0, 0
        parts = [candidates[index] for index in found]
        pieces = [piece for part in parts for piece in part.pieces]
        slots = store.grid_slots(pieces)
        missing = np.flatnonzero(slots < 0)
        n_misses = 0
        if missing.size:
            # One call for the whole formula, so everything it is missing
            # is embedded in a single forward pass.
            rows, cols = (
                np.concatenate(axis)[missing] for axis in zip(*(piece.cells() for piece in pieces))
            )
            slots[missing], n_misses = store.slots_of(
                rows, cols, partial(self._region_vectors_at, target_sheet)
            )
        vectors, sq_norms = store.rows(slots)
        # ||r||^2 comes from the reference store as it is now: a value edit
        # refreshes the store under plans that stay.
        references, reference_sq_norms = reference.store.rows(plan.slots[found])
        penalties = self.config.locality_penalty * np.concatenate(
            [part.steps for part in parts]
        ).astype(np.float32)
        lengths = [part.steps.size for part in parts]
        best, n_reranked = closest_in_blocks(
            vectors, sq_norms, references, reference_sq_norms, penalties, lengths
        )
        for index, part, position in zip(found, parts, best):
            mapped[index] = part.cell(position)
        return mapped, len(penalties), n_misses, n_reranked
