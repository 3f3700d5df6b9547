"""The end-to-end Auto-Formula predictor (Algorithm 2)."""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ann import SearchResult, canonical_index_kind, create_index
from repro.core.config import AutoFormulaConfig
from repro.core.interface import FormulaPredictor, Prediction
from repro.features.window import SheetKeyedLRU, gather_windows
from repro.formula.ast_nodes import CellReference, RangeReference
from repro.formula.parser import parse_formula
from repro.formula.template import formula_references, instantiate_template
from repro.formula.tokenizer import FormulaSyntaxError
from repro.models.encoder import SheetEncoder
from repro.nn.layers import Dropout, Flatten, L2Normalize, Linear, ReLU, Tanh
from repro.obs import get_tracer
from repro.sheet.addressing import CellAddress, RangeAddress
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

#: Layers that act independently on every cell of a window, so they commute
#: with window extraction (see ``AutoFormula._fine_fast_path``).
_PER_CELL_LAYERS = (Linear, ReLU, Tanh, Dropout)

_UNSET = object()


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


def _dedupe_coords(coords: np.ndarray) -> np.ndarray:
    """Drop duplicate (row, col) rows, keeping first-occurrence order."""
    flat = coords[:, 0] * (int(coords[:, 1].max()) + 1) + coords[:, 1]
    return coords[np.sort(np.unique(flat, return_index=True)[1])]


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


class _ContentKeyedVectorLRU:
    """Bounded, thread-safe ``(content key, version) -> vector`` cache.

    The wire layer's :class:`~repro.server.schemas.SheetInterner` stamps
    decoded sheets with their content hash; this cache lets two *distinct*
    sheet objects with identical content (e.g. the same payload arriving
    after the interner evicted its entry) share one query embedding.
    Vectors are stored read-only.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._max_entries = max_entries
        self._entries: "OrderedDict[Tuple[str, int], np.ndarray]" = OrderedDict()
        self._mutex = threading.Lock()

    def get(self, key: Tuple[str, int]) -> Optional[np.ndarray]:
        with self._mutex:
            vector = self._entries.get(key)
            if vector is not None:
                self._entries.move_to_end(key)
            return vector

    def put(self, key: Tuple[str, int], vector: np.ndarray) -> None:
        with self._mutex:
            self._entries[key] = vector
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()


class AutoFormula(FormulaPredictor):
    """Formula recommendation by similar-sheet / similar-region retrieval.

    The online phase is a vectorized two-stage retrieval engine: S1 finds
    ``top_k_sheets`` similar sheets in the sheet-level index, S2 scores the
    target region against *all* formula regions of those sheets with a
    single matrix product over a second-stage index, and S3 re-grounds the
    winning formula's parameters.  :meth:`predict_batch` runs S1 once and
    featurizes/encodes every target region of a sheet in one forward pass.

    The indexed corpus is mutable after :meth:`fit`: :meth:`add_workbooks`
    appends new reference sheets without touching the existing ones, and
    :meth:`remove_workbook` tombstones a workbook's sheets out of both
    vector indexes (see :meth:`repro.ann.VectorIndex.remove_batch`).
    Predictions stay bit-identical to a fresh ``fit`` on the equivalent
    corpus (adds in order; removed-then-re-added workbooks at the end),
    with one deliberate exception: under ``"ivf"`` index kinds, adding to
    an *already-queried* predictor keeps the trained quantizer and assigns
    the new vectors incrementally (recall-tested, retrained on 2x growth)
    rather than paying a k-means retrain per add — exact/LSH kinds, adds
    before the first query, and every removal remain exactly
    refit-equivalent.
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
        #: Bounded LRU of per-cell fine-embedding caches for target sheets.
        self._target_cache = SheetKeyedLRU(self.config.max_cached_target_sheets)
        #: Region embeddings of reference parameter cells, keyed by
        #: (sheet id, row, col).  Reference sheets are pinned by
        #: ``_reference_sheets`` for the lifetime of a fit, so the ids stay
        #: valid; the cache is cleared (and re-bounded) on every ``fit``.
        self._reference_region_cache: Dict[Tuple[int, int, int], np.ndarray] = {}
        #: Bounded LRU of model-reduced per-sheet tensors (the fine model's
        #: per-cell prefix applied to a sheet's padded feature tensor once,
        #: instead of once per overlapping window).
        self._reduced_cache = SheetKeyedLRU(self.config.max_cached_target_sheets)
        self._reduced_padding: Optional[np.ndarray] = None
        self._fine_fast = _UNSET
        #: Cross-request S1 query-embedding reuse (off when
        #: ``config.reuse_query_embeddings`` is false): an identity-keyed
        #: LRU holding ``(sheet version, vector)`` plus a content-hash-keyed
        #: LRU for distinct sheet objects carrying the wire layer's
        #: ``content_key``.  Both are version-checked, so an edited sheet
        #: always re-encodes.
        self._query_vector_cache = SheetKeyedLRU(
            max(self.config.max_cached_target_sheets, 8)
        )
        self._query_vector_by_content = _ContentKeyedVectorLRU(
            4 * max(self.config.max_cached_target_sheets, 8)
        )

    # --------------------------------------------------------------- encoding

    def _sheet_vector(self, sheet: Sheet) -> np.ndarray:
        """Sheet-level embedding (coarse model, unless fine-only ablation).

        Query-side only — reference sheets are embedded in bulk by
        ``_index_sheets``.  With ``reuse_query_embeddings`` on, the vector
        is cached by sheet identity + mutation version (and by the wire
        layer's content hash when the sheet carries one), so repeated
        requests for the same sheet within and across batches encode once.
        """
        if not self.config.reuse_query_embeddings:
            return self._encode_sheet_vector(sheet)
        version = sheet.version
        cached = self._query_vector_cache.get(sheet)
        if cached is not None and cached[0] == version:
            return cached[1]
        content_key = getattr(sheet, "content_key", None)
        if content_key is not None:
            vector = self._query_vector_by_content.get((content_key, version))
            if vector is not None:
                self._query_vector_cache.put(sheet, (version, vector))
                return vector
        vector = self._encode_sheet_vector(sheet)
        vector.flags.writeable = False
        self._query_vector_cache.put(sheet, (version, vector))
        if content_key is not None:
            self._query_vector_by_content.put((content_key, version), vector)
        return vector

    def _encode_sheet_vector(self, sheet: Sheet) -> np.ndarray:
        window = self.encoder.featurizer.featurize_sheet(sheet)[None, ...]
        if self.config.granularity == "fine_only":
            return self.encoder.fine_model.forward(window)[0]
        return self.encoder.coarse_model.forward(window)[0]

    def _region_vectors(
        self, sheet: Sheet, centers: Sequence[CellAddress], blank_center: bool = False
    ) -> np.ndarray:
        """Region-level embeddings (fine model, unless coarse-only ablation).

        ``blank_center`` masks the center cell of every window; the S2
        formula-region comparison uses this so that an already-filled
        reference cell and a still-empty target cell embed comparably.
        """
        if not centers:
            dim = (
                self.encoder.coarse_dimension
                if self.config.granularity == "coarse_only"
                else self.encoder.fine_dimension
            )
            return np.zeros((0, dim), dtype=np.float32)
        if self.config.granularity != "coarse_only":
            vectors = self._fine_region_vectors_fast(sheet, list(centers), blank_center)
            if vectors is not None:
                return vectors
        windows = self.encoder.featurizer.featurize_regions(
            sheet, list(centers), blank_center=blank_center
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
        self._reduced_cache.put(sheet, reduced)
        return reduced

    def _fine_region_vectors_fast(
        self, sheet: Sheet, centers: List[CellAddress], blank_center: bool
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
            reduced, centers, sheet.n_rows, sheet.n_cols, rows, cols, padding
        )
        if blank_center:
            windows[:, rows // 2, cols // 2] = padding
        __, normalizer = self._fine_fast_path()
        return normalizer.forward(windows.reshape(len(centers), -1), training=False)

    def _target_region_vectors(self, sheet: Sheet, centers: Sequence[CellAddress]) -> np.ndarray:
        """Region embeddings on a target sheet, memoized per cell in the LRU."""
        cache: Optional[Dict[Tuple[int, int], np.ndarray]] = self._target_cache.get(sheet)
        if cache is None:
            cache = {}
            self._target_cache.put(sheet, cache)
        missing = [center for center in centers if (center.row, center.col) not in cache]
        if missing:
            vectors = self._region_vectors(sheet, missing)
            for center, vector in zip(missing, vectors):
                cache[(center.row, center.col)] = vector
        return np.stack([cache[(center.row, center.col)] for center in centers])

    def _reference_region_vector(self, sheet: Sheet, center: CellAddress) -> np.ndarray:
        """Region embedding of one reference parameter cell, memoized."""
        key = (id(sheet), center.row, center.col)
        vector = self._reference_region_cache.get(key)
        if vector is None:
            vector = self._region_vectors(sheet, [center])[0]
            self._reference_region_cache[key] = vector
        return vector

    def _warm_reference_cache(self, sheet: Sheet, centers: Sequence[CellAddress]) -> None:
        """Embed any uncached reference parameter regions in one forward pass."""
        missing = [
            center
            for center in centers
            if (id(sheet), center.row, center.col) not in self._reference_region_cache
        ]
        if not missing:
            return
        vectors = self._region_vectors(sheet, missing)
        for center, vector in zip(missing, vectors):
            self._reference_region_cache[(id(sheet), center.row, center.col)] = vector

    def _warm_target_cache(self, sheet: Sheet, centers: Sequence[CellAddress]) -> None:
        """Embed any uncached target candidate regions in one forward pass."""
        if centers:
            self._target_region_vectors(sheet, centers)

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
        self._target_cache.clear()
        self._reference_region_cache.clear()
        self._reduced_cache.clear()
        self._query_vector_cache.clear()
        self._query_vector_by_content.clear()
        # The encoder's models (weights or whole objects) may have changed
        # since the last fit; drop everything derived from them.
        self._reduced_padding = None
        self._fine_fast = _UNSET

        sheet_dimension = (
            self.encoder.fine_dimension
            if self.config.granularity == "fine_only"
            else self.encoder.coarse_dimension
        )
        region_dimension = (
            self.encoder.coarse_dimension
            if self.config.granularity == "coarse_only"
            else self.encoder.fine_dimension
        )
        self._sheet_index = create_index(self.config.sheet_index_kind, sheet_dimension)
        self._formula_index = create_index(self.config.formula_index_kind, region_dimension)
        self._formula_positions = []
        self._sheet_positions = []
        self._sheet_store_size = 0
        self._formula_store_size = 0
        self._index_sheets(self._flatten(reference_workbooks))

    def _index_sheets(self, sheets: Sequence[Tuple[str, Sheet]]) -> None:
        """Embed and index new reference sheets, appended after existing ones."""
        if not sheets:
            return
        base_id = len(self._reference_sheets)
        sheet_windows: List[np.ndarray] = []
        for offset, (workbook_name, sheet) in enumerate(sheets):
            sheet_id = base_id + offset
            formula_cells = sheet.formula_cells()
            centers = [address for address, __ in formula_cells]
            embeddings = self._region_vectors(sheet, centers, blank_center=True)
            formulas = [
                _ReferenceFormula(sheet_id, address, cell.formula or "")
                for address, cell in formula_cells
            ]
            # Pre-embed every formula's parameter regions while this sheet's
            # feature tensor is hot, so online S3 re-grounding never has to
            # re-featurize a reference sheet.
            self._warm_reference_cache(sheet, self._parameter_cells(formulas))
            self._reference_sheets.append(
                _ReferenceSheet(workbook_name=workbook_name, sheet=sheet, formulas=formulas)
            )
            self._formula_index.add_batch(
                [(sheet_id, local) for local in range(len(formulas))], embeddings
            )
            self._formula_positions.append(
                np.arange(
                    self._formula_store_size,
                    self._formula_store_size + len(formulas),
                    dtype=np.int64,
                )
            )
            self._formula_store_size += len(formulas)
            sheet_windows.append(self.encoder.featurizer.featurize_sheet(sheet))

        windows = np.stack(sheet_windows)
        model = (
            self.encoder.fine_model
            if self.config.granularity == "fine_only"
            else self.encoder.coarse_model
        )
        self._sheet_index.add_batch(
            list(range(base_id, base_id + len(sheets))), model.forward(windows)
        )
        self._sheet_positions.extend(
            range(self._sheet_store_size, self._sheet_store_size + len(sheets))
        )
        self._sheet_store_size += len(sheets)

    # ------------------------------------------------------- corpus mutation

    def add_workbooks(self, workbooks: Sequence[Union[Workbook, Sheet]]) -> int:
        """Index additional workbooks without refitting the existing corpus.

        Returns the number of sheets added.  Equivalent to a fresh
        :meth:`fit` on the old corpus followed by the new workbooks, with
        bit-identical predictions — except for the IVF stale-quantizer
        case spelled out in the class docstring.
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
        removed_ids = [
            sheet_id
            for sheet_id, reference in enumerate(self._reference_sheets)
            if reference is not None and reference.workbook_name == workbook_name
        ]
        if not removed_ids:
            raise KeyError(f"workbook {workbook_name!r} is not indexed")

        # Purge cached reference-region embeddings of the removed sheets:
        # the cache is keyed by id(sheet), and dropping the sheet objects
        # below would allow id reuse to serve stale vectors.
        dead_sheet_object_ids = {
            id(self._reference_sheets[sheet_id].sheet) for sheet_id in removed_ids
        }
        self._reference_region_cache = {
            key: vector
            for key, vector in self._reference_region_cache.items()
            if key[0] not in dead_sheet_object_ids
        }

        dead_formula_positions = [
            self._formula_positions[sheet_id]
            for sheet_id in removed_ids
            if self._formula_positions[sheet_id].size
        ]
        if dead_formula_positions:
            remap = self._formula_index.remove_batch(np.concatenate(dead_formula_positions))
            if remap is not None:
                self._formula_positions = [
                    remap[positions] if positions is not None else None
                    for positions in self._formula_positions
                ]
                self._formula_store_size = len(self._formula_index)

        sheet_remap = self._sheet_index.remove_batch(
            [self._sheet_positions[sheet_id] for sheet_id in removed_ids]
        )
        if sheet_remap is not None:
            self._sheet_positions = [
                int(sheet_remap[position]) if position is not None else None
                for position in self._sheet_positions
            ]
            self._sheet_store_size = len(self._sheet_index)

        for sheet_id in removed_ids:
            self._reference_sheets[sheet_id] = None
            self._formula_positions[sheet_id] = None
            self._sheet_positions[sheet_id] = None
        return len(removed_ids)

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
        registry with tombstones, index kinds for load-time validation);
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
            "sheet_index_kind": self.config.sheet_index_kind,
            "formula_index_kind": self.config.formula_index_kind,
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
        edits.  The configured index kinds must match the snapshot's: the
        stored vectors are index-kind-agnostic, but silently re-homing an
        IVF store under an LSH config would not reproduce the snapshotting
        predictor's answers.  Raises ``ValueError`` on any mismatch.
        """
        snapshot = {
            "granularity": state.get("granularity"),
            # Snapshots written before kinds were canonicalised may hold an
            # alias ("flat", " Exact "); resolve it before comparing.
            "sheet_index_kind": canonical_index_kind(str(state.get("sheet_index_kind"))),
            "formula_index_kind": canonical_index_kind(str(state.get("formula_index_kind"))),
        }
        for field, theirs in snapshot.items():
            mine = getattr(self.config, field)
            if theirs != mine:
                raise ValueError(
                    f"snapshot was taken with {field}={theirs!r}, this predictor "
                    f"is configured with {mine!r}"
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
                )
            )
        self._reference_sheets = references
        if not state.get("fitted", False):
            self._sheet_index = None
            self._formula_index = None
            return
        self._sheet_index.restore_store(
            [int(key) for key in arrays["sheet_keys"]],
            arrays["sheet_matrix"],
            arrays["sheet_sq_norms"],
            arrays["sheet_alive"],
        )
        self._formula_index.restore_store(
            [(int(sheet_id), int(local)) for sheet_id, local in arrays["formula_keys"]],
            arrays["formula_matrix"],
            arrays["formula_sq_norms"],
            arrays["formula_alive"],
        )
        self._sheet_positions = [
            None if position < 0 else int(position)
            for position in arrays["sheet_positions"]
        ]
        flat = np.asarray(arrays["formula_positions_flat"], dtype=np.int64)
        offsets = arrays["formula_positions_offsets"]
        self._formula_positions = [
            None
            if reference is None
            else flat[int(offsets[sheet_id]) : int(offsets[sheet_id + 1])].copy()
            for sheet_id, reference in enumerate(references)
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
        ) as span:
            if target_vectors is None:
                target_vectors = self._region_vectors(target_sheet, cells, blank_center=True)
            hit_lists = self._formula_index.search_batch(target_vectors, k=1, positions=pool)

            results: List[Optional[ScoredPrediction]] = []
            n_adapted = 0
            for target_cell, hits in zip(cells, hit_lists):
                if not hits:
                    results.append(None)
                    continue
                distance = hits[0].distance
                sheet_position, local = hits[0].key
                sheet_rank = rank_of[int(sheet_position)]
                if not adapt or distance > self.config.acceptance_threshold:
                    results.append(ScoredPrediction(None, distance, sheet_rank, int(local)))
                    continue
                prediction = self._adapt_hit(
                    target_sheet, target_cell, int(sheet_position), int(local), distance
                )
                n_adapted += 1
                results.append(ScoredPrediction(prediction, distance, sheet_rank, int(local)))
            span.set_attribute("n_adapted", n_adapted)
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
        fails), identical to what the un-split pipeline would produce.
        The caller is responsible for the acceptance-threshold check.
        """
        with get_tracer().span("s3.adapt", n_items=len(items)):
            return [
                self._adapt_hit(target_sheet, cell, int(sheet_id), int(local), distance)
                for cell, sheet_id, local, distance in items
            ]

    def _adapt_hit(
        self,
        target_sheet: Sheet,
        target_cell: CellAddress,
        sheet_position: int,
        local: int,
        distance: float,
    ) -> Optional[Prediction]:
        """S3 for one winning (sheet, formula) hit, packaged as a Prediction."""
        reference = self._reference_sheets[sheet_position]
        reference_formula = reference.formulas[local]
        confidence = max(0.0, 1.0 - distance / 4.0)
        predicted = self._adapt_formula(
            reference.sheet, reference_formula, target_sheet, target_cell
        )
        if predicted is None:
            return None
        return Prediction(
            formula=predicted,
            confidence=confidence,
            details={
                "reference_workbook": reference.workbook_name,
                "reference_sheet": reference.sheet.name,
                "reference_cell": reference_formula.address.to_a1(),
                "reference_formula": reference_formula.formula,
                "s2_distance": distance,
            },
        )

    # --------------------------------------------------------------------- S3

    def _candidate_grid(
        self, target_sheet: Sheet, center_row: int, center_col: int
    ) -> Optional[np.ndarray]:
        """(n, 2) row/col array of the +/- neighborhood around an anchor."""
        rows = self.config.neighborhood_rows
        cols = self.config.neighborhood_cols
        max_row = max(target_sheet.n_rows - 1, 0)
        max_col = max(target_sheet.n_cols - 1, 0)
        row_lo, row_hi = max(center_row - rows, 0), min(center_row + rows, max_row)
        col_lo, col_hi = max(center_col - cols, 0), min(center_col + cols, max_col)
        if row_lo > row_hi or col_lo > col_hi:
            return None
        grid_rows, grid_cols = np.meshgrid(
            np.arange(row_lo, row_hi + 1), np.arange(col_lo, col_hi + 1), indexing="ij"
        )
        return np.stack([grid_rows.ravel(), grid_cols.ravel()], axis=1)

    def _map_cell(
        self,
        reference_sheet: Sheet,
        reference_cell: CellAddress,
        reference_formula_cell: CellAddress,
        target_sheet: Sheet,
        target_cell: CellAddress,
    ) -> CellAddress:
        """Map one reference parameter cell into the target sheet.

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
        row_delta = target_cell.row - reference_formula_cell.row
        col_delta = target_cell.col - reference_formula_cell.col
        anchors = [
            (reference_cell.row + row_delta, reference_cell.col + col_delta),
            (reference_cell.row, reference_cell.col),
        ]
        grids = [
            grid
            for anchor_row, anchor_col in anchors
            if (grid := self._candidate_grid(target_sheet, anchor_row, anchor_col)) is not None
        ]
        if not grids:
            return CellAddress(max(anchors[0][0], 0), max(anchors[0][1], 0))
        # De-duplicate while keeping first-occurrence order (primary-anchor
        # candidates first), so ties keep breaking the same way the original
        # sequential scan did.
        coords = _dedupe_coords(np.concatenate(grids, axis=0))
        candidates = [CellAddress(int(row), int(col)) for row, col in coords]

        reference_vector = self._reference_region_vector(reference_sheet, reference_cell)
        candidate_vectors = self._target_region_vectors(target_sheet, candidates)
        distances = np.sum((candidate_vectors - reference_vector) ** 2, axis=1)
        penalties = np.minimum.reduce(
            [
                np.abs(coords[:, 0] - anchor_row) + np.abs(coords[:, 1] - anchor_col)
                for anchor_row, anchor_col in anchors
            ]
        ).astype(np.float32)
        scores = distances + self.config.locality_penalty * penalties
        return candidates[int(np.argmin(scores))]

    def _prepare_adaptation(
        self,
        references: Sequence[Union[CellAddress, RangeAddress]],
        reference_sheet: Sheet,
        reference_formula: _ReferenceFormula,
        target_sheet: Sheet,
        target_cell: CellAddress,
    ) -> None:
        """Warm both region caches for every parameter in two forward passes.

        ``_map_cell`` then runs on cache hits only: without this, each
        parameter (and each end of each range) would trigger its own fine
        forward pass over its reference region and its ~(2d+1)^2 candidate
        neighborhood, most of which overlap between parameters.
        """
        unique_params = _reference_parameter_cells(references)
        if not unique_params:
            return
        self._warm_reference_cache(reference_sheet, unique_params)

        row_delta = target_cell.row - reference_formula.address.row
        col_delta = target_cell.col - reference_formula.address.col
        grids = []
        for cell in unique_params:
            for anchor_row, anchor_col in (
                (cell.row + row_delta, cell.col + col_delta),
                (cell.row, cell.col),
            ):
                grid = self._candidate_grid(target_sheet, anchor_row, anchor_col)
                if grid is not None:
                    grids.append(grid)
        if not grids:
            return
        coords = _dedupe_coords(np.concatenate(grids, axis=0))
        self._warm_target_cache(
            target_sheet, [CellAddress(int(row), int(col)) for row, col in coords]
        )

    def _adapt_formula(
        self,
        reference_sheet: Sheet,
        reference_formula: _ReferenceFormula,
        target_sheet: Sheet,
        target_cell: CellAddress,
    ) -> Optional[str]:
        """Instantiate the reference template with re-grounded parameters."""
        try:
            ast = parse_formula(reference_formula.formula)
        except FormulaSyntaxError:
            return None
        references = formula_references(ast)
        self._prepare_adaptation(references, reference_sheet, reference_formula, target_sheet, target_cell)
        mapped: List[Union[CellAddress, RangeAddress]] = []
        for reference in references:
            if isinstance(reference, RangeAddress):
                start = self._map_cell(
                    reference_sheet,
                    reference.start,
                    reference_formula.address,
                    target_sheet,
                    target_cell,
                )
                end = self._map_cell(
                    reference_sheet,
                    reference.end,
                    reference_formula.address,
                    target_sheet,
                    target_cell,
                )
                mapped.append(RangeAddress(start, end))
            else:
                mapped.append(
                    self._map_cell(
                        reference_sheet,
                        reference,
                        reference_formula.address,
                        target_sheet,
                        target_cell,
                    )
                )
        try:
            return instantiate_template(ast, mapped)
        except ValueError:
            return None
