"""A reference Auto-Formula: the oracle the pipeline is compared with.

Algorithm 2 as three straight steps, with no cache, store, tier, plan,
batch or index — what every optimisation in ``repro.core.pipeline`` and
``repro.ann`` must still answer:

* **S1** — every live sheet of the corpus, in corpus order (the workbooks
  in the order they were added, each workbook's sheets in order), is
  embedded on its own; the ``top_k_sheets`` nearest to the target sheet
  are the hits (:func:`knn`).
* **S2** — the formula cells of the hit sheets, in hit order and then in
  address order, are the pool; its nearest formula region to the target
  region wins (:func:`knn` with ``k = 1``) if its distance is at most
  ``acceptance_threshold``.
* **S3** — every parameter cell of the winning formula is walked over its
  candidates (:func:`candidates`: the ±(``neighborhood_rows``,
  ``neighborhood_cols``) neighbourhoods of its two anchors), one cell at a
  time, and the first cell of least score (:func:`closest`) replaces it.

Vectors come in at the encoder boundary: one function gives a sheet's S1
vector (one sheet per forward) and one gives the region vectors of a
sheet's cells, row by row — a cell's vector does not depend on the other
cells of the call.  :meth:`ReferenceAutoFormula.over` binds both to
:meth:`~repro.models.SheetEncoder.embed_sheet` and
:meth:`~repro.models.SheetEncoder.embed_regions` — the methods the
pipeline calls — of an encoder over the same models with a featurizer of
its own, so no tensor the pipeline's encoder cached is read.  Everything
downstream of the vectors is checked: which sheets, which formula, which
cells, and every float an answer carries.

The scores that decide answers are the pipeline's float32 expressions,
spelled once and plainly: a distance is ``||v||^2 - 2 q.v + ||q||^2``
with the fixed-order einsum, clamped at 0, ties toward the earlier
candidate; an S3 score is ``np.sum((v - r) ** 2) + penalty`` with the
penalty ``locality_penalty`` x the Manhattan distance to the nearer
anchor, the first minimum winning.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import AutoFormulaConfig
from repro.core.interface import Prediction
from repro.features import WindowFeaturizer
from repro.formula.parser import parse_formula
from repro.formula.template import formula_references, instantiate_template
from repro.formula.tokenizer import FormulaSyntaxError
from repro.models import SheetEncoder
from repro.service.types import AbstainReason
from repro.sheet.addressing import CellAddress, RangeAddress
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

#: ``(sheet) -> (D,)``: a sheet's S1 vector.
SheetVector = Callable[[Sheet], np.ndarray]
#: ``(sheet, rows, cols, blank_center) -> (n, d)``: region vectors of cells.
RegionVectors = Callable[[Sheet, np.ndarray, np.ndarray, bool], np.ndarray]


def knn(queries: np.ndarray, vectors: np.ndarray, k: int) -> List[List[Tuple[int, float]]]:
    """Exact k-NN: for each query row, the ``k`` rows of ``vectors`` nearest
    to it as ``(row, distance)``, nearest first, ties toward the earlier
    row.

    The distance is the vector index's expression, term for term:
    ``||v||^2 - 2 q.v + ||q||^2`` in float32 with every product an
    unoptimised einsum, clamped at 0.
    """
    queries = np.asarray(queries, dtype=np.float32)
    vectors = np.asarray(vectors, dtype=np.float32)
    distances = np.maximum(
        np.einsum("ij,ij->i", vectors, vectors)[None, :]
        - 2.0 * np.einsum("ij,kj->ik", queries, vectors)
        + np.einsum("ij,ij->i", queries, queries)[:, None],
        0.0,
    )
    return [
        [(row, float(scores[row])) for row in sorted(range(len(scores)), key=lambda r: (scores[r], r))[:k]]
        for scores in distances
    ]


def candidates(
    anchors: Sequence[Tuple[int, int]], extent: Tuple[int, int], reach: Tuple[int, int]
) -> List[Tuple[int, int]]:
    """The S3 candidates of one parameter as ``(row, col)``: the ±``reach``
    neighbourhood of each anchor clamped to a sheet of ``extent`` rows x
    columns (an empty axis still has cell 0), walked row-major, anchor
    after anchor, each cell where it first occurs.  Empty when no
    neighbourhood touches the sheet."""
    max_row, max_col = max(extent[0] - 1, 0), max(extent[1] - 1, 0)
    cells: List[Tuple[int, int]] = []
    for anchor_row, anchor_col in anchors:
        for row in range(max(anchor_row - reach[0], 0), min(anchor_row + reach[0], max_row) + 1):
            for col in range(max(anchor_col - reach[1], 0), min(anchor_col + reach[1], max_col) + 1):
                if (row, col) not in cells:
                    cells.append((row, col))
    return cells


def closest(vectors: np.ndarray, reference: np.ndarray, penalties: Sequence[np.float32]) -> int:
    """The first row ``j`` of least ``np.sum((vectors[j] - reference) ** 2)
    + penalties[j]`` (float32), found one row at a time."""
    best, best_score = 0, None
    for row, (vector, penalty) in enumerate(zip(vectors, penalties)):
        score = np.sum((vector - reference) ** 2) + penalty
        if best_score is None or score < best_score:
            best, best_score = row, score
    return best


class Answer(NamedTuple):
    """What a served answer is compared on."""

    formula: Optional[str]
    #: ``repr`` of the confidence: equal floats, bit for bit.
    confidence: str
    provenance: Dict[str, object]
    abstain_reason: Optional[AbstainReason]


def answer_of(response) -> Answer:
    """The :class:`Answer` a :class:`~repro.service.RecommendationResponse`
    carries."""
    return Answer(
        response.formula,
        repr(response.confidence),
        dict(response.provenance),
        response.abstain_reason,
    )


class ReferenceAutoFormula:
    """Algorithm 2 over a corpus handed in whole at every call (see the
    module docstring).  ``sheet_vector`` and ``region_vectors`` are the
    encoder boundary; ``config`` the pipeline's knobs."""

    def __init__(
        self,
        config: AutoFormulaConfig,
        sheet_vector: SheetVector,
        region_vectors: RegionVectors,
    ) -> None:
        self.config = config
        self._sheet_vector = sheet_vector
        self._region_vectors = region_vectors

    @classmethod
    def over(cls, encoder, config: Optional[AutoFormulaConfig] = None) -> "ReferenceAutoFormula":
        """The reference for an ``AutoFormula(encoder, config)``: the
        encoder's two embedding methods with the models ``granularity``
        picks, bound to an encoder over the same models that reads sheets
        through a featurizer of its own."""
        config = config or AutoFormulaConfig()
        own = SheetEncoder(
            encoder.config,
            encoder.coarse_model,
            encoder.fine_model,
            WindowFeaturizer(encoder.featurizer.config, encoder.featurizer.cell_featurizer),
        )
        return cls(
            config,
            partial(own.embed_sheet, fine=config.granularity == "fine_only"),
            partial(own.embed_regions, coarse=config.granularity == "coarse_only"),
        )

    def _regions(
        self, sheet: Sheet, cells: Sequence[Tuple[int, int]], blank_center: bool = False
    ) -> np.ndarray:
        rows = np.array([row for row, __ in cells], dtype=np.int64)
        cols = np.array([col for __, col in cells], dtype=np.int64)
        return self._region_vectors(sheet, rows, cols, blank_center)

    # ------------------------------------------------------------- the steps

    def predict(
        self, workbooks: Sequence[Workbook], sheet: Sheet, cell: CellAddress
    ) -> Optional[Prediction]:
        """The recommendation for ``cell`` of ``sheet`` against the corpus
        ``workbooks``, or ``None`` to abstain."""
        corpus = [(workbook.name, reference) for workbook in workbooks for reference in workbook]
        if not corpus:
            return None
        # S1
        hits = knn(
            self._sheet_vector(sheet)[None, :],
            np.stack([self._sheet_vector(reference) for __, reference in corpus]),
            self.config.top_k_sheets,
        )[0]
        # S2
        pool = [
            (workbook_name, reference, address, formula_cell.formula or "")
            for workbook_name, reference in (corpus[row] for row, __ in hits)
            for address, formula_cell in reference.formula_cells()
        ]
        if not pool:
            return None
        vectors = np.concatenate(
            [
                self._regions(reference, [a for a, __ in reference.formula_cells()], True)
                for reference in (corpus[row][1] for row, __ in hits)
            ]
        )
        query = self._regions(sheet, [cell], True)
        [(position, distance)] = knn(query, vectors, 1)[0]
        if distance > self.config.acceptance_threshold:
            return None
        workbook_name, reference, address, formula = pool[position]
        # S3
        adapted = self.adapt(reference, address, formula, sheet, cell)
        if adapted is None:
            return None
        return Prediction(
            formula=adapted,
            confidence=max(0.0, 1.0 - distance / 4.0),
            details={
                "reference_workbook": workbook_name,
                "reference_sheet": reference.name,
                "reference_cell": address.to_a1(),
                "reference_formula": formula,
                "s2_distance": distance,
            },
        )

    def adapt(
        self,
        reference: Sheet,
        formula_cell: CellAddress,
        formula: str,
        target: Sheet,
        target_cell: CellAddress,
    ) -> Optional[str]:
        """S3: ``formula``, which sits at ``formula_cell`` of ``reference``,
        with every parameter re-grounded for ``target_cell`` of ``target``;
        ``None`` when it does not parse or cannot be instantiated."""
        try:
            ast = parse_formula(formula)
        except FormulaSyntaxError:
            return None
        parameters = []
        for item in formula_references(ast):
            ends = [item.start, item.end] if isinstance(item, RangeAddress) else [item]
            mapped = [
                self._reground(reference, end, formula_cell, target, target_cell) for end in ends
            ]
            parameters.append(RangeAddress(*mapped) if len(mapped) == 2 else mapped[0])
        try:
            return instantiate_template(ast, parameters)
        except ValueError:
            return None

    def _reground(
        self,
        reference: Sheet,
        parameter: CellAddress,
        formula_cell: CellAddress,
        target: Sheet,
        target_cell: CellAddress,
    ) -> CellAddress:
        """Where ``parameter`` lands on the target sheet.  Its anchors: moved
        by the formula cell -> target cell displacement, and where it is."""
        config = self.config
        moved = (
            parameter.row + target_cell.row - formula_cell.row,
            parameter.col + target_cell.col - formula_cell.col,
        )
        anchors = [moved, parameter]
        cells = candidates(
            anchors,
            (target.n_rows, target.n_cols),
            (config.neighborhood_rows, config.neighborhood_cols),
        )
        if not cells:  # both neighbourhoods miss the sheet: the moved anchor, clamped
            return CellAddress(max(moved[0], 0), max(moved[1], 0))
        penalties = [
            np.float32(config.locality_penalty)
            * np.float32(min(abs(row - a_row) + abs(col - a_col) for a_row, a_col in anchors))
            for row, col in cells
        ]
        vector = self._regions(reference, [parameter])[0]
        return CellAddress(*cells[closest(self._regions(target, cells), vector, penalties)])

    # ---------------------------------------------------------- the service

    def recommend(self, workbooks: Sequence[Workbook], sheet: Sheet, cell: CellAddress) -> Answer:
        """What a workspace over ``workbooks`` must answer for ``cell``."""
        if not workbooks:
            return Answer(None, repr(0.0), {}, AbstainReason.EMPTY_CORPUS)
        prediction = self.predict(workbooks, sheet, cell)
        if prediction is None:
            return Answer(None, repr(0.0), {}, AbstainReason.NO_CONFIDENT_MATCH)
        return Answer(prediction.formula, repr(prediction.confidence), prediction.details, None)
