"""Table error detection: flag formulas that disagree with similar sheets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ann import VectorIndex
from repro.formula.template import extract_template
from repro.formula.tokenizer import FormulaSyntaxError
from repro.models.encoder import SheetEncoder
from repro.sheet.addressing import CellAddress
from repro.sheet.cell import Cell
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook


@dataclass
class FormulaAnomaly:
    """A formula cell whose template disagrees with its similar-sheet peers."""

    cell: CellAddress
    formula: str
    expected_template: str
    observed_template: str
    reference_sheet: str
    reference_cell: str
    severity: float


class FormulaErrorDetector:
    """Flags likely formula errors by cross-checking against similar sheets.

    For every formula cell on the audited sheet, the detector retrieves the
    most similar reference sheets (coarse model), finds the best-matching
    formula region among them (fine model), and compares formula
    *templates*.  A mismatch — e.g. ``SUM(_:_)`` on the audited sheet where
    every similar sheet uses ``SUM(_:_)+_`` or a differently-shaped range —
    is reported as an anomaly with a severity proportional to how closely
    the regions match (a near-identical region with a different template is
    a stronger signal than a loose match).
    """

    def __init__(
        self,
        encoder: SheetEncoder,
        top_k_sheets: int = 3,
        max_region_distance: float = 0.5,
    ) -> None:
        self.encoder = encoder
        self.top_k_sheets = top_k_sheets
        self.max_region_distance = max_region_distance
        self._sheets: List[Tuple[str, Sheet]] = []
        self._index: Optional[VectorIndex] = None

    # ---------------------------------------------------------------- offline

    def fit(self, reference_workbooks: Sequence[Union[Workbook, Sheet]]) -> None:
        """Index the reference sheets used as the consistency oracle."""
        self._sheets = []
        self._index = VectorIndex(self.encoder.coarse_dimension)
        for item in reference_workbooks:
            sheets = [item] if isinstance(item, Sheet) else list(item)
            source = item.name if isinstance(item, Workbook) else "<sheet>"
            for sheet in sheets:
                self._index.add(len(self._sheets), self.encoder.embed_sheet(sheet))
                self._sheets.append((source, sheet))

    @property
    def n_reference_sheets(self) -> int:
        """Number of indexed reference sheets."""
        return len(self._sheets)

    # ----------------------------------------------------------------- online

    def _template(self, formula: str) -> Optional[str]:
        try:
            return extract_template(formula).signature
        except FormulaSyntaxError:
            return None

    def _formula_vectors(
        self, sheet: Sheet, formula_cells: Sequence[Tuple[CellAddress, Cell]]
    ) -> np.ndarray:
        """Center-blanked region embeddings of a sheet's formula cells, in
        one call: the S2 comparison of the recommendation pipeline."""
        rows = np.array([address.row for address, __ in formula_cells], dtype=np.int64)
        cols = np.array([address.col for address, __ in formula_cells], dtype=np.int64)
        return self.encoder.embed_regions(sheet, rows, cols, blank_center=True)

    def audit(self, sheet: Sheet) -> List[FormulaAnomaly]:
        """Audit every formula cell of ``sheet`` and return the anomalies found."""
        if self._index is None or len(self._index) == 0:
            return []
        hits = self._index.search(self.encoder.embed_sheet(sheet), k=self.top_k_sheets)
        candidates: List[Tuple[str, Sheet, CellAddress, str, np.ndarray]] = []
        for hit in hits:
            source, reference_sheet = self._sheets[int(hit.key)]
            if reference_sheet is sheet:
                continue
            formula_cells = reference_sheet.formula_cells()
            vectors = self._formula_vectors(reference_sheet, formula_cells)
            for (address, cell), vector in zip(formula_cells, vectors):
                candidates.append((source, reference_sheet, address, cell.formula or "", vector))
        if not candidates:
            return []

        anomalies: List[FormulaAnomaly] = []
        formula_cells = sheet.formula_cells()
        target_vectors = self._formula_vectors(sheet, formula_cells)
        for (address, cell), target_vector in zip(formula_cells, target_vectors):
            observed_template = self._template(cell.formula or "")
            if observed_template is None:
                continue
            best: Optional[Tuple[float, Tuple[str, Sheet, CellAddress, str, np.ndarray]]] = None
            for candidate in candidates:
                distance = float(np.sum((candidate[4] - target_vector) ** 2))
                if best is None or distance < best[0]:
                    best = (distance, candidate)
            if best is None or best[0] > self.max_region_distance:
                continue
            distance, (source, reference_sheet, reference_cell, reference_formula, __) = best
            expected_template = self._template(reference_formula)
            if expected_template is None or expected_template == observed_template:
                continue
            anomalies.append(
                FormulaAnomaly(
                    cell=address,
                    formula=cell.formula or "",
                    expected_template=expected_template,
                    observed_template=observed_template,
                    reference_sheet=f"{source}/{reference_sheet.name}",
                    reference_cell=reference_cell.to_a1(),
                    severity=max(0.0, 1.0 - distance / self.max_region_distance),
                )
            )
        return sorted(anomalies, key=lambda anomaly: -anomaly.severity)
