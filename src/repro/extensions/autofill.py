"""Content auto-fill: suggest values for empty cells from similar sheets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ann import VectorIndex
from repro.models.encoder import SheetEncoder
from repro.sheet.addressing import CellAddress
from repro.sheet.cell import CellValue
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook


@dataclass
class AutoFillSuggestion:
    """A suggested value for an empty target cell."""

    value: CellValue
    confidence: float
    reference_sheet: str
    reference_cell: str


class ValueAutoFill:
    """Suggests cell *values* by similar-sheet / similar-region alignment.

    The offline phase indexes reference sheets at sheet level; the online
    phase retrieves the most similar sheets, aligns the target cell's region
    against the same-location region on each candidate, and returns the
    value stored at the best-aligned cell.  This is the "content
    auto-filling" application sketched in the paper's conclusion, and it
    reuses the trained coarse/fine models unchanged.
    """

    def __init__(self, encoder: SheetEncoder, top_k_sheets: int = 3, acceptance_threshold: float = 0.5) -> None:
        self.encoder = encoder
        self.top_k_sheets = top_k_sheets
        self.acceptance_threshold = acceptance_threshold
        self._sheets: List[Tuple[str, Sheet]] = []
        self._index: Optional[VectorIndex] = None

    def fit(self, reference_workbooks: Sequence[Union[Workbook, Sheet]]) -> None:
        """Index the organization's existing sheets."""
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

    def suggest(self, target_sheet: Sheet, target_cell: CellAddress) -> Optional[AutoFillSuggestion]:
        """Suggest a value for ``target_cell`` (``None`` when unsure)."""
        if self._index is None or len(self._index) == 0:
            return None
        hits = self._index.search(self.encoder.embed_sheet(target_sheet), k=self.top_k_sheets)
        target_vector = self.encoder.embed_region(target_sheet, target_cell)
        best: Optional[Tuple[float, str, Sheet, CellAddress]] = None
        for hit in hits:
            source, sheet = self._sheets[int(hit.key)]
            if target_cell.row >= sheet.n_rows + 8 or target_cell.col >= sheet.n_cols + 4:
                continue
            candidate_cell = target_cell
            candidate = sheet.get(candidate_cell)
            if candidate.is_empty:
                continue
            distance = float(
                np.sum((self.encoder.embed_region(sheet, candidate_cell) - target_vector) ** 2)
            )
            if best is None or distance < best[0]:
                best = (distance, source, sheet, candidate_cell)
        if best is None or best[0] > self.acceptance_threshold:
            return None
        distance, source, sheet, cell_address = best
        return AutoFillSuggestion(
            value=sheet.get(cell_address).value,
            confidence=max(0.0, 1.0 - distance / 4.0),
            reference_sheet=f"{source}/{sheet.name}",
            reference_cell=cell_address.to_a1(),
        )
