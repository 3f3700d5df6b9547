"""Content auto-fill: suggest values for empty cells from similar sheets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.pipeline import AutoFormula
from repro.sheet.addressing import CellAddress
from repro.sheet.cell import CellValue
from repro.sheet.sheet import Sheet


@dataclass
class AutoFillSuggestion:
    """A suggested value for an empty target cell."""

    value: CellValue
    confidence: float
    reference_sheet: str
    reference_cell: str


def suggest_value(
    predictor: AutoFormula,
    sheet: Sheet,
    cell: CellAddress,
    acceptance_threshold: float = 0.5,
) -> Optional[AutoFillSuggestion]:
    """Suggest a *value* for ``cell`` on ``sheet`` (``None`` when unsure).

    The "content auto-filling" application sketched in the paper's
    conclusion, over a fitted predictor's corpus: S1 (``predictor.sheet_hits``)
    retrieves the most similar reference sheets, the target cell's region is
    compared with the same-location region on each of them, and the value
    stored at the best-aligned cell is suggested if its squared distance is
    within ``acceptance_threshold``.  Ties go to the earlier hit.
    """
    hits = predictor.sheet_hits(sheet)
    if not hits:
        return None
    encoder = predictor.encoder
    target_vector = encoder.embed_region(sheet, cell)
    best: Optional[Tuple[float, str, Sheet]] = None
    for hit in hits:
        workbook_name, reference, __ = predictor.reference_sheet(int(hit.key))
        if cell.row >= reference.n_rows + 8 or cell.col >= reference.n_cols + 4:
            continue
        if reference.get(cell).is_empty:
            continue
        distance = float(np.sum((encoder.embed_region(reference, cell) - target_vector) ** 2))
        if best is None or distance < best[0]:
            best = (distance, workbook_name, reference)
    if best is None or best[0] > acceptance_threshold:
        return None
    distance, workbook_name, reference = best
    return AutoFillSuggestion(
        value=reference.get(cell).value,
        confidence=max(0.0, 1.0 - distance / 4.0),
        reference_sheet=f"{workbook_name}/{reference.name}",
        reference_cell=cell.to_a1(),
    )
