"""Table error detection: flag formulas that disagree with similar sheets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.pipeline import AutoFormula
from repro.formula.template import extract_template
from repro.formula.tokenizer import FormulaSyntaxError
from repro.sheet.addressing import CellAddress
from repro.sheet.sheet import Sheet


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


def _template(formula: str) -> Optional[str]:
    try:
        return extract_template(formula).signature
    except FormulaSyntaxError:
        return None


def audit_sheet(
    predictor: AutoFormula, sheet: Sheet, max_region_distance: float = 0.5
) -> List[FormulaAnomaly]:
    """Audit every formula cell of ``sheet`` against a fitted predictor's corpus.

    S1 (``predictor.sheet_hits``) retrieves the most similar reference
    sheets, ``sheet`` itself left out; S2 (``predict_batch_scored`` with
    ``adapt=False``) finds each formula cell's best-matching formula region
    among them, ties going to the earlier hit, then the earlier formula.
    Where the two formula *templates* differ — e.g. ``SUM(_:_)`` on the
    audited sheet where the similar sheet uses ``SUM(_:_)+_`` or a
    differently-shaped range — the cell is an anomaly, with a severity that
    grows as the regions get closer (a near-identical region with a
    different template is a stronger signal than a loose match).  Regions
    farther apart than ``max_region_distance`` are not compared.  Returns
    the anomalies, most severe first.
    """
    references = {}
    for hit in predictor.sheet_hits(sheet):
        reference = predictor.reference_sheet(int(hit.key))
        if reference[1] is not sheet:
            references[int(hit.key)] = reference
    sheet_ids = list(references)
    formula_cells = sheet.formula_cells()
    scored = predictor.predict_batch_scored(
        sheet, [address for address, __ in formula_cells], sheet_ids, adapt=False
    )
    anomalies: List[FormulaAnomaly] = []
    for (address, cell), best in zip(formula_cells, scored):
        if best is None or best.distance > max_region_distance:
            continue
        observed_template = _template(cell.formula or "")
        if observed_template is None:
            continue
        workbook_name, reference_sheet, formulas = references[sheet_ids[best.sheet_rank]]
        reference_cell, reference_formula = formulas[best.formula_index]
        expected_template = _template(reference_formula)
        if expected_template is None or expected_template == observed_template:
            continue
        anomalies.append(
            FormulaAnomaly(
                cell=address,
                formula=cell.formula or "",
                expected_template=expected_template,
                observed_template=observed_template,
                reference_sheet=f"{workbook_name}/{reference_sheet.name}",
                reference_cell=reference_cell.to_a1(),
                severity=max(0.0, 1.0 - best.distance / max_region_distance),
            )
        )
    return sorted(anomalies, key=lambda anomaly: -anomaly.severity)
