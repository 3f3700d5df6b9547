"""Positive/negative pair generation for sheets and regions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.formula.template import normalize_formula
from repro.formula.tokenizer import FormulaSyntaxError
from repro.obs import get_tracer
from repro.sheet.addressing import CellAddress
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook
from repro.weaksup.hypothesis import HypothesisTest
from repro.weaksup.name_statistics import SheetNameStatistics


@dataclass(frozen=True)
class SheetPair:
    """A labelled pair of sheets (positive = similar, negative = dissimilar)."""

    left: Sheet
    right: Sheet
    positive: bool


@dataclass(frozen=True)
class RegionPair:
    """A labelled pair of regions, each identified by (sheet, center cell)."""

    left_sheet: Sheet
    left_center: CellAddress
    right_sheet: Sheet
    right_center: CellAddress
    positive: bool


@dataclass
class TrainingPairs:
    """All weak-supervision output consumed by the triplet trainer."""

    positive_sheet_pairs: List[SheetPair] = field(default_factory=list)
    negative_sheet_pairs: List[SheetPair] = field(default_factory=list)
    positive_region_pairs: List[RegionPair] = field(default_factory=list)
    negative_region_pairs: List[RegionPair] = field(default_factory=list)

    def summary(self) -> dict:
        """Counts of each pair kind (for logging / reports)."""
        return {
            "positive_sheet_pairs": len(self.positive_sheet_pairs),
            "negative_sheet_pairs": len(self.negative_sheet_pairs),
            "positive_region_pairs": len(self.positive_region_pairs),
            "negative_region_pairs": len(self.negative_region_pairs),
        }


def _safe_normalize(formula: Optional[str]) -> Optional[str]:
    if not formula:
        return None
    try:
        return normalize_formula(formula)
    except FormulaSyntaxError:
        return None


def _positive_region_pairs(left: Sheet, right: Sheet) -> List[RegionPair]:
    """Identical formulas at identical locations on a similar-sheet pair."""
    pairs: List[RegionPair] = []
    right_formulas = {addr: _safe_normalize(cell.formula) for addr, cell in right.formula_cells()}
    for addr, cell in left.formula_cells():
        left_formula = _safe_normalize(cell.formula)
        if left_formula is None:
            continue
        right_formula = right_formulas.get(addr)
        if right_formula is not None and right_formula == left_formula:
            pairs.append(RegionPair(left, addr, right, addr, positive=True))
    return pairs


def _negative_region_pair(
    left: Sheet, right: Sheet, positive: RegionPair
) -> Optional[RegionPair]:
    """Shift the right-hand location downward until a *different* formula is hit."""
    anchor_formula = _safe_normalize(left.get(positive.left_center).formula)
    ordered = sorted(right.formula_cells(), key=lambda item: (item[0].row, item[0].col))
    for addr, cell in ordered:
        if addr.row <= positive.right_center.row and addr == positive.right_center:
            continue
        if addr.row < positive.right_center.row:
            continue
        candidate = _safe_normalize(cell.formula)
        if candidate is not None and candidate != anchor_formula:
            return RegionPair(left, positive.left_center, right, addr, positive=False)
    # fall back: any different formula anywhere on the right sheet
    for addr, cell in ordered:
        candidate = _safe_normalize(cell.formula)
        if candidate is not None and candidate != anchor_formula:
            return RegionPair(left, positive.left_center, right, addr, positive=False)
    return None


def generate_training_pairs(
    workbooks: Sequence[Workbook],
    alpha: float = 0.05,
    max_workbook_pairs: int = 2000,
    max_negative_sheet_pairs: int = 500,
    statistics: Optional[SheetNameStatistics] = None,
    seed: int = 0,
) -> TrainingPairs:
    """Run the full weak-supervision procedure over a workbook universe.

    Positive sheet pairs come from workbook pairs passing the hypothesis
    test; negative sheet pairs from random workbook pairs sharing no sheet
    name.  Region pairs are derived from the positive sheet pairs as
    described in Section 4.2.
    """
    rng = np.random.default_rng(seed)
    with get_tracer().span("weaksup.pairs") as span:
        stats = statistics or SheetNameStatistics.from_workbooks(workbooks)
        test = HypothesisTest(stats, alpha=alpha)
        pairs = TrainingPairs()

        workbook_list = list(workbooks)
        candidate_pairs = list(itertools.combinations(range(len(workbook_list)), 2))
        if len(candidate_pairs) > max_workbook_pairs:
            chosen = rng.choice(len(candidate_pairs), size=max_workbook_pairs, replace=False)
            candidate_pairs = [candidate_pairs[int(i)] for i in chosen]

        for left_index, right_index in candidate_pairs:
            left_workbook = workbook_list[left_index]
            right_workbook = workbook_list[right_index]
            result = test.test(left_workbook, right_workbook)
            if result.similar:
                for left_sheet, right_sheet in zip(left_workbook.sheets, right_workbook.sheets):
                    pairs.positive_sheet_pairs.append(
                        SheetPair(left_sheet, right_sheet, positive=True)
                    )
                    positives = _positive_region_pairs(left_sheet, right_sheet)
                    pairs.positive_region_pairs.extend(positives)
                    for positive in positives:
                        negative = _negative_region_pair(left_sheet, right_sheet, positive)
                        if negative is not None:
                            pairs.negative_region_pairs.append(negative)
            elif not test.shares_any_name(left_workbook, right_workbook):
                if len(pairs.negative_sheet_pairs) < max_negative_sheet_pairs:
                    left_sheet = left_workbook.sheets[int(rng.integers(len(left_workbook.sheets)))]
                    right_sheet = right_workbook.sheets[int(rng.integers(len(right_workbook.sheets)))]
                    pairs.negative_sheet_pairs.append(
                        SheetPair(left_sheet, right_sheet, positive=False)
                    )
        span.set_attribute("workbooks", len(workbook_list))
        for kind, count in pairs.summary().items():
            span.set_attribute(kind, count)
    return pairs
