"""The common predictor interface shared by Auto-Formula and all baselines."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sheet.addressing import CellAddress
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook


@dataclass
class Prediction:
    """A recommended formula for a target cell.

    ``confidence`` is in [0, 1]; the evaluation harness sweeps thresholds on
    it to draw PR curves.  ``details`` carries method-specific provenance
    (reference sheet/cell, prompt variant, ...) for analysis and debugging.
    """

    formula: str
    confidence: float = 1.0
    details: Dict[str, object] = field(default_factory=dict)


class FormulaPredictor(abc.ABC):
    """A formula-recommendation method.

    Every method is used the same way by the evaluation harness: ``fit`` it
    once on the organization's reference workbooks (the offline phase), then
    call ``predict`` per target cell (the online phase).  ``predict`` may
    return ``None`` to abstain; abstentions lower recall but not precision,
    matching the paper's metric definitions.
    """

    #: Human-readable method name used in result tables.
    name: str = "predictor"

    #: Whether the fitted corpus can be mutated in place via
    #: ``add_workbooks`` / ``remove_workbook`` / ``reindex_sheet`` after
    #: ``fit``.  Methods that
    #: leave this ``False`` are refit from scratch by the service layer
    #: (``repro.service``) whenever a workspace's corpus changes; methods
    #: that set it ``True`` guarantee that incremental mutation produces
    #: predictions identical to a fresh ``fit`` on the equivalent corpus.
    supports_incremental_corpus: bool = False

    @abc.abstractmethod
    def fit(self, reference_workbooks: Sequence[Workbook]) -> None:
        """Index / learn from the organization's existing workbooks."""

    @abc.abstractmethod
    def predict(self, target_sheet: Sheet, target_cell: CellAddress) -> Optional[Prediction]:
        """Recommend a formula for ``target_cell`` on ``target_sheet``."""

    def predict_batch(
        self, target_sheet: Sheet, target_cells: Sequence[CellAddress]
    ) -> List[Optional[Prediction]]:
        """Recommend formulas for many cells of one sheet, in order.

        The default implementation simply loops :meth:`predict`; methods
        with a vectorizable online phase (Auto-Formula) override it to share
        per-sheet work — featurization, sheet-level retrieval — across the
        whole batch.  Implementations must return exactly the predictions
        sequential ``predict`` calls would.
        """
        return [self.predict(target_sheet, target_cell) for target_cell in target_cells]
