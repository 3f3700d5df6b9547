"""Extensions built on the similar-sheet / similar-region primitives.

The paper's conclusion lists follow-on applications of its two learned
primitives beyond formula recommendation: content auto-filling and table
error detection.  Both are functions of a fitted
:class:`~repro.core.pipeline.AutoFormula`, so they read the one
similar-sheet index (S1) and the one formula-region index (S2) the
recommender keeps up to date through every add, remove and edit:

* :func:`suggest_value` recommends a *value* for an empty cell by aligning
  it with the same-location cell on the most similar sheets;
* :func:`audit_sheet` flags formula cells whose formula template
  disagrees with the template of the best-matching formula region on
  similar sheets (a strong signal of copy/paste and range-omission
  mistakes).
"""

from repro.extensions.autofill import AutoFillSuggestion, suggest_value
from repro.extensions.error_detection import FormulaAnomaly, audit_sheet

__all__ = [
    "suggest_value",
    "AutoFillSuggestion",
    "audit_sheet",
    "FormulaAnomaly",
]
