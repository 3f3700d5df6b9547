"""The serving layer: multi-tenant workspaces over the retrieval engine.

The research harness's ``fit``-then-``predict`` interface assumes a frozen
corpus; production traffic does not.  This package redesigns the public
API around three pieces:

* :class:`FormulaService` — the facade: a registry of named
  :class:`Workspace` objects, one indexed corpus per organization/tenant,
  all sharing one trained encoder;
* :class:`Workspace` — a mutable corpus handle: ``add_workbooks`` /
  ``remove_workbook`` update the Auto-Formula predictor's indexes in
  place, with prediction parity to a fresh fit; ``edit_cell`` applies
  live single-cell edits through a per-sheet incremental recalculation
  engine (``repro.formula.engine``) and re-indexes the sheet; serving goes
  through ``recommend`` / ``serve_batch`` and the evaluation harness and
  the paper's extension applications are reachable as workspace methods;
* typed, frozen request/response objects
  (:class:`RecommendationRequest`, :class:`RecommendationResponse`)
  carrying provenance, per-request latency, and typed
  :class:`AbstainReason` values instead of bare ``None``.

Each workspace is guarded by one mutex: serves, mutations and saves of a
workspace take turns, and workspaces run side by side.
"""

from repro.service.types import (
    AbstainReason,
    RecommendationRequest,
    RecommendationResponse,
)
from repro.service.workspace import Workspace
from repro.service.facade import FormulaService

__all__ = [
    "AbstainReason",
    "RecommendationRequest",
    "RecommendationResponse",
    "Workspace",
    "FormulaService",
]
