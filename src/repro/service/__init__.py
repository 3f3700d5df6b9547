"""The serving layer: multi-tenant workspaces over the retrieval engine.

The research harness's ``fit``-then-``predict`` interface assumes a frozen
corpus; production traffic does not.  This package redesigns the public
API around three pieces:

* :class:`FormulaService` — the facade: a registry of named
  :class:`Workspace` objects, one indexed corpus per organization/tenant,
  all sharing one trained encoder;
* :class:`Workspace` — a mutable corpus handle: ``add_workbooks`` /
  ``remove_workbook`` update the predictor's indexes in place (for
  Auto-Formula) or refit (for baselines), with prediction parity to a
  fresh fit either way; ``edit_cell`` applies live single-cell edits
  through a per-sheet incremental recalculation engine
  (``repro.formula.engine``) and re-indexes the workbook; serving goes
  through ``recommend`` / ``serve_batch`` and the evaluation harness and
  the paper's extension applications are reachable as workspace methods;
* typed, frozen request/response objects
  (:class:`RecommendationRequest`, :class:`RecommendationResponse`)
  carrying provenance, per-request latency, and typed
  :class:`AbstainReason` values instead of bare ``None``;
* :class:`~repro.service.concurrency.ReadWriteLock` — the
  writer-preferring reader-writer lock a workspace uses so concurrent
  serves interleave safely with corpus mutation.
"""

from repro.service.types import (
    AbstainReason,
    RecommendationRequest,
    RecommendationResponse,
)
from repro.service.concurrency import ReadWriteLock
from repro.service.workspace import Workspace
from repro.service.facade import FormulaService

__all__ = [
    "AbstainReason",
    "RecommendationRequest",
    "RecommendationResponse",
    "ReadWriteLock",
    "Workspace",
    "FormulaService",
]
