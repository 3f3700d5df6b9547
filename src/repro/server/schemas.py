"""Wire schemas of the network serving front-end.

Everything that crosses the socket is JSON; this module owns the mapping
between wire dictionaries and the service layer's typed objects
(:class:`~repro.service.types.RecommendationRequest` /
:class:`~repro.service.types.RecommendationResponse`,
:class:`~repro.formula.engine.RecalcReport`, workbooks).  Malformed
payloads raise :class:`SchemaError`, which the protocol layer answers
with HTTP 400 — schema violations never reach the serving core.

Sheets are the bulky part of a recommendation request, and concurrently
arriving requests from one client session usually carry the *same* sheet
bytes.  :class:`SheetInterner` canonicalizes incoming sheet payloads to a
shared :class:`~repro.sheet.sheet.Sheet` instance keyed by content hash,
which is what lets the micro-batcher group wire requests into one
``predict_batch`` call (the workspace groups by sheet identity) and lets
the predictor's per-sheet featurization caches hit across requests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache import LRU
from repro.formula.engine import RecalcReport
from repro.obs import current_trace_id, get_tracer
from repro.service.types import RecommendationRequest, RecommendationResponse
from repro.sheet.addressing import parse_cell_address
from repro.sheet.io import sheet_from_dict, workbook_from_dict
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook


class SchemaError(ValueError):
    """A wire payload that does not satisfy the protocol schema (HTTP 400).

    When raised inside a traced request, the active ``trace_id`` is
    stamped onto the exception (``.trace_id``) and appended to the
    message, so a client-side schema failure is joinable against the
    server-side trace that produced it.
    """

    def __init__(self, message: str) -> None:
        self.trace_id = current_trace_id()
        if self.trace_id is not None:
            message = f"{message} [trace_id={self.trace_id}]"
        super().__init__(message)


def _require(data: Dict[str, object], key: str, kind, what: str):
    value = data.get(key)
    if not isinstance(value, kind):
        raise SchemaError(
            f"{what}: field {key!r} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}"
        )
    return value


def _json_safe(value):
    """Coerce provenance/detail values to JSON-encodable equivalents.

    NumPy scalars expose ``item()`` (``np.float32`` distances ride along in
    provenance); everything else non-primitive is stringified rather than
    rejected, so new provenance keys can never break the wire format.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item"):
        try:
            return _json_safe(value.item())
        except Exception:
            return str(value)
    if isinstance(value, dict):
        return {str(key): _json_safe(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return str(value)


# ------------------------------------------------------------------ interning


class SheetInterner:
    """Content-addressed cache of deserialized sheets (the ``interned_sheets``
    :class:`~repro.cache.LRU`, keyed by the payload's sha256).

    Two wire requests carrying byte-identical sheet payloads resolve to the
    *same* ``Sheet`` object, so the workspace's by-sheet-identity batch
    grouping, its duplicate collapsing and the predictor's per-sheet caches
    see one sheet, not N copies.  A payload the interner has evicted decodes
    to a new object and is cold downstream: nothing below keys on content.
    Interned sheets are served read-only by construction: the server never
    mutates a request sheet, and edits go through the workbook endpoints.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self._sheets = LRU("interned_sheets", max_entries)

    def __len__(self) -> int:
        return len(self._sheets)

    @property
    def hits(self) -> int:
        """Payloads answered with an already interned sheet."""
        return self._sheets.hits

    @property
    def misses(self) -> int:
        """Payloads that had to be deserialized."""
        return self._sheets.misses

    def intern(self, sheet_data: Dict[str, object]) -> Sheet:
        """The shared ``Sheet`` for this payload (deserializing on miss)."""
        key = hashlib.sha256(
            json.dumps(sheet_data, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        sheet = self._sheets.get(key)
        if sheet is not None:
            return sheet
        try:
            sheet = sheet_from_dict(sheet_data)
        except SchemaError:
            raise
        except Exception as exc:
            raise SchemaError(f"malformed sheet payload: {exc}") from exc
        return self._sheets.put(key, sheet)


# ---------------------------------------------------------------- recommend


def decode_recommend_payload(
    data: object, interner: SheetInterner
) -> Tuple[List[RecommendationRequest], bool]:
    """Decode a recommend body into typed requests.

    Accepts either one request object (``{"sheet": ..., "cell": "D41"}``)
    or a batch (``{"requests": [...]}``).  Returns the requests plus
    whether the caller used the single-object shape (the response mirrors
    the request shape).
    """
    with get_tracer().span("wire.decode") as span:
        if not isinstance(data, dict):
            raise SchemaError("recommend body must be a JSON object")
        hits_before = interner.hits
        if "requests" in data:
            raw_requests = _require(data, "requests", list, "recommend body")
            if not raw_requests:
                raise SchemaError("recommend body: 'requests' must not be empty")
            decoded = [_decode_one_request(item, interner) for item in raw_requests], False
        else:
            decoded = [_decode_one_request(data, interner)], True
        span.set_attribute("n_requests", len(decoded[0]))
        span.set_attribute("interner_hits", interner.hits - hits_before)
        return decoded


def _decode_one_request(
    data: object, interner: SheetInterner
) -> RecommendationRequest:
    if not isinstance(data, dict):
        raise SchemaError("recommend request must be a JSON object")
    sheet_data = _require(data, "sheet", dict, "recommend request")
    cell = _require(data, "cell", str, "recommend request")
    request_id = data.get("request_id")
    if request_id is not None and not isinstance(request_id, str):
        raise SchemaError("recommend request: 'request_id' must be a string")
    try:
        address = parse_cell_address(cell)
    except Exception as exc:
        raise SchemaError(f"recommend request: bad cell address {cell!r}: {exc}") from exc
    return RecommendationRequest(
        sheet=interner.intern(sheet_data), cell=address, request_id=request_id
    )


def encode_response(
    response: RecommendationResponse,
    batch_size: int = 1,
    queue_seconds: float = 0.0,
) -> Dict[str, object]:
    """Serialize a served response, with server-side serving attribution.

    ``batch_size`` is the size of the coalesced batch this request rode in
    and ``queue_seconds`` the time it spent in the ingress queue before
    dispatch — together with ``latency_seconds`` (the amortized predictor
    share) a client can attribute its end-to-end time.
    """
    return {
        "request_id": response.request.request_id,
        "workspace": response.workspace,
        "method": response.method,
        "formula": response.formula,
        "confidence": _json_safe(response.confidence),
        "abstain_reason": (
            response.abstain_reason.value if response.abstain_reason is not None else None
        ),
        "provenance": _json_safe(response.provenance),
        "latency_seconds": _json_safe(response.latency_seconds),
        "batch_size": batch_size,
        "queue_seconds": queue_seconds,
    }


# ----------------------------------------------------------------- mutations


@dataclass(frozen=True)
class EditCellRequest:
    """Wire form of :meth:`Workspace.edit_cell` (exactly one operand)."""

    workbook: str
    sheet: str
    cell: str
    value: Optional[object] = None
    formula: Optional[str] = None

    @classmethod
    def from_wire(cls, data: object) -> "EditCellRequest":
        if not isinstance(data, dict):
            raise SchemaError("edit-cell body must be a JSON object")
        workbook = _require(data, "workbook", str, "edit-cell body")
        sheet = _require(data, "sheet", str, "edit-cell body")
        cell = _require(data, "cell", str, "edit-cell body")
        has_value = "value" in data
        formula = data.get("formula")
        if has_value == (formula is not None):
            raise SchemaError("edit-cell body: provide exactly one of 'value'/'formula'")
        if formula is not None and not isinstance(formula, str):
            raise SchemaError("edit-cell body: 'formula' must be a string")
        try:
            parse_cell_address(cell)
        except Exception as exc:
            raise SchemaError(f"edit-cell body: bad cell address {cell!r}: {exc}") from exc
        return cls(
            workbook=workbook,
            sheet=sheet,
            cell=cell,
            value=data.get("value"),
            formula=formula,
        )


def encode_recalc_report(report: RecalcReport) -> Dict[str, object]:
    """Serialize the engine's recalculation outcome."""
    return {
        "recalculated": int(report.recalculated),
        "errored": int(report.errored),
        "total": int(report.total),
    }


def decode_workbooks_payload(data: object) -> List[Workbook]:
    """Decode an add-workbooks body (``{"workbooks": [...]}``)."""
    if not isinstance(data, dict):
        raise SchemaError("workbooks body must be a JSON object")
    raw_workbooks = _require(data, "workbooks", list, "workbooks body")
    if not raw_workbooks:
        raise SchemaError("workbooks body: 'workbooks' must not be empty")
    workbooks = []
    for item in raw_workbooks:
        if not isinstance(item, dict):
            raise SchemaError("workbooks body: each workbook must be a JSON object")
        try:
            workbooks.append(workbook_from_dict(item))
        except Exception as exc:
            raise SchemaError(f"malformed workbook payload: {exc}") from exc
    return workbooks


def encode_error(
    reason: str,
    detail: str = "",
    retry_after: Optional[float] = None,
    trace_id: Optional[str] = None,
) -> Dict[str, object]:
    """The uniform error body (``error`` is a machine-readable slug).

    ``trace_id`` (when a trace is active) lets a client join its failure
    against the server-side trace; the dispatcher also stamps it onto
    any error body it builds from an exception.
    """
    body: Dict[str, object] = {"error": reason}
    if detail:
        body["detail"] = detail
    if retry_after is not None:
        body["retry_after_seconds"] = retry_after
    if trace_id is not None:
        body["trace_id"] = trace_id
    return body
