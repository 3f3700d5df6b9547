"""Hierarchical request tracing with ``contextvars`` propagation.

One process-global :class:`Tracer` (reached through :func:`get_tracer`)
produces *spans* — named, monotonic-clock-timed intervals with free-form
attributes — that nest into per-request *traces*:

* The **current span** rides a ``contextvars.ContextVar``, so nesting
  works across ``async`` task switches for free and crosses explicit
  thread hops via :meth:`Tracer.attach` (executor dispatch).
* A span opened with no active trace becomes the **root** of a new
  trace; the HTTP layer seeds the trace id from an ``X-Trace-Id``
  request header so multi-process topologies inherit context for free.
* Finished traces land in a bounded **sampled ring** (systematic 1-in-N
  admission, deterministic — no draw from the seeded global RNG) plus an
  **always-capture slow log** for traces whose root exceeds the
  configured threshold, sampled or not.  Both are served as JSON trees
  by the server's ``GET /traces``.
* **Disabled is near-free**: ``Tracer.span`` on a disabled tracer
  returns a shared no-op context manager without allocating a span, so
  instrumented hot paths cost one method call and one dict literal.

Trace ids come from ``os.urandom`` (via ``secrets``), *not* the
``random`` module: the test suite seeds the global RNG for reproducible
workloads, and tracing must never perturb that stream.
"""

from __future__ import annotations

import contextvars
import secrets
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "get_tracer",
    "current_trace_id",
    "trace_tree",
]

#: The active span of the calling context (None outside any trace).
_CURRENT_SPAN: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class Span:
    """One named, timed interval inside a trace.

    Usable as a context manager (the normal idiom via ``tracer.span``)
    and as a plain handle for attribute stamping after the fact.  Times
    are ``time.perf_counter()`` readings — monotonic, wall-clock-drift
    free — stored raw; exports convert to durations.
    """

    __slots__ = (
        "name",
        "trace",
        "span_id",
        "parent_id",
        "start_s",
        "end_s",
        "attributes",
        "_token",
    )

    def __init__(
        self,
        name: str,
        trace: "Trace",
        span_id: int,
        parent_id: Optional[int],
        attributes: Dict[str, Any],
    ) -> None:
        self.name = name
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None
        self.attributes = attributes
        self._token: Optional[contextvars.Token] = None

    @property
    def duration_s(self) -> float:
        """Span duration (0.0 while still open)."""
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one attribute (JSON-safe values expected)."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self._token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_s = time.perf_counter()
        if exc_type is not None:
            self.attributes.setdefault("error", f"{exc_type.__name__}: {exc}")
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        if self.parent_id is None:
            self.trace.tracer._finish_trace(self.trace)


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    trace = None
    span_id = -1
    parent_id = None
    duration_s = 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _Attach:
    """Context manager installing a given span as current (thread hops)."""

    __slots__ = ("_span", "_token")

    def __init__(self, span: Optional[Span]) -> None:
        self._span = span
        self._token: Optional[contextvars.Token] = None

    def __enter__(self):
        if self._span is not None:
            self._token = _CURRENT_SPAN.set(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None


class Trace:
    """One request's span collection, keyed by a propagatable trace id."""

    __slots__ = ("trace_id", "tracer", "spans", "sampled", "_next_span_id", "_lock")

    def __init__(self, trace_id: str, tracer: "Tracer", sampled: bool) -> None:
        self.trace_id = trace_id
        self.tracer = tracer
        #: Append-ordered; concurrent appends (threads that
        #: :meth:`Tracer.attach` one span) are serialized by ``_lock``.
        self.spans: List[Span] = []
        self.sampled = sampled
        self._next_span_id = 0
        self._lock = threading.Lock()

    def new_span(
        self, name: str, parent_id: Optional[int], attributes: Dict[str, Any]
    ) -> Span:
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        span = Span(name, self, span_id, parent_id, attributes)
        with self._lock:
            self.spans.append(span)
        return span

    @property
    def root(self) -> Optional[Span]:
        for span in self.spans:
            if span.parent_id is None:
                return span
        return None

    @property
    def duration_s(self) -> float:
        root = self.root
        return root.duration_s if root is not None else 0.0


def trace_tree(trace: Trace) -> Dict[str, Any]:
    """One finished trace as a JSON-ready span tree.

    Span times are exported relative to the root's start (``start_ms``)
    so readers see request-relative offsets, not raw monotonic readings.
    """
    with trace._lock:
        spans = list(trace.spans)
    root = next((span for span in spans if span.parent_id is None), None)
    origin = root.start_s if root is not None else (spans[0].start_s if spans else 0.0)

    def node(span: Span) -> Dict[str, Any]:
        return {
            "name": span.name,
            "span_id": span.span_id,
            "parent_span_id": span.parent_id,
            "start_ms": (span.start_s - origin) * 1000.0,
            "duration_ms": span.duration_s * 1000.0,
            "attributes": dict(span.attributes),
            "children": [],
        }

    nodes = {span.span_id: node(span) for span in spans}
    roots: List[Dict[str, Any]] = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in nodes:
            nodes[span.parent_id]["children"].append(nodes[span.span_id])
        else:
            roots.append(nodes[span.span_id])
    return {
        "trace_id": trace.trace_id,
        "sampled": trace.sampled,
        "n_spans": len(spans),
        "duration_ms": trace.duration_s * 1000.0,
        "root": roots[0] if roots else None,
        "orphans": roots[1:],
    }


class Tracer:
    """Span factory plus the bounded trace stores (see module docstring)."""

    def __init__(
        self,
        enabled: bool = False,
        sample_rate: float = 1.0,
        slow_threshold_s: float = 0.25,
        max_recent: int = 64,
        max_slow: int = 32,
    ) -> None:
        self._mutex = threading.Lock()
        self._recent: Deque[Trace] = deque(maxlen=max_recent)
        self._slow: Deque[Trace] = deque(maxlen=max_slow)
        self._n_traces = 0
        self._sampled_quota = 0.0
        self.configure(
            enabled=enabled,
            sample_rate=sample_rate,
            slow_threshold_s=slow_threshold_s,
            max_recent=max_recent,
            max_slow=max_slow,
        )

    # ---------------------------------------------------------- configuration

    def configure(
        self,
        enabled: Optional[bool] = None,
        sample_rate: Optional[float] = None,
        slow_threshold_s: Optional[float] = None,
        max_recent: Optional[int] = None,
        max_slow: Optional[int] = None,
    ) -> "Tracer":
        """Reconfigure in place (only the passed knobs change)."""
        with self._mutex:
            if sample_rate is not None:
                if not 0.0 <= sample_rate <= 1.0:
                    raise ValueError("sample_rate must be in [0, 1]")
                self._sample_rate = float(sample_rate)
            if slow_threshold_s is not None:
                if slow_threshold_s < 0:
                    raise ValueError("slow_threshold_s must be non-negative")
                self._slow_threshold_s = float(slow_threshold_s)
            if max_recent is not None:
                self._recent = deque(self._recent, maxlen=max(int(max_recent), 1))
            if max_slow is not None:
                self._slow = deque(self._slow, maxlen=max(int(max_slow), 1))
            if enabled is not None:
                self._enabled = bool(enabled)
        return self

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def sample_rate(self) -> float:
        return self._sample_rate

    @property
    def slow_threshold_s(self) -> float:
        return self._slow_threshold_s

    def reset(self) -> None:
        """Drop captured traces and the sampling counters (for tests)."""
        with self._mutex:
            self._recent.clear()
            self._slow.clear()
            self._n_traces = 0
            self._sampled_quota = 0.0

    # ----------------------------------------------------------------- spans

    def span(self, name: str, trace_id: Optional[str] = None, **attributes: Any):
        """Open a span under the current context (context-manager).

        With no active trace this starts a new one — ``trace_id``
        optionally seeds its id (header propagation); nested spans ignore
        it.  On a disabled tracer, returns the shared no-op span *unless*
        an enabled-time trace is still active in this context (a config
        flip mid-request), so span trees never dangle.
        """
        parent = _CURRENT_SPAN.get()
        if not self._enabled and parent is None:
            return _NOOP_SPAN
        if parent is None or parent.trace is None:
            trace = self._new_trace(trace_id)
            return trace.new_span(name, None, attributes)
        return parent.trace.new_span(name, parent.span_id, attributes)

    def attach(self, span: Optional[Span]) -> _Attach:
        """Install ``span`` as this context's current span (thread hops).

        The executor-dispatch counterpart of contextvars' automatic
        ``async`` propagation: capture :meth:`current_span` where work is
        submitted, ``with tracer.attach(span):`` where it runs.  A
        ``None`` span attaches nothing (no-op).
        """
        if isinstance(span, _NoopSpan):
            span = None
        return _Attach(span)

    def current_span(self) -> Optional[Span]:
        """The context's active span (None outside any trace)."""
        return _CURRENT_SPAN.get()

    def current_trace_id(self) -> Optional[str]:
        """The active trace id, if any (for error bodies / headers)."""
        span = _CURRENT_SPAN.get()
        if span is None or span.trace is None:
            return None
        return span.trace.trace_id

    # ---------------------------------------------------------------- capture

    def _new_trace(self, trace_id: Optional[str]) -> Trace:
        with self._mutex:
            self._n_traces += 1
            # Systematic 1-in-N sampling: accumulate fractional quota and
            # admit whenever it crosses 1.  Deterministic (no RNG) and
            # exact in the long run: K traces admit floor(K * rate) ± 1.
            self._sampled_quota += self._sample_rate
            sampled = self._sampled_quota >= 1.0
            if sampled:
                self._sampled_quota -= 1.0
        return Trace(trace_id or secrets.token_hex(8), self, sampled)

    def _finish_trace(self, trace: Trace) -> None:
        slow = (
            self._slow_threshold_s > 0.0
            and trace.duration_s >= self._slow_threshold_s
        )
        if not trace.sampled and not slow:
            return
        with self._mutex:
            if trace.sampled:
                self._recent.append(trace)
            if slow:
                self._slow.append(trace)

    # ----------------------------------------------------------------- export

    def recent_traces(self) -> List[Dict[str, Any]]:
        """JSON trees of the sampled ring, oldest first."""
        with self._mutex:
            traces = list(self._recent)
        return [trace_tree(trace) for trace in traces]

    def slow_traces(self) -> List[Dict[str, Any]]:
        """JSON trees of the slow-trace log, oldest first."""
        with self._mutex:
            traces = list(self._slow)
        return [trace_tree(trace) for trace in traces]

    def stats(self) -> Dict[str, Any]:
        """Capture-side counters and configuration (for ``/traces``)."""
        with self._mutex:
            return {
                "enabled": self._enabled,
                "sample_rate": self._sample_rate,
                "slow_threshold_s": self._slow_threshold_s,
                "traces_started": self._n_traces,
                "recent_captured": len(self._recent),
                "slow_captured": len(self._slow),
            }


#: The process-global tracer every instrumented module shares.  Disabled
#: by default — library users pay (near) nothing; the HTTP server enables
#: it from its config, and tests/benchmarks flip it explicitly.
_GLOBAL_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer (configure via ``get_tracer().configure``)."""
    return _GLOBAL_TRACER


def current_trace_id() -> Optional[str]:
    """Module-level shortcut for the active trace id (error plumbing)."""
    return _GLOBAL_TRACER.current_trace_id()
