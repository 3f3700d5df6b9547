"""``repro.obs`` — end-to-end request tracing and the unified metrics tree.

Two pieces (see the submodule docstrings for the full story):

* :mod:`repro.obs.tracing` — the process-global :class:`Tracer`
  producing hierarchical, ``contextvars``-propagated spans over the
  whole request path (wire decode → batcher → serve loop → S1/S2/S3 →
  recalc), kept in a sampled ring plus an always-capture slow-trace log;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, the single
  counter/gauge/histogram tree behind ``/stats`` and the Prometheus
  ``/metrics`` exposition, and :class:`Histogram`, the one percentile
  store (a workspace's serving latency, every server histogram, and —
  through :func:`repro.obs.metrics.summarize` — a client swarm's list).

The tracer is **disabled by default**; the HTTP server enables it from
``ServerConfig`` and instrumented library layers pay one near-free
no-op call until then.
"""

from repro.obs.tracing import (
    Span,
    Trace,
    Tracer,
    current_trace_id,
    get_tracer,
    trace_tree,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Trace",
    "Tracer",
    "current_trace_id",
    "get_tracer",
    "trace_tree",
]
