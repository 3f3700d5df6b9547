"""What the server counts, and the ``/stats`` view of it.

Every count lives in one :class:`repro.obs.MetricsRegistry` owned by the
:class:`~repro.server.app.FormulaServer`.  The code that sees an event
holds the instrument and bumps it (``repro.server.app`` for admission and
endpoints, ``repro.server.batching`` for batches); the same instruments
feed ``/stats`` (:func:`stats_body`, below) and the Prometheus ``/metrics``
exposition (``registry.render_prometheus()``), so there is exactly one
copy of every number:

* admission counters (``server.<key>``) — ``accepted`` / ``served`` /
  ``rejected_rate_limited`` / ``rejected_queue_full`` /
  ``rejected_draining`` / ``server_errors`` requests, ``batches`` and
  ``batched_requests``; a counter exists from its first event;
* the micro-batcher's batch-size distribution (labeled counter
  ``server.batch_size{size=N}``), why each batch went out when it did
  (``server.batch_dispatch{reason=idle|busy|full|drain}``: its head found
  the workspace idle / it gathered behind a running batch / it hit
  ``max_batch_size`` / it was flushed by a drain) and the derived
  *coalescing ratio* (requests served per ``serve_batch`` dispatch);
* every frame answered without reaching a route, by why
  (``server.rejected_frames{reason=bad_request|payload_too_large|request_timeout}``);
* the **queue wait** histogram (``server.queue_wait``): enqueue →
  dispatch per request, i.e. the time spent behind the batch that was
  running when the request arrived — ≈ 0 for a request that found its
  workspace idle (there is no batch timer to wait out);
* an **in-flight gauge** (``server.inflight``): requests admitted to a
  batcher (``server.batch_admitted``) minus requests completed
  (``server.batch_completed``) — queued behind the running batch or
  executing in it — which is the number an operator wants under a
  stalled batch; ``server.queue_depth{workspace=...}`` is the same per
  workspace, and what admission control bounds;
* per-endpoint wall-clock latency (``server.endpoint{endpoint=...}``) and
  each workspace's own serving-latency histogram
  (``workspace.latency{workspace=...}``, the object the workspace
  observes on, placed in the registry);
* per workspace, ``workspace.index_bytes`` and every key of
  ``Workspace.counters()``; per cache name, every field of
  ``repro.cache.stats()`` as ``cache_<field>{cache=...}`` — mirrored as
  callback gauges (``MetricsRegistry.mirror``) at each scrape, because
  the layers below hold no registry.
"""

from __future__ import annotations

from typing import Dict

from repro.obs import MetricsRegistry
from repro.obs.metrics import summarize

_REINDEX = "workspace.reindex_"


def stats_body(registry: MetricsRegistry) -> Dict[str, object]:
    """The registry's part of the ``/stats`` body: one read of every
    instrument (``registry.collect()``), arranged under the keys the
    endpoint has always had."""
    families = {name: (kind, series) for kind, name, series in registry.collect()}

    def by_label(name: str) -> Dict[str, object]:
        """``{label value: reading}`` of a one-label family."""
        series = families.get(name, ("", {}))[1]
        return {labels[0][1]: reading for labels, reading in series.items()}

    def unlabelled(name: str, default):
        return families.get(name, ("", {}))[1].get((), default)

    counters = {
        name[len("server."):]: series[()]
        for name, (kind, series) in families.items()
        if kind == "counter" and name.startswith("server.") and () in series
    }
    batches = counters.get("batches", 0)
    coalescing = counters.get("batched_requests", 0) / batches if batches else 0.0
    # The workspace, not the batcher, collapses duplicate requests, so that
    # is where they are counted.
    counters["collapsed_duplicates"] = int(
        sum(by_label("workspace.serve_collapsed_duplicates").values())
    )
    counters["batch_dispatch"] = by_label("server.batch_dispatch")
    counters["rejected_frames"] = by_label("server.rejected_frames")
    batch_sizes = by_label("server.batch_size")
    depths = by_label("server.queue_depth")
    reindex: Dict[str, Dict[str, int]] = {}
    for name in families:
        if name.startswith(_REINDEX):
            for workspace, count in by_label(name).items():
                reindex.setdefault(workspace, {})[name[len(_REINDEX):]] = int(count)
    return {
        "counters": counters,
        "batch_size_histogram": {
            size: batch_sizes[size] for size in sorted(batch_sizes, key=int)
        },
        "coalescing_ratio": coalescing,
        "queue_depths": {name: int(depths[name]) for name in sorted(depths)},
        "in_flight": int(unlabelled("server.inflight", 0)),
        "queue_wait": unlabelled("server.queue_wait", None) or summarize((), 0, 0.0, 0.0),
        "endpoints": by_label("server.endpoint"),
        "workspaces": by_label("workspace.latency"),
        "reindex": reindex,
    }
