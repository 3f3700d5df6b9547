"""Server observability: admission counters, batch shape, queue depth.

One :class:`ServerMetrics` instance per server fronts everything the
``/stats`` endpoint reports, but since PR 10 it is a thin facade over a
:class:`repro.obs.MetricsRegistry` — every counter, gauge and histogram
lives in the registry's dotted-name tree, so the same instruments feed
``/stats`` (via :meth:`snapshot`), the Prometheus ``/metrics``
exposition (via ``registry.render_prometheus()``) and ad-hoc debugging
through ``registry.snapshot()``:

* admission counters (``server.<key>``) — accepted / rejected (by
  reason) / shed-on-drain / served / errored requests;
* the micro-batcher's batch-size distribution (labeled counter
  ``server.batch_size{size=N}``), why each batch went out when it did
  (``server.batch_dispatch{reason=idle|busy|full|drain}``: its head found
  the workspace idle / it gathered behind a running batch / it hit
  ``max_batch_size`` / it was flushed by a drain) and the derived
  *coalescing ratio* (requests served per ``serve_batch`` dispatch);
* the **queue wait** histogram (``server.queue_wait``): enqueue →
  dispatch per request, i.e. the time spent behind the batch that was
  running when the request arrived — ≈ 0 for a request that found its
  workspace idle (there is no batch timer to wait out);
* an **in-flight gauge** (``server.inflight``): requests admitted to a
  batcher minus requests completed — queued behind the running batch or
  executing in it — which is the number an operator wants under a
  stalled batch, and what admission control bounds per workspace;
* per-endpoint wall-clock latency as registry histograms
  (``server.endpoint{endpoint=...}``) backed by bounded-memory
  reservoir :class:`~repro.evaluation.latency.LatencyRecorder`
  instances — the serving front-end and the offline benchmarks report
  latency through one code path.

Counters are touched from the event loop *and* from executor threads
(batch completion); the registry's instruments are individually
mutex-guarded so no shared big lock is needed.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Sequence

from repro.evaluation.latency import LatencyRecorder
from repro.obs import Histogram, MetricsRegistry

#: Counter keys with defined meanings (others may be counted ad hoc).
ACCEPTED = "accepted"
SERVED = "served"
REJECTED_RATE_LIMITED = "rejected_rate_limited"
REJECTED_QUEUE_FULL = "rejected_queue_full"
REJECTED_DRAINING = "rejected_draining"
SERVER_ERRORS = "server_errors"
BATCHES = "batches"
BATCHED_REQUESTS = "batched_requests"
COLLAPSED_DUPLICATES = "collapsed_duplicates"

#: In-flight accounting (satellite: the true queue-depth fix).
ADMITTED_TO_BATCHER = "batch_admitted"
COMPLETED_BY_BATCHER = "batch_completed"

#: Stats dicts kept by the layers below, mirrored field by field as
#: callback gauges ``<family>_<field>{<label>=<name>}`` (see
#: :meth:`ServerMetrics.mirror_stats`): per workspace
#: ``AutoFormula.region_store_stats`` (S3 candidate lookups that found their
#: cell stored / not, cells held), ``Workspace.reindex_stats`` (edits that
#: left the sheet's formula list as it was / changed it / fell back to a
#: full refit),
#: ``Workspace.serve_stats`` (the workspace, not the batcher, collapses
#: duplicate requests, so that is where they are counted) and
#: ``Workspace.log_stats`` (torn mutation-log tails dropped at load); per cache name
#: ``repro.cache.stats()``.
_MIRRORED_STATS = {
    "workspace.region_store": ("hit", "miss", "cells"),
    "workspace.reindex": ("same", "changed", "refit"),
    "workspace.serve": (COLLAPSED_DUPLICATES,),
    "persistence.log": ("torn_tail_total",),
    "cache": ("hit", "miss", "evict", "size"),
}


def _by_label(readings: Dict) -> Dict[str, object]:
    """``{label value: reading}`` of a one-label instrument family."""
    return {labels[0][1]: reading for labels, reading in readings.items()}


class ServerMetrics:
    """Thread-safe aggregate of the serving front-end's vital signs."""

    def __init__(
        self,
        latency_window: int = 8192,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._mutex = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._latency_window = latency_window
        # Key sets drive snapshot() shape; values always come from the
        # registry so there is exactly one copy of every number.
        self._counter_keys = set()
        self._memory_gauges: Dict[str, Callable[[], Dict[str, object]]] = {}
        self._queue_wait = self.registry.histogram(
            "server.queue_wait", reservoir_size=latency_window
        )
        self.registry.gauge(
            "server.inflight",
            fn=lambda: self.counter(ADMITTED_TO_BATCHER)
            - self.counter(COMPLETED_BY_BATCHER),
        )

    # ------------------------------------------------------------- recording

    def count(self, key: str, n: int = 1) -> None:
        with self._mutex:
            self._counter_keys.add(key)
        self.registry.counter(f"server.{key}").inc(n)

    def counter(self, key: str) -> int:
        return self.registry.counter_value(f"server.{key}")

    def observe_batch(self, size: int, reason: str) -> None:
        """One ``serve_batch`` dispatch that carried ``size`` requests and
        went out for ``reason`` (``idle`` / ``busy`` / ``full`` / ``drain``)."""
        self.count(BATCHES)
        self.count(BATCHED_REQUESTS, size)
        self.registry.counter("server.batch_size", labels={"size": str(size)}).inc()
        self.registry.counter("server.batch_dispatch", labels={"reason": reason}).inc()

    def observe_queue_wait(self, seconds: float) -> None:
        """One request's enqueue → dispatch time: what it spent behind a
        running batch (≈ 0 when it found its workspace idle)."""
        self._queue_wait.observe(max(seconds, 0.0))

    def endpoint_recorder(self, endpoint: str) -> Histogram:
        """The (lazily created) latency histogram for one endpoint label."""
        return self.registry.histogram(
            "server.endpoint",
            labels={"endpoint": endpoint},
            reservoir_size=self._latency_window,
        )

    def record_endpoint(self, endpoint: str, seconds: float) -> None:
        self.endpoint_recorder(endpoint).observe(max(seconds, 0.0))

    def register_queue_gauge(self, name: str, depth: Callable[[], int]) -> None:
        """Register a live in-flight-depth callback (one per workspace batcher).

        The callback should report *admitted minus completed* (see
        :meth:`repro.server.batching.WorkspaceBatcher.queue_depth`), not a
        raw queue length, which misses the requests of the running batch.
        Re-registering a name rebinds the callback.
        """
        self.registry.gauge(
            "server.queue_depth", labels={"workspace": name}, fn=depth
        )

    def remove_queue_gauge(self, name: str) -> None:
        """Drop the depth gauge of a retired batcher."""
        self.registry.remove("server.queue_depth", labels={"workspace": name})

    def register_memory_gauge(
        self, name: str, stats: Callable[[], Dict[str, object]]
    ) -> None:
        """Register an index-memory-footprint callback (one per workspace).

        The callback returns a JSON-ready dict (see
        :meth:`repro.service.workspace.Workspace.memory_stats` — bytes by
        array, tombstone overhead) and is
        sampled at snapshot time so ``/stats`` reports the live footprint.
        A scalar ``workspace.index_bytes{workspace=...}`` gauge mirrors
        the ``total_bytes`` field into the registry for Prometheus.
        Re-registering a name replaces the callback.
        """
        with self._mutex:
            self._memory_gauges[name] = stats

        def total_bytes() -> int:
            return int(stats().get("total_bytes", 0))  # type: ignore[call-overload]

        self.registry.gauge(
            "workspace.index_bytes", labels={"workspace": name}, fn=total_bytes
        )

    def mirror_stats(
        self,
        family: str,
        name: str,
        stats: Callable[[], Dict[str, int]],
        label: str = "workspace",
    ) -> None:
        """Mirror ``stats()`` — one of the ``_MIRRORED_STATS`` families —
        into the registry.  The layers below have no registry handle, so
        their counts are read through callback gauges, not registry
        counters.  Workspace-labelled gauges are pruned together with the
        workspace's memory gauge; registering again rebinds the callback."""
        for field in _MIRRORED_STATS[family]:
            self.registry.gauge(
                f"{family}_{field}",
                labels={label: name},
                fn=lambda field=field: stats()[field],
            )

    def mirror_cache_stats(self, stats: Callable[[], Dict[str, Dict[str, int]]]) -> None:
        """Mirror :func:`repro.cache.stats`: one gauge family
        ``cache_hit|miss|evict|size{cache=...}`` over every cache name alive
        now (a name whose instances have all gone reads NaN, like any gauge
        whose callback fails)."""
        for cache in stats():
            self.mirror_stats("cache", cache, lambda cache=cache: stats()[cache], label="cache")

    def prune_memory_gauges(self, keep: Sequence[str]) -> None:
        """Drop the gauges of workspaces that no longer exist."""
        keep_set = set(keep)
        with self._mutex:
            stale = [name for name in self._memory_gauges if name not in keep_set]
            for name in stale:
                del self._memory_gauges[name]
        for name in stale:
            labels = {"workspace": name}
            self.registry.remove("workspace.index_bytes", labels=labels)
            self.registry.remove("workspace.latency", labels=labels)
            for family, fields in _MIRRORED_STATS.items():
                for field in fields:
                    self.registry.remove(f"{family}_{field}", labels=labels)

    # ------------------------------------------------------------- reporting

    @property
    def coalescing_ratio(self) -> float:
        """Mean requests per dispatched batch (0.0 before the first batch)."""
        batches = self.counter(BATCHES)
        if not batches:
            return 0.0
        return self.counter(BATCHED_REQUESTS) / batches

    def inflight(self) -> int:
        """Requests admitted to batchers whose futures have not resolved."""
        return self.counter(ADMITTED_TO_BATCHER) - self.counter(COMPLETED_BY_BATCHER)

    def snapshot(self) -> Dict[str, object]:
        """One JSON-ready view of every metric (the ``/stats`` body)."""
        with self._mutex:
            counter_keys = sorted(self._counter_keys)
            memory_gauges = dict(self._memory_gauges)
        counters = {key: self.counter(key) for key in counter_keys}
        counters[COLLAPSED_DUPLICATES] = int(
            sum(self.registry.gauge_values("workspace.serve_collapsed_duplicates").values())
        )
        counters["batch_dispatch"] = _by_label(
            self.registry.counter_values("server.batch_dispatch")
        )
        batch_sizes = _by_label(self.registry.counter_values("server.batch_size"))
        depths = _by_label(self.registry.gauge_values("server.queue_depth"))
        batches = counters.get(BATCHES, 0)
        coalescing = counters.get(BATCHED_REQUESTS, 0) / batches if batches else 0.0
        return {
            "counters": counters,
            "batch_size_histogram": {
                size: batch_sizes[size] for size in sorted(batch_sizes, key=int)
            },
            "coalescing_ratio": coalescing,
            "queue_depths": {name: int(depths[name]) for name in sorted(depths)},
            "in_flight": self.inflight(),
            "queue_wait": self._queue_wait.summary(),
            "index_memory": {name: stats() for name, stats in memory_gauges.items()},
            "endpoints": self._endpoint_summaries(),
        }

    def _endpoint_summaries(self) -> Dict[str, Dict[str, float]]:
        snapshot = self.registry.snapshot()
        server_tree = snapshot.get("server", {})
        endpoint_tree = server_tree.get("endpoint", {}) if isinstance(server_tree, dict) else {}
        summaries: Dict[str, Dict[str, float]] = {}
        if isinstance(endpoint_tree, dict):
            for label_text, summary in endpoint_tree.items():
                # label_text looks like "endpoint=recommend".
                name = label_text.split("=", 1)[1] if "=" in label_text else label_text
                summaries[name] = summary
        return summaries
