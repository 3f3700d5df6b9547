"""A unified metrics registry: counters, gauges, histograms, one tree.

:class:`MetricsRegistry` is the one place the server's counts live and
the one thing ``/stats`` and ``/metrics`` read.  Three instruments, each
individually mutex-guarded (they are touched from the event loop *and*
from executor threads, so there is no shared big lock):

* :class:`Counter` — monotonic increments (the N-thread hammer test
  asserts none is lost);
* :class:`Gauge` — a settable value *or* a zero-argument callback
  sampled at read time (queue depths, in-flight requests, index bytes);
* :class:`Histogram` — running count / total / max over every
  observation plus one bounded reservoir for percentiles: the only
  percentile store in the repository.

The module imports nothing from ``repro``, so any layer may hold a bare
:class:`Counter` or :class:`Histogram` of its own (a workspace's serving
latency, an index's fallback counts).  Layers below the server have no
registry: each exposes what it counts as one flat ``counters()`` dict
keyed by full metric name, and the server mirrors whatever keys it finds
(:meth:`MetricsRegistry.mirror`) and lets go of what belonged to a
dropped workspace (:meth:`MetricsRegistry.prune`).

Instruments are keyed by dotted name plus an optional frozen label map
(``counter("server.batch_size", labels={"size": "4"})``), mirroring the
Prometheus data model.  :meth:`MetricsRegistry.collect` is the structured
read everything else is built on; :meth:`MetricsRegistry.snapshot`
renders one JSON-ready tree and :meth:`MetricsRegistry.render_prometheus`
the text exposition format (``GET /metrics``) with histograms exported as
Prometheus *summaries* (quantiles + ``_count`` + ``_sum``).
"""

from __future__ import annotations

import random
import re
import threading
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "RESERVOIR_SIZE", "summarize"]

#: Samples a :class:`Histogram` keeps for its percentiles: the smallest
#: power of two at which the highest percentile reported (p99) still has
#: ten samples beyond it.  Percentiles are exact up to this many
#: observations and a uniform sample of the whole stream after.
RESERVOIR_SIZE = 1024

#: Sorted label items of one instrument (``()`` for an unlabelled one).
_Labels = Tuple[Tuple[str, str], ...]
#: One instrument key: (dotted name, sorted label items).
_Key = Tuple[str, _Labels]

_NAME_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_.]*$")
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _make_key(name: str, labels: Optional[Mapping[str, str]]) -> _Key:
    if not _NAME_OK.match(name):
        raise ValueError(
            f"metric name {name!r} must be dotted identifiers ([a-zA-Z0-9_.])"
        )
    if not labels:
        return name, ()
    return name, tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _prom_name(name: str) -> str:
    return _PROM_BAD.sub("_", name)


def _prom_labels(labels: _Labels, extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def summarize(
    samples: Sequence[float], count: int, total: float, maximum: float
) -> Dict[str, float]:
    """The latency summary every reader gets: ``count`` / ``total`` /
    ``maximum`` as given (running aggregates of a stream, or ``len`` /
    ``sum`` / ``max`` of a finished list) and p50 / p95 / p99 of ``samples``.

    Percentiles interpolate linearly between closest ranks (the estimator
    of ``numpy.percentile``'s default), so a small sample reports a p50
    *between* its two middle values; nearest-rank p99 over a few dozen
    samples simply repeated the max, which made tail regressions invisible.
    ``window_count`` says how many samples the percentiles saw, which on a
    long-lived histogram is fewer than ``count``.
    """
    p50, p95, p99 = _interpolate(sorted(samples), (0.5, 0.95, 0.99))
    return {
        "count": float(count),
        "window_count": float(len(samples)),
        "total_seconds": total,
        "mean_seconds": total / count if count else 0.0,
        "p50_seconds": p50,
        "p95_seconds": p95,
        "p99_seconds": p99,
        "max_seconds": maximum,
    }


def _interpolate(ordered: Sequence[float], fractions: Sequence[float]) -> List[float]:
    """Interpolated percentiles of an ascending sample (0.0 when empty)."""
    if not ordered:
        return [0.0 for __ in fractions]
    last = len(ordered) - 1
    values = []
    for fraction in fractions:
        position = fraction * last
        lower = int(position)
        upper = min(lower + 1, last)
        weight = position - lower
        values.append(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)
    return values


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("_mutex", "_value")

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge for ups and downs")
        with self._mutex:
            self._value += n

    @property
    def value(self) -> int:
        with self._mutex:
            return self._value


class Gauge:
    """A point-in-time value: either set directly or sampled via callback."""

    __slots__ = ("_mutex", "_value", "_fn")

    def __init__(self, fn: Optional[Callable[[], Union[int, float]]] = None) -> None:
        self._mutex = threading.Lock()
        self._value: Union[int, float] = 0
        self._fn = fn

    def set(self, value: Union[int, float]) -> None:
        with self._mutex:
            if self._fn is not None:
                raise RuntimeError("callback gauges cannot be set directly")
            self._value = value

    def set_callback(self, fn: Optional[Callable[[], Union[int, float]]]) -> None:
        with self._mutex:
            self._fn = fn

    @property
    def value(self) -> Union[int, float]:
        with self._mutex:
            fn = self._fn
            if fn is None:
                return self._value
        # Callbacks run outside the gauge mutex: they may take their own
        # locks (workspace read locks) and must not nest under ours.
        try:
            return fn()
        except Exception:
            return float("nan")


class Histogram:
    """Observed durations: exact aggregates, reservoir percentiles.

    ``count``, ``total`` / ``mean`` and ``max`` are running aggregates over
    *every* observation.  Percentiles come from a reservoir of
    :data:`RESERVOIR_SIZE` samples kept by Vitter's Algorithm R: the
    stream verbatim while it fits, a uniform sample of the **whole**
    stream after, so memory is bounded however long the owner lives.  The
    replacement draws come from a private seeded ``random.Random`` — never
    the global RNG, whose stream the test suite seeds for reproducible
    workloads.

    Observing and reading are guarded by a mutex: concurrent serving
    threads all observe on their workspace's shared histogram.
    """

    __slots__ = ("_mutex", "_count", "_total", "_max", "_samples", "_rng")

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        # A list, not a deque: Algorithm R replaces random slots, and
        # deque indexing is O(n) while list indexing is O(1).
        self._samples: List[float] = []
        self._rng = random.Random(0x0B5E55)

    def __len__(self) -> int:
        """Observations ever made (not just those in the reservoir)."""
        return self._count

    def observe(self, seconds: float) -> None:
        """Record one duration (a request's wall clock, a queue wait)."""
        if seconds < 0:
            raise ValueError("a duration must be non-negative")
        seconds = float(seconds)
        with self._mutex:
            self._count += 1
            self._total += seconds
            if seconds > self._max:
                self._max = seconds
            if len(self._samples) < RESERVOIR_SIZE:
                self._samples.append(seconds)
            else:
                # Algorithm R: the i-th observation replaces a random slot
                # with probability RESERVOIR_SIZE / i, keeping the reservoir
                # a uniform sample of everything ever observed.
                slot = self._rng.randrange(self._count)
                if slot < RESERVOIR_SIZE:
                    self._samples[slot] = seconds

    def percentile(self, fraction: float) -> float:
        """One interpolated percentile, ``fraction`` in [0, 1] (see
        :func:`summarize`; read p50 / p95 / p99 together from
        :meth:`summary`, which takes them from one snapshot)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        with self._mutex:
            samples = list(self._samples)
        return _interpolate(sorted(samples), (fraction,))[0]

    def summary(self) -> Dict[str, float]:
        """:func:`summarize` of one consistent snapshot: percentiles read
        one call at a time could straddle a concurrent ``observe``."""
        with self._mutex:
            count, total, maximum = self._count, self._total, self._max
            samples = list(self._samples)
        return summarize(samples, count, total, maximum)


class MetricsRegistry:
    """The process/server-wide instrument tree (see module docstring)."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._counters: Dict[_Key, Counter] = {}
        self._gauges: Dict[_Key, Gauge] = {}
        self._histograms: Dict[_Key, Histogram] = {}

    # ------------------------------------------------------------ get-or-make

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        key = _make_key(name, labels)
        with self._mutex:
            instrument = self._counters.get(key)
            if instrument is None:
                self._check_free(name, self._counters)
                instrument = self._counters[key] = Counter()
            return instrument

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        fn: Optional[Callable[[], Union[int, float]]] = None,
    ) -> Gauge:
        """Get or create a gauge; ``fn`` (re)binds a callback either way."""
        key = _make_key(name, labels)
        with self._mutex:
            instrument = self._gauges.get(key)
            if instrument is None:
                self._check_free(name, self._gauges)
                instrument = self._gauges[key] = Gauge(fn)
            elif fn is not None:
                instrument.set_callback(fn)
            return instrument

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        existing: Optional[Histogram] = None,
    ) -> Histogram:
        """Get or create a histogram; ``existing`` puts a histogram its
        owner already observes on (a workspace's serving latency) at the
        key instead, so it is exposed without recording twice."""
        key = _make_key(name, labels)
        with self._mutex:
            instrument = self._histograms.get(key)
            if instrument is None:
                self._check_free(name, self._histograms)
            if instrument is None or existing is not None:
                # "is not None": an empty Histogram has len() 0 and is falsy.
                instrument = existing if existing is not None else Histogram()
                self._histograms[key] = instrument
            return instrument

    def mirror(
        self,
        read: Callable[[], Mapping[str, Union[int, float]]],
        labels: Mapping[str, str],
    ) -> None:
        """Expose every key of ``read()`` — a layer's ``counters()`` — as
        the callback gauge ``<key>{labels}``.  A key the layer adds later
        appears at the next call, which also rebinds the callbacks; a key
        ``read()`` stops reporting reads NaN until its label is pruned."""
        for key in read():
            self.gauge(key, labels, fn=lambda key=key: read()[key])

    def remove(self, name: str, labels: Optional[Mapping[str, str]] = None) -> None:
        """Drop an instrument (the depth gauge of a retired batcher)."""
        key = _make_key(name, labels)
        with self._mutex:
            for store in (self._counters, self._gauges, self._histograms):
                store.pop(key, None)

    def prune(self, label: str, keep: Iterable[str]) -> None:
        """Drop every instrument whose ``label`` names something not in
        ``keep``: what belonged to a workspace that has been dropped, a
        cache whose last instance has gone."""
        keep = set(keep)
        with self._mutex:
            for store in (self._counters, self._gauges, self._histograms):
                for key in list(store):
                    if any(k == label and v not in keep for k, v in key[1]):
                        del store[key]

    def names(self) -> List[str]:
        with self._mutex:
            seen = {key[0] for store in (self._counters, self._gauges, self._histograms) for key in store}
        return sorted(seen)

    def _check_free(self, name: str, target: Dict[_Key, Any]) -> None:
        """One name = one instrument kind (labels may vary, kinds may not)."""
        for store in (self._counters, self._gauges, self._histograms):
            if store is target:
                continue
            if any(key[0] == name for key in store):
                raise ValueError(
                    f"metric {name!r} is already registered as a different kind"
                )

    # --------------------------------------------------------------- reading

    def counter_value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> int:
        """The counter's value, 0 if it was never created."""
        key = _make_key(name, labels)
        with self._mutex:
            instrument = self._counters.get(key)
        return instrument.value if instrument is not None else 0

    def collect(self) -> List[Tuple[str, str, Dict[_Labels, Any]]]:
        """Every instrument, read once: ``(kind, name, {labels: reading})``
        per name — counters, then gauges, then histograms, each by name.

        A reading is a counter's value, a gauge's sample or a histogram's
        :meth:`~Histogram.summary`; ``labels`` are the sorted label items
        (``()`` for an unlabelled instrument).  What ``/stats``,
        :meth:`snapshot` and :meth:`render_prometheus` are made from.
        """
        with self._mutex:
            stores = (
                ("counter", dict(self._counters)),
                ("gauge", dict(self._gauges)),
                ("histogram", dict(self._histograms)),
            )
        families: List[Tuple[str, str, Dict[_Labels, Any]]] = []
        for kind, store in stores:
            by_name: Dict[str, Dict[_Labels, Any]] = {}
            for (name, labels), instrument in sorted(store.items()):
                by_name.setdefault(name, {})[labels] = (
                    instrument.summary() if kind == "histogram" else instrument.value
                )
            families.extend((kind, name, series) for name, series in by_name.items())
        return families

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready tree of every instrument, nested by dotted name.

        Leaves are counter values, gauge samples, or histogram summary
        dicts; labeled instruments render as ``{label=value,...}`` leaf
        keys next to their unlabeled sibling.
        """
        tree: Dict[str, Any] = {}
        for __, name, series in self.collect():
            *parents, leaf = name.split(".")
            node = tree
            for part in parents:
                if not isinstance(node.get(part), dict):
                    node[part] = {}
                node = node[part]
            for labels, reading in series.items():
                if labels:
                    if not isinstance(node.get(leaf), dict):
                        node[leaf] = {}
                    node[leaf][",".join(f"{k}={v}" for k, v in labels)] = reading
                else:
                    node[leaf] = reading
        return tree

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of the whole registry."""
        lines: List[str] = []
        for kind, name, series in self.collect():
            if kind == "counter":
                prom = _prom_name(name) + "_total"
                lines.append(f"# TYPE {prom} counter")
                lines.extend(
                    f"{prom}{_prom_labels(labels)} {value}" for labels, value in series.items()
                )
            elif kind == "gauge":
                prom = _prom_name(name)
                lines.append(f"# TYPE {prom} gauge")
                lines.extend(
                    f"{prom}{_prom_labels(labels)} {float(value):g}"
                    for labels, value in series.items()
                )
            else:
                prom = _prom_name(name) + "_seconds"
                lines.append(f"# TYPE {prom} summary")
                for labels, summary in series.items():
                    for fraction, key in ((0.5, "p50_seconds"), (0.95, "p95_seconds"), (0.99, "p99_seconds")):
                        quantile = _prom_labels(labels, f'quantile="{fraction:g}"')
                        lines.append(f"{prom}{quantile} {summary[key]:g}")
                    lines.append(f"{prom}_count{_prom_labels(labels)} {int(summary['count'])}")
                    lines.append(f"{prom}_sum{_prom_labels(labels)} {summary['total_seconds']:g}")
        return "\n".join(lines) + "\n"
