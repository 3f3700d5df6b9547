"""The shape of the two scrape endpoints, pinned as literals.

One fixed script of traffic — a recommend, a batch, an edit, an add, a
remove, a rejected request and a rejected frame — runs against a live ``FormulaServer``;
what ``/stats`` and ``/metrics`` then *contain* (not the numbers) must
equal the literals below.  The file was written against the commit before
the metrics stack was collapsed and passes unmodified on both sides of it:
dashboards and the benchmark harness read these keys and names.

``/stats`` is pinned exactly.  ``/metrics`` is pinned family by family
(kind and label names): a layer may add a key to its ``counters()`` and
that key then appears as one more gauge family with no edit here, which is
the point of the generic mirror — so a family that is not in the literal
must be a gauge, and nothing that is in the literal may go or change.
"""

import re

import pytest

from repro import AutoFormulaConfig, FormulaService
from repro.corpus import sample_test_cases, split_corpus
from repro.server import (
    AdmissionConfig,
    FormulaClient,
    ServerConfig,
    ServerError,
    start_server_in_background,
)
from test_server import _raw_exchange

pytestmark = pytest.mark.usefixtures("fail_on_asyncio_errors")

_SUMMARY = (
    "count", "max_seconds", "mean_seconds", "p50_seconds", "p95_seconds",
    "p99_seconds", "total_seconds", "window_count",
)
_INDEX = (
    "bytes.alive", "bytes.float32_matrix", "bytes.sq_norms", "bytes.total",
    "dimension", "tombstone_bytes", "tombstones", "vectors",
)
_ENDPOINTS = ("add_workbooks", "edit_cell", "metrics", "recommend", "remove_workbook")

#: Sorted key paths of the ``/stats`` body.  ``caches`` is process-wide (it
#: lists whatever caches other tests left alive), so its entries are checked
#: for their common fields and collapsed to ``caches.*``.
STATS_PATHS = sorted(
    [
        "batch_size_histogram.1",
        "batch_size_histogram.2",
        "caches.*",
        "coalescing_ratio",
        "config.max_batch_size",
        "config.queue_limit",
        "config.rate_limit_per_tenant",
        "counters.accepted",
        "counters.batch_admitted",
        "counters.batch_completed",
        "counters.batch_dispatch.idle",
        "counters.batched_requests",
        "counters.batches",
        "counters.collapsed_duplicates",
        "counters.rejected_frames.bad_request",
        "counters.rejected_rate_limited",
        "counters.served",
        "in_flight",
        "index_memory.pge.total_bytes",
        "queue_depths.pge",
        "reindex.pge.changed",
        "reindex.pge.same",
        "sheet_cache.entries",
        "sheet_cache.hits",
        "sheet_cache.misses",
        "tracing.enabled",
        "tracing.recent_captured",
        "tracing.sample_rate",
        "tracing.slow_captured",
        "tracing.slow_threshold_s",
        "tracing.traces_started",
    ]
    + [f"index_memory.pge.{index}.{leaf}" for index in ("formula_index", "sheet_index") for leaf in _INDEX]
    + [f"queue_wait.{leaf}" for leaf in _SUMMARY]
    + [f"workspaces.pge.{leaf}" for leaf in _SUMMARY]
    + [f"endpoints.{endpoint}.{leaf}" for endpoint in _ENDPOINTS for leaf in _SUMMARY]
)

#: ``/metrics``: family -> (``# TYPE`` kind, sorted label names).
METRIC_FAMILIES = {
    "cache_evict": ("gauge", ("cache",)),
    "cache_hit": ("gauge", ("cache",)),
    "cache_miss": ("gauge", ("cache",)),
    "cache_size": ("gauge", ("cache",)),
    "index_rows_gathered": ("gauge", ("workspace",)),
    "index_rows_scored_in_place": ("gauge", ("workspace",)),
    "persistence_log_torn_tail_total": ("gauge", ("workspace",)),
    "s3_candidates_reranked": ("gauge", ("workspace",)),
    "s3_candidates_scored": ("gauge", ("workspace",)),
    "server_accepted_total": ("counter", ()),
    "server_batch_admitted_total": ("counter", ()),
    "server_batch_completed_total": ("counter", ()),
    "server_batch_dispatch_total": ("counter", ("reason",)),
    "server_batch_size_total": ("counter", ("size",)),
    "server_batched_requests_total": ("counter", ()),
    "server_batches_total": ("counter", ()),
    "server_endpoint_seconds": ("summary", ("endpoint", "quantile")),
    "server_inflight": ("gauge", ()),
    "server_queue_depth": ("gauge", ("workspace",)),
    "server_queue_wait_seconds": ("summary", ("quantile",)),
    "server_rejected_frames_total": ("counter", ("reason",)),
    "server_rejected_rate_limited_total": ("counter", ()),
    "server_served_total": ("counter", ()),
    "workspace_index_bytes": ("gauge", ("workspace",)),
    "workspace_latency_seconds": ("summary", ("quantile", "workspace")),
    "workspace_reindex_changed": ("gauge", ("workspace",)),
    "workspace_reindex_same": ("gauge", ("workspace",)),
    "workspace_serve_collapsed_duplicates": ("gauge", ("workspace",)),
}

_SAMPLE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _key_paths(node, prefix=""):
    if not isinstance(node, dict) or not node:
        return [prefix]
    paths = []
    for key, child in node.items():
        paths.extend(_key_paths(child, f"{prefix}.{key}" if prefix else str(key)))
    return paths


def parse_metrics(text):
    """``(kinds, samples)`` of a Prometheus text exposition: ``kinds`` maps a
    family to its ``# TYPE``; ``samples`` maps ``(sample name, sorted label
    items)`` to the value."""
    kinds, samples = {}, {}
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            __, __, family, kind = line.split(" ")
            kinds[family] = kind
            continue
        name, labels, value = _SAMPLE.match(line).groups()
        samples[name, tuple(sorted(_LABEL.findall(labels or "")))] = float(value)
    return kinds, samples


def _family_of(sample_name, kinds):
    """The ``# TYPE`` family a sample belongs to (a summary's ``_count`` and
    ``_sum`` samples belong to the family without the suffix)."""
    if sample_name in kinds:
        return sample_name
    stem = sample_name.rsplit("_", 1)[0]
    assert kinds.get(stem) == "summary", sample_name
    return stem


@pytest.fixture(scope="module")
def scrape(trained_encoder, pge_corpus):
    """``(stats, metrics text)`` of a server after the fixed script."""
    test_workbooks, references = split_corpus(pge_corpus, 0.15, "timestamp")
    case = sample_test_cases("PGE", test_workbooks, max_per_sheet=2, seed=0)[0]
    cells = sorted(address.to_a1() for address, __ in case.target_sheet.cells())[:2]
    service = FormulaService(trained_encoder, AutoFormulaConfig())
    service.create_workspace("pge", workbooks=[wb.copy() for wb in references[3:5]])
    # Three tokens and next to no refill: the fourth request is rejected.
    config = ServerConfig(
        admission=AdmissionConfig(rate_limit_per_tenant=0.001, rate_limit_burst=3.0)
    )
    with start_server_in_background(service, config) as handle:
        client = FormulaClient(handle.host, handle.port)
        client.recommend("pge", case.target_sheet, case.target_cell.to_a1())
        client.recommend_batch("pge", [(case.target_sheet, cell) for cell in cells])
        client.edit_cell("pge", references[3].name, "Regional Summary", "B12", value=3.5)
        client.add_workbooks("pge", [references[5].copy()])
        client.remove_workbook("pge", references[5].name)
        with pytest.raises(ServerError) as excinfo:
            client.recommend("pge", case.target_sheet, case.target_cell.to_a1())
        assert excinfo.value.status == 429
        frame = b"POST /v1/workspaces/pge/recommend HTTP/1.1\r\nContent-Length: x\r\n\r\n"
        assert _raw_exchange(handle, frame).startswith(b"HTTP/1.1 400 ")
        # /metrics first: its own endpoint histogram exists when /stats is
        # read, and nothing but the two scrapes runs between them.
        metrics_text = client.metrics_text()
        stats = client.stats()
    return stats, metrics_text


def test_stats_key_paths(scrape):
    stats = dict(scrape[0])  # the fixture is shared: reshape a copy
    caches = stats.pop("caches")
    assert caches, "no cache reported"
    for name, counts in caches.items():
        assert {"hit", "miss", "evict", "size"} <= set(counts), name
    stats["caches"] = {"*": 0}
    assert sorted(_key_paths(stats)) == STATS_PATHS


def test_metrics_families_and_label_names(scrape):
    __, text = scrape
    kinds, samples = parse_metrics(text)
    label_names = {}
    for (name, labels), __ in samples.items():
        family = _family_of(name, kinds)
        names = tuple(key for key, __ in labels)
        if name == family:  # a summary's _count / _sum carry no quantile
            assert label_names.setdefault(family, names) == names, name
    observed = {family: (kind, label_names[family]) for family, kind in kinds.items()}
    for family, shape in METRIC_FAMILIES.items():
        assert observed.get(family) == shape, family
    added = {family: shape for family, shape in observed.items() if family not in METRIC_FAMILIES}
    assert all(kind == "gauge" for kind, __ in added.values()), added


def test_every_stats_counter_equals_its_metrics_sample(scrape):
    stats, text = scrape
    __, samples = parse_metrics(text)
    counters = dict(stats["counters"])
    for family in ("batch_dispatch", "rejected_frames"):
        assert counters.pop(family) == {
            dict(labels)["reason"]: int(value)
            for (name, labels), value in samples.items()
            if name == f"server_{family}_total"
        }
    assert counters.pop("collapsed_duplicates") == sum(
        value
        for (name, __), value in samples.items()
        if name == "workspace_serve_collapsed_duplicates"
    )
    assert counters
    for key, value in counters.items():
        assert samples[f"server_{key}_total", ()] == value, key
    assert {
        dict(labels)["size"]: int(value)
        for (name, labels), value in samples.items()
        if name == "server_batch_size_total"
    } == stats["batch_size_histogram"]
    assert samples["server_inflight", ()] == stats["in_flight"] == 0
