"""Tests for ``repro.obs``: the tracer, the metrics registry, and their
wiring through the serving stack.

Covers the ISSUE 10 tentpole guarantees: hierarchical span trees with
``contextvars`` propagation (and *no* leakage across threads), systematic
sampling plus the always-capture slow log, near-free disabled spans, the
unified counter/gauge/histogram registry (N-thread hammer: no lost
increments), the bounded-memory reservoir percentile estimator, the true
in-flight gauge under a stalled flush, trace-id propagation through HTTP
(headers, error bodies, ``SchemaError``), and the per-stage span tree
of a recommend.
"""

import threading
import time

import numpy as np
import pytest

from repro import AutoFormula, AutoFormulaConfig, FormulaService, Workspace
from repro.obs import Histogram, MetricsRegistry, get_tracer, trace_tree
from repro.obs.metrics import RESERVOIR_SIZE, summarize
from repro.obs.tracing import _NOOP_SPAN, Tracer
from repro.server import (
    FormulaClient,
    ServerConfig,
    ServerError,
    SheetInterner,
    start_server_in_background,
)
from repro.server.schemas import SchemaError, decode_recommend_payload
from repro.service import RecommendationRequest
from repro.sheet import SealedError
from repro.sheet.io import sheet_to_dict

from test_server import TIMEOUT, _Gate, _stub_service, _target_sheet


def _span_names(node, into=None):
    """Flatten a trace-tree node into the set of span names it contains."""
    into = set() if into is None else into
    into.add(node["name"])
    for child in node["children"]:
        _span_names(child, into)
    return into


# ------------------------------------------------------------------- tracer


class TestTracer:
    def test_nested_spans_build_one_tree(self, tracer):
        with tracer.span("http.request", method="POST") as root:
            with tracer.span("wire.decode", n_requests=2):
                pass
            with tracer.span("batch.flush") as flush:
                with tracer.span("workspace.serve"):
                    pass
            root.set_attribute("status", 200)

        recent = tracer.recent_traces()
        assert len(recent) == 1
        tree = recent[0]
        assert tree["n_spans"] == 4
        assert tree["orphans"] == []
        assert tree["root"]["name"] == "http.request"
        assert tree["root"]["attributes"] == {"method": "POST", "status": 200}
        child_names = [child["name"] for child in tree["root"]["children"]]
        assert child_names == ["wire.decode", "batch.flush"]
        serve = tree["root"]["children"][1]["children"]
        assert [node["name"] for node in serve] == ["workspace.serve"]
        assert flush.duration_s >= 0.0
        assert tree["duration_ms"] >= tree["root"]["children"][1]["duration_ms"]

    def test_trace_id_seeding_and_generation(self, tracer):
        with tracer.span("http.request", trace_id="cafe1234") as span:
            assert span.trace.trace_id == "cafe1234"
            assert tracer.current_trace_id() == "cafe1234"
            # Nested spans ignore the seed and join the active trace.
            with tracer.span("inner", trace_id="ffff0000") as inner:
                assert inner.trace is span.trace
        with tracer.span("http.request") as span:
            generated = span.trace.trace_id
        assert len(generated) == 16
        int(generated, 16)  # hex

    def test_exception_stamps_error_attribute_and_still_captures(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("http.request"):
                raise RuntimeError("boom")
        tree = tracer.recent_traces()[-1]
        assert tree["root"]["attributes"]["error"] == "RuntimeError: boom"

    def test_disabled_tracer_hands_out_the_shared_noop(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("anything", foo=1)
        second = tracer.span("else")
        assert first is second is _NOOP_SPAN
        with first as span:
            span.set_attribute("ignored", True)
            assert span.trace is None
            assert tracer.current_span() is None
        assert tracer.recent_traces() == []
        assert tracer.stats()["traces_started"] == 0

    def test_systematic_sampling_admits_exact_fraction(self):
        tracer = Tracer(enabled=True, sample_rate=0.25, slow_threshold_s=0.0)
        for __ in range(16):
            with tracer.span("request"):
                pass
        stats = tracer.stats()
        assert stats["traces_started"] == 16
        assert stats["recent_captured"] == 4  # deterministic 1-in-4

    def test_slow_log_captures_even_unsampled_traces(self):
        tracer = Tracer(enabled=True, sample_rate=0.0, slow_threshold_s=1e-9)
        with tracer.span("request"):
            time.sleep(0.002)
        assert tracer.recent_traces() == []
        slow = tracer.slow_traces()
        assert len(slow) == 1
        assert slow[0]["sampled"] is False
        assert slow[0]["duration_ms"] >= 1.0

    def test_zero_threshold_disables_slow_log(self):
        tracer = Tracer(enabled=True, sample_rate=1.0, slow_threshold_s=0.0)
        with tracer.span("request"):
            pass
        assert tracer.slow_traces() == []
        assert len(tracer.recent_traces()) == 1

    def test_rings_are_bounded(self):
        tracer = Tracer(
            enabled=True, sample_rate=1.0, slow_threshold_s=1e-9, max_recent=4, max_slow=2
        )
        for index in range(9):
            with tracer.span("request", index=index):
                pass
        recent = tracer.recent_traces()
        assert len(recent) == 4
        # Oldest evicted first: the survivors are the four newest.
        assert [tree["root"]["attributes"]["index"] for tree in recent] == [5, 6, 7, 8]
        assert len(tracer.slow_traces()) == 2

    def test_tracing_does_not_perturb_the_seeded_global_rng(self):
        import random

        random.seed(1234)
        clean = [random.random() for __ in range(4)]
        random.seed(1234)
        tracer = Tracer(enabled=True, sample_rate=1.0)
        drawn = []
        for __ in range(4):
            with tracer.span("request"):
                drawn.append(random.random())
        assert drawn == clean


class TestContextPropagation:
    def test_plain_threads_do_not_inherit_the_current_span(self, tracer):
        """A worker thread starts with a clean context: its spans are new
        roots, never silently parented under another request's span."""
        seen = {}

        def worker():
            with tracer.span("worker.request") as span:
                seen["parent_id"] = span.parent_id
                seen["trace_id"] = span.trace.trace_id

        with tracer.span("http.request") as root:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert seen["parent_id"] is None
            assert seen["trace_id"] != root.trace.trace_id

    def test_attach_carries_a_span_across_the_thread_hop(self, tracer):
        with tracer.span("http.request") as root:
            def worker():
                with tracer.attach(root):
                    with tracer.span("batch.flush") as child:
                        assert child.trace is root.trace
                        assert child.parent_id == root.span_id
                # The attachment is scoped: after the with, nothing leaks.
                assert tracer.current_span() is None

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        tree = tracer.recent_traces()[-1]
        assert [node["name"] for node in tree["root"]["children"]] == ["batch.flush"]

    def test_hammer_no_cross_request_span_leakage(self, tracer):
        """N threads each run M root+child traces; every child must land
        under its own thread's root — contextvars isolation under load."""
        n_threads, n_traces = 8, 25
        barrier = threading.Barrier(n_threads)
        failures = []

        def worker(worker_id):
            barrier.wait()
            for index in range(n_traces):
                with tracer.span("request", worker=worker_id, index=index) as root:
                    with tracer.span("stage") as child:
                        if child.trace is not root.trace or child.parent_id != root.span_id:
                            failures.append((worker_id, index))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        assert tracer.stats()["traces_started"] == n_threads * n_traces
        for tree in tracer.recent_traces():
            assert tree["n_spans"] == 2
            assert tree["orphans"] == []
            assert [node["name"] for node in tree["root"]["children"]] == ["stage"]


# ----------------------------------------------------------------- registry


class TestMetricsRegistry:
    def test_counter_get_or_make_and_read(self):
        registry = MetricsRegistry()
        counter = registry.counter("server.accepted")
        counter.inc()
        counter.inc(4)
        assert registry.counter("server.accepted") is counter
        assert registry.counter_value("server.accepted") == 5
        assert registry.counter_value("server.never_touched") == 0
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_labeled_counters_are_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("server.batch_size", labels={"size": "1"}).inc(3)
        registry.counter("server.batch_size", labels={"size": "8"}).inc()
        assert registry.collect() == [
            ("counter", "server.batch_size", {(("size", "1"),): 3, (("size", "8"),): 1})
        ]

    def test_gauge_set_and_callback_modes(self):
        registry = MetricsRegistry()
        direct = registry.gauge("server.depth")
        direct.set(7)
        assert direct.value == 7
        box = {"value": 0}
        sampled = registry.gauge("server.inflight", fn=lambda: box["value"])
        box["value"] = 3
        assert sampled.value == 3
        with pytest.raises(RuntimeError, match="callback"):
            sampled.set(1)
        broken = registry.gauge("server.broken", fn=lambda: 1 / 0)
        assert broken.value != broken.value  # NaN, never an exception

    def test_one_name_one_kind(self):
        registry = MetricsRegistry()
        registry.counter("server.accepted")
        with pytest.raises(ValueError, match="different kind"):
            registry.gauge("server.accepted")
        with pytest.raises(ValueError, match="different kind"):
            registry.histogram("server.accepted")

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="dotted identifiers"):
            registry.counter("server accepted!")

    def test_snapshot_nests_by_dotted_name(self):
        registry = MetricsRegistry()
        registry.counter("server.accepted").inc(2)
        registry.counter("server.batch_size", labels={"size": "4"}).inc()
        registry.gauge("workspace.index_bytes", labels={"workspace": "acme"}).set(128)
        registry.histogram("server.queue_wait").observe(0.25)
        tree = registry.snapshot()
        assert tree["server"]["accepted"] == 2
        assert tree["server"]["batch_size"] == {"size=4": 1}
        assert tree["workspace"]["index_bytes"] == {"workspace=acme": 128}
        assert tree["server"]["queue_wait"]["count"] == 1.0
        assert tree["server"]["queue_wait"]["p50_seconds"] == pytest.approx(0.25)

    def test_prometheus_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("server.accepted").inc(3)
        registry.gauge("server.queue_depth", labels={"workspace": "acme"}).set(2)
        histogram = registry.histogram("server.endpoint", labels={"endpoint": "recommend"})
        histogram.observe(0.1)
        histogram.observe(0.3)
        text = registry.render_prometheus()
        lines = text.strip().splitlines()
        assert "# TYPE server_accepted_total counter" in lines
        assert "server_accepted_total 3" in lines
        assert 'server_queue_depth{workspace="acme"} 2' in lines
        assert any(
            line.startswith('server_endpoint_seconds{endpoint="recommend",quantile="0.5"}')
            for line in lines
        )
        assert 'server_endpoint_seconds_count{endpoint="recommend"} 2' in lines
        assert any(
            line.startswith('server_endpoint_seconds_sum{endpoint="recommend"}')
            for line in lines
        )
        assert text.endswith("\n")

    def test_counter_hammer_no_lost_increments(self):
        registry = MetricsRegistry()
        n_threads, n_incs = 8, 10_000
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            # get-or-make races with other threads on purpose.
            counter = registry.counter("hammer.total")
            for __ in range(n_incs):
                counter.inc()
                registry.histogram("hammer.latency").observe(0.001)

        threads = [threading.Thread(target=worker) for __ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("hammer.total") == n_threads * n_incs
        assert len(registry.histogram("hammer.latency")) == n_threads * n_incs


# ---------------------------------------------------------------- reservoir


class TestReservoirRecorder:
    def test_memory_is_bounded_but_aggregates_are_exact(self):
        recorder = Histogram()
        for index in range(10_000):
            recorder.observe(index / 10_000)
        assert len(recorder) == 10_000
        summary = recorder.summary()
        assert summary["window_count"] == RESERVOIR_SIZE
        assert summary["count"] == 10_000.0
        assert summary["max_seconds"] == pytest.approx(0.9999)
        assert summary["total_seconds"] == pytest.approx(sum(i / 10_000 for i in range(10_000)))

    def test_reservoir_percentiles_track_the_exact_window(self):
        rng = np.random.default_rng(42)
        samples = rng.uniform(0.0, 1.0, size=20_000)
        reservoir = Histogram()
        for value in samples:
            reservoir.observe(float(value))
        exact = summarize(samples.tolist(), len(samples), float(samples.sum()), float(samples.max()))
        for fraction, key, tolerance in (
            (0.5, "p50_seconds", 0.06), (0.95, "p95_seconds", 0.04), (0.99, "p99_seconds", 0.02),
        ):
            assert exact[key] == pytest.approx(np.percentile(samples, fraction * 100))
            assert reservoir.percentile(fraction) == pytest.approx(exact[key], abs=tolerance)

    def test_small_streams_are_kept_verbatim(self):
        """Up to ``RESERVOIR_SIZE`` observations the percentiles are exact."""
        rng = np.random.default_rng(7)
        samples = rng.exponential(0.01, size=RESERVOIR_SIZE)
        recorder = Histogram()
        for value in samples:
            recorder.observe(float(value))
        summary = recorder.summary()
        assert summary["window_count"] == summary["count"] == RESERVOIR_SIZE
        for fraction, key in ((0.5, "p50_seconds"), (0.95, "p95_seconds"), (0.99, "p99_seconds")):
            assert summary[key] == pytest.approx(np.percentile(samples, fraction * 100), rel=1e-12)
            assert recorder.percentile(fraction) == summary[key]

    def test_the_global_random_stream_is_untouched(self):
        import random

        random.seed(1234)
        expected = [random.random() for __ in range(5)]
        random.seed(1234)
        recorder = Histogram()
        for index in range(3 * RESERVOIR_SIZE):  # far enough to draw replacement slots
            recorder.observe(index * 1e-6)
        assert [random.random() for __ in range(5)] == expected
        # The private stream is seeded: two histograms keep the same sample.
        twin = Histogram()
        for index in range(3 * RESERVOIR_SIZE):
            twin.observe(index * 1e-6)
        assert twin.summary() == recorder.summary()


# ------------------------------------------------------------------- server


@pytest.mark.usefixtures("fail_on_asyncio_errors")
class TestServerObservability:
    def test_trace_header_echo_and_error_bodies(self):
        config = ServerConfig(trace_sample_rate=1.0)
        with start_server_in_background(_stub_service(), config) as handle:
            client = FormulaClient(handle.host, handle.port)
            # Caller-seeded trace id is echoed back on the response.
            status, headers, __ = client.request(
                "POST",
                "/v1/workspaces/acme/recommend",
                {"sheet": {"name": "T", "cells": {"A1": {"value": 1.0}}}, "cell": "A2"},
                trace_id="feedc0de00000001",
            )
            assert status == 200
            assert headers.get("X-Trace-Id") == "feedc0de00000001"

            # Server-generated ids ride every response too.
            status, headers, __ = client.request("GET", "/health")
            assert status == 200
            assert headers.get("X-Trace-Id")

            # 4xx/5xx bodies carry the trace id for correlation.
            with pytest.raises(ServerError) as excinfo:
                client.recommend("ghost", _target_sheet(), "A3")
            assert excinfo.value.status == 404
            assert excinfo.value.trace_id
            assert excinfo.value.body["trace_id"] == excinfo.value.trace_id

            with pytest.raises(ServerError) as excinfo:
                client._checked(
                    "POST", "/v1/workspaces/acme/recommend", {"cell": "A1"}
                )
            assert excinfo.value.status == 400
            assert excinfo.value.trace_id
            # The SchemaError detail names the trace id too.
            assert "trace_id=" in str(excinfo.value.body.get("detail", ""))

    def test_schema_error_message_carries_active_trace_id(self, tracer):
        interner = SheetInterner()
        with tracer.span("http.request", trace_id="abad1dea0000cafe"):
            with pytest.raises(SchemaError) as excinfo:
                decode_recommend_payload({"sheet": "not a dict"}, interner)
            assert "trace_id=abad1dea0000cafe" in str(excinfo.value)
            assert excinfo.value.trace_id == "abad1dea0000cafe"
        # With tracing off there is no trace, and the message stays clean.
        tracer.configure(enabled=False)
        with pytest.raises(SchemaError) as excinfo:
            decode_recommend_payload({"sheet": "not a dict"}, interner)
        assert "trace_id" not in str(excinfo.value)
        assert excinfo.value.trace_id is None

    def test_metrics_and_traces_endpoints(self):
        config = ServerConfig(trace_sample_rate=1.0)
        with start_server_in_background(_stub_service(), config) as handle:
            client = FormulaClient(handle.host, handle.port)
            client.recommend("acme", _target_sheet(), "A3")

            text = client.metrics_text()
            lines = text.strip().splitlines()
            assert "server_accepted_total 1" in lines
            assert any(line.startswith("server_inflight ") for line in lines)
            assert any(
                line.startswith('server_endpoint_seconds{endpoint="recommend",quantile="0.5"}')
                for line in lines
            )

            body = client.traces()
            assert set(body) == {"recent", "slow", "stats"}
            assert body["stats"]["enabled"] is True
            recommend_roots = [
                tree["root"]
                for tree in body["recent"]
                if tree["root"]["attributes"].get("endpoint") == "recommend"
            ]
            assert recommend_roots
            names = _span_names(recommend_roots[-1])
            assert {"http.request", "wire.decode", "batch.flush", "workspace.serve"} <= names

            stats = client.stats()
            assert stats["tracing"]["enabled"] is True
            assert stats["in_flight"] == 0

    def test_inflight_gauge_sees_stalled_flush(self):
        """Regression for the /stats queue-depth bug: while a batch is
        stuck in the (gated) serve, admitted-minus-completed must be > 0,
        and must return to 0 once the batch drains."""
        service = _stub_service()
        gate = _Gate(service.workspace("acme"))
        with start_server_in_background(service) as handle:
            client = FormulaClient(handle.host, handle.port)
            errors = []

            def fire():
                try:
                    FormulaClient(handle.host, handle.port).recommend(
                        "acme", _target_sheet(), "A3"
                    )
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            worker = threading.Thread(target=fire)
            worker.start()
            assert gate.entered.wait(TIMEOUT)
            observed = client.stats()["in_flight"]
            gate.open()
            worker.join(TIMEOUT)
            assert not errors
            assert observed > 0
            assert client.stats()["in_flight"] == 0

    def test_edit_trace_and_reindex_gauges(self, trained_encoder, pge_corpus):
        """An edit's trace has the re-index as its own span, which says what
        it reused, and ``/metrics`` counts re-indexes by shape."""
        from repro.corpus import split_corpus

        __, references = split_corpus(pge_corpus, 0.15, "timestamp")
        service = FormulaService(trained_encoder, AutoFormulaConfig())
        service.create_workspace("pge", workbooks=[wb.copy() for wb in references[3:5]])
        config = ServerConfig(trace_sample_rate=1.0)
        with start_server_in_background(service, config) as handle:
            client = FormulaClient(handle.host, handle.port)
            name = references[3].name
            client.edit_cell("pge", name, "Regional Summary", "B12", value=3.5)
            client.edit_cell("pge", name, "Regional Summary", "B13", value=4.5)
            client.edit_cell("pge", name, "Regional Summary", "B20", formula="=B19*2")
            # Below the 20-row sheet window, read by no formula.
            client.edit_cell("pge", name, "Regional Summary", "C30", value=1.5)

            # The edit runs on the executor thread, as its own trace.
            edits = [
                tree["root"]
                for tree in client.traces()["recent"]
                if tree["root"]["name"] == "workspace.edit_cell"
            ]
            assert len(edits) == 4
            spans = [
                next(child for child in root["children"] if child["name"] == "workspace.reindex_sheet")
                for root in edits
            ]
            attributes = [span["attributes"] for span in spans]
            assert [span["formulas_changed"] for span in attributes] == [False, False, True, False]
            assert [span["n_formulas"] for span in attributes] == [8, 8, 9, 9]
            assert all(span["n_store_cells"] > 0 for span in attributes)
            # The fit cached the sheet's tensor; each edit patches the last
            # one's, and only the edit outside the window keeps the S1 row.
            assert [span["tensor_patched"] for span in attributes] == [True] * 4
            assert [span["s1_skipped"] for span in attributes] == [False, False, False, True]

            gauges = {
                line.split(" ")[0]: float(line.split(" ")[1])
                for line in client.metrics_text().splitlines()
                if line.startswith("workspace_reindex_")
            }
            assert client.stats()["reindex"] == {"pge": {"same": 3, "changed": 1}}
            assert gauges == {
                'workspace_reindex_same{workspace="pge"}': 3.0,
                'workspace_reindex_changed{workspace="pge"}': 1.0,
            }


    def test_fallback_counts_reach_metrics_from_their_own_layers(
        self, trained_encoder, pge_corpus
    ):
        """The scorer's two fallbacks are keys of ``VectorIndex.counters()``;
        the predictor and the workspace fold them and the server mirrors
        what it finds — no server file names them.  A write around the
        workspace, which the engine once caught with a counted full resync,
        is refused, and the workspace's edits go on through it."""
        from repro.corpus import split_corpus

        __, references = split_corpus(pge_corpus, 0.15, "timestamp")
        service = FormulaService(trained_encoder, AutoFormulaConfig())
        workspace = service.create_workspace(
            "pge", workbooks=[wb.copy() for wb in references[3:5]]
        )
        name = references[3].name

        def gauges(client):
            return {
                line.split(" ")[0]: float(line.split(" ")[1])
                for line in client.metrics_text().splitlines()
                if line.startswith(("index_", "engine_"))
            }

        with start_server_in_background(service) as handle:
            client = FormulaClient(handle.host, handle.port)
            untouched = {  # no search has run, and none runs below
                'index_rows_gathered{workspace="pge"}': 0.0,
                'index_rows_scored_in_place{workspace="pge"}': 0.0,
            }
            assert gauges(client) == {
                'index_tier2_fallback_rows{workspace="pge"}': 0.0,
                'index_two_tier_overflow{workspace="pge"}': 0.0,
                **untouched,
            }
            # The engine is built by the first edit; a write made around it
            # is refused and changes nothing.
            client.edit_cell("pge", name, "Regional Summary", "B12", value=3.5)
            sheet = workspace.workbooks()[0].get_sheet("Regional Summary")
            before = sheet_to_dict(sheet)
            with pytest.raises(SealedError):
                sheet.set("B13", 4.5)
            assert sheet_to_dict(sheet) == before
            client.edit_cell("pge", name, "Regional Summary", "B12", value=5.5)
            assert sheet.get("B12").value == 5.5
            # Both indexes' counts are summed.
            workspace.predictor.sheet_index._overflows.inc(2)
            workspace.predictor.formula_index._overflows.inc(3)
            workspace.predictor.formula_index._fallback_rows.inc(7)
            assert gauges(client) == {
                'index_tier2_fallback_rows{workspace="pge"}': 7.0,
                'index_two_tier_overflow{workspace="pge"}': 5.0,
                **untouched,
            }
            assert not any(key.startswith("engine.") for key in workspace.counters())


# ------------------------------------------------------------ set-up spans


class TestSetUpSpans:
    def test_each_set_up_phase_is_one_trace_whatever_the_corpus_size(self, tracer):
        """Corpus generation, weak supervision, training and the fit each
        open one span (training one per model and step below it), so a
        set-up's time is attributed by phase from the program's own spans."""
        from repro import build_training_universe, generate_training_pairs, train_models
        from repro.features import FeatureConfig
        from repro.models import ModelConfig, TrainingConfig

        roots = {}
        for n_families in (2, 4):
            tracer.reset()
            universe = build_training_universe(n_families=n_families, copies_per_family=2, n_singletons=1)
            pairs = generate_training_pairs(universe, seed=0)
            model_config = ModelConfig(features=FeatureConfig(window_rows=10, window_cols=4))
            encoder, __ = train_models(pairs, model_config, TrainingConfig(epochs=1, seed=0))
            AutoFormula(encoder, AutoFormulaConfig()).fit(universe)
            trees = tracer.recent_traces()
            assert all(tree["orphans"] == [] for tree in trees)
            roots[n_families] = [
                (tree["root"]["name"], sorted(_span_names(tree["root"]) - {"index.search"}))
                for tree in trees
            ]
            fit = trees[-1]["root"]
            assert fit["attributes"]["sheets"] == sum(len(workbook) for workbook in universe)
            train = trees[2]["root"]
            assert [(child["name"], child["attributes"]["model"]) for child in train["children"]] == [
                ("models.train.tensors", "coarse"),
                ("models.train.tensors", "fine"),
                ("models.train.loop", "coarse"),
                ("models.train.loop", "fine"),
            ]
        # Below a phase only what it runs per sheet: the generator's
        # recalculations (and the fit's index scans, left out above).
        assert roots[2] == roots[4] == [
            ("corpus.generate", ["corpus.generate", "engine.recalculate"]),
            ("weaksup.pairs", ["weaksup.pairs"]),
            ("models.train", ["models.train", "models.train.loop", "models.train.tensors"]),
            ("core.fit", ["core.fit"]),
        ]


# ----------------------------------------------------------- recommend trace


class TestRecommendTraceTree:
    def test_recommend_produces_per_stage_spans(
        self, tracer, trained_encoder, pge_corpus
    ):
        from repro.corpus import sample_test_cases, split_corpus

        test_workbooks, reference_workbooks = split_corpus(pge_corpus, 0.15, "timestamp")
        cases = sample_test_cases("PGE", test_workbooks, max_per_sheet=2, seed=0)
        workspace = Workspace("traced", AutoFormula(trained_encoder, AutoFormulaConfig()))
        workspace.add_workbooks(reference_workbooks[:6])
        case = next(
            case
            for case in cases
            if workspace.recommend(
                RecommendationRequest(case.target_sheet, case.target_cell)
            ).accepted
        )
        tracer.reset()
        # A copy: the accepted case's own sheet has a warm reduced tensor.
        target = case.target_sheet.copy()
        workspace.recommend(RecommendationRequest(target, case.target_cell))

        recent = tracer.recent_traces()
        assert recent, "a serve must produce a sampled trace"
        tree = recent[-1]
        root = tree["root"]
        assert root["name"] == "workspace.serve"
        assert root["attributes"]["workspace"] == "traced"
        assert root["attributes"]["n_requests"] == 1
        assert tree["orphans"] == []

        # The stages are siblings under the serve span, in pipeline order;
        # the two searches nest their index scans.  S3 is one span whether
        # it runs in-line or through the staged ``adapt_batch``.
        assert [node["name"] for node in root["children"]] == [
            "s1.sheet_hits",
            "s2.score",
            "s3.adapt",
        ]
        s1, s2, s3 = root["children"]
        assert s1["attributes"]["n_hits"] >= 1
        assert s2["attributes"]["n_cells"] == 1
        for stage in (s1, s2):
            assert "index.search" in _span_names(stage)
        cold = s3["attributes"]
        assert cold["n_items"] == 1 and cold["n_params"] >= 1
        assert 0 <= cold["n_reranked"] <= cold["n_candidates"]
        assert "n_region_misses" not in cold

        # Asked again, S3 scores the same candidates; the predictor's
        # counts move by what the spans report.
        def s3_counts():
            counts = workspace.predictor.counters()
            return counts["s3.candidates_scored"], counts["s3.candidates_reranked"]

        scored, reranked = s3_counts()
        assert scored >= cold["n_candidates"] > 0
        tracer.reset()
        workspace.recommend(RecommendationRequest(target, case.target_cell))
        warm = tracer.recent_traces()[-1]["root"]["children"][-1]["attributes"]
        assert warm["n_candidates"] == cold["n_candidates"]
        assert warm["n_reranked"] == cold["n_reranked"]
        assert s3_counts() == (scored + warm["n_candidates"], reranked + warm["n_reranked"])

        # Spans carry usable timings: every child fits inside the root.
        def check_bounds(node):
            for child in node["children"]:
                assert child["start_ms"] >= node["start_ms"] - 1e-6
                assert child["duration_ms"] >= 0.0
                check_bounds(child)

        check_bounds(root)
