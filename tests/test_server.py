"""Tests for the network serving front-end (real sockets, ephemeral ports).

Covers the ISSUE 7 tentpole guarantees: wire round-trip parity with
direct ``FormulaService`` calls, coalesced-batch parity with sequential
serving, admission-control status codes (429 rate limit, 503 shed/drain
with ``Retry-After``), graceful drain, and the observability surface
(``/stats`` queue depth, batch histogram, coalescing ratio, p50/p99).

Coalescing outcomes are made deterministic with a *gate* on the
workspace's ``serve_batch`` (see :class:`_Gate`), not with a batch
window: there is none — a batch gathers only behind one that is running.
"""

import gc
import http.client
import json
import socket
import threading
import time
import weakref

import pytest

from repro import AutoFormulaConfig, FormulaService
from repro.core.interface import FormulaPredictor, Prediction
from repro.corpus import sample_test_cases, split_corpus
from repro.server import app as app_module
from repro.server import (
    AdmissionConfig,
    FormulaClient,
    ServerConfig,
    ServerError,
    SheetInterner,
    TokenBucket,
    run_client_swarm,
    start_server_in_background,
)
from repro.server.schemas import _json_safe
from repro.service import RecommendationRequest
from repro.sheet import Sheet, Workbook
from repro.sheet.io import sheet_to_dict
from repro.testing import WorkloadConfig, generate_workload


pytestmark = pytest.mark.usefixtures("fail_on_asyncio_errors")

#: Upper bound on every blocking wait, so a regression fails instead of hanging.
TIMEOUT = 30.0


class _StubPredictor(FormulaPredictor):
    """Cheap deterministic predictor; optional per-batch serving delay."""

    def __init__(self, delay_seconds: float = 0.0, name: str = "stub"):
        self.delay_seconds = delay_seconds
        self.name = name
        self.cells_predicted = 0

    def fit(self, reference_workbooks):
        pass

    def predict(self, target_sheet, target_cell):
        return self.predict_batch(target_sheet, [target_cell])[0]

    def predict_batch(self, target_sheet, target_cells):
        if self.delay_seconds:
            time.sleep(self.delay_seconds)
        self.cells_predicted += len(target_cells)
        return [
            Prediction(f"=SUM(A1:A{cell.row + 1})", 0.9, {"reference_sheet": "stub"})
            for cell in target_cells
        ]


def _stub_workbook() -> Workbook:
    workbook = Workbook(name="wb1")
    sheet = workbook.add_sheet("Data")
    sheet.set("A1", 1.0)
    sheet.set("A2", 2.0)
    sheet.set("A3", formula="=SUM(A1:A2)")
    return workbook


def _stub_service(delay_seconds: float = 0.0) -> FormulaService:
    service = FormulaService()
    service.create_workspace(
        "acme", predictor=_StubPredictor(delay_seconds), workbooks=[_stub_workbook()]
    )
    return service


class _Gate:
    """Holds a workspace's ``serve_batch`` calls until the test opens it.

    The first call to reach a closed gate sets ``entered``: from then on
    the workspace is *busy*, so everything admitted meanwhile queues
    behind that batch — which is how these tests get a coalesced batch
    without timing anything.
    """

    def __init__(self, workspace) -> None:
        self.entered = threading.Event()
        self._open = threading.Event()
        serve_batch = workspace.serve_batch

        def gated(requests):
            self.entered.set()
            assert self._open.wait(TIMEOUT), "the test never opened the gate"
            return serve_batch(requests)

        workspace.serve_batch = gated

    def open(self) -> None:
        self._open.set()


def _wait_until(predicate, what: str) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _swarm_behind_gate(handle, gate, workspace_name, tasks):
    """Fire ``tasks`` concurrently at a gated workspace; open the gate once
    all of them are admitted.  Whatever the first arrivals' batch took
    (the idle sweep decides), the rest went out as *one* batch behind it."""
    outcome = {}

    def fire():
        outcome["result"] = run_client_swarm(
            handle.host, handle.port, workspace_name, tasks, concurrency=len(tasks)
        )

    swarm = threading.Thread(target=fire)
    swarm.start()
    assert gate.entered.wait(TIMEOUT)
    client = FormulaClient(handle.host, handle.port)
    _wait_until(
        lambda: client.stats()["queue_depths"][workspace_name] == len(tasks),
        "the whole burst to be admitted",
    )
    gate.open()
    swarm.join(TIMEOUT)
    assert not swarm.is_alive()
    return outcome["result"]


def _target_sheet() -> Sheet:
    sheet = Sheet("Target")
    sheet.set("A1", 3.0)
    sheet.set("A2", 4.0)
    return sheet


# ------------------------------------------------------------------ protocol


class TestProtocolBasics:
    def test_health_stats_and_error_codes(self):
        with start_server_in_background(_stub_service()) as handle:
            client = FormulaClient(handle.host, handle.port)

            health = client.health()
            assert health["status"] == "ok"
            assert health["workspaces"] == ["acme"]

            response = client.recommend("acme", _target_sheet(), "A3", request_id="r1")
            assert response["request_id"] == "r1"
            assert response["formula"] == "=SUM(A1:A3)"
            assert response["workspace"] == "acme"
            assert response["batch_size"] >= 1

            stats = client.stats()
            assert stats["counters"]["accepted"] == 1
            assert stats["counters"]["served"] == 1
            assert "1" in stats["batch_size_histogram"]
            assert "acme" in stats["queue_depths"]
            assert "p99_seconds" in stats["workspaces"]["acme"]
            assert stats["config"]["max_batch_size"] >= 1
            assert set(stats["config"]) == {
                "max_batch_size", "queue_limit", "rate_limit_per_tenant",
            }
            # A lone request found its workspace idle and did not wait.
            assert stats["counters"]["batch_dispatch"] == {"idle": 1}
            # Every cache reports itself; the counts are process-wide.
            assert stats["caches"]["interned_sheets"]["miss"] >= 1
            assert set(stats["caches"]["interned_sheets"]) == {"hit", "miss", "evict", "size"}
            # Index memory is gauged per workspace; the stub predictor
            # reports the zero footprint, real AutoFormula byte counts are
            # covered in tests/test_two_tier.py.
            assert stats["index_memory"] == {"acme": {"total_bytes": 0}}

            # Unknown workspace and unknown routes are 404s.
            with pytest.raises(ServerError) as excinfo:
                client.recommend("nope", _target_sheet(), "A1")
            assert excinfo.value.status == 404
            status, __, body = client.request("GET", "/v1/nope")
            assert status == 404 and body["error"] == "not_found"

            # Malformed JSON and schema violations are 400s.
            connection_status, __, body = client.request(
                "POST", "/v1/workspaces/acme/recommend", {"cell": "A1"}
            )
            assert connection_status == 400 and body["error"] == "schema_error"
            status, __, body = client.request(
                "POST", "/v1/workspaces/acme/recommend", {"sheet": {}, "cell": "???"}
            )
            assert status == 400

    def test_mutation_endpoints_round_trip(self):
        service = _stub_service()
        workspace = service.workspace("acme")
        with start_server_in_background(service) as handle:
            client = FormulaClient(handle.host, handle.port)

            # Live edit: value write recalculates the dependent SUM.
            result = client.edit_cell("acme", "wb1", "Data", "A1", value=10.0)
            assert result["recalc"]["recalculated"] == 1
            assert result["recalc"]["errored"] == 0
            edited = workspace.workbooks()[0].get_sheet("Data")
            assert edited.get("A1").value == 10.0
            assert edited.get("A3").value == 12.0

            # Formula write through the same endpoint.
            result = client.edit_cell("acme", "wb1", "Data", "A4", formula="=A3*2")
            assert result["recalc"]["recalculated"] >= 1
            assert edited.get("A4").value == 24.0

            # Add then remove a workbook.
            extra = Workbook(name="wb2")
            extra.add_sheet("X").set("A1", 5.0)
            added = client.add_workbooks("acme", [extra])
            assert added["added"] == ["wb2"] and added["indexed_workbooks"] == 2
            with pytest.raises(ServerError) as excinfo:
                client.add_workbooks("acme", [extra])
            assert excinfo.value.status == 409
            removed = client.remove_workbook("acme", "wb2")
            assert removed["indexed_workbooks"] == 1
            with pytest.raises(ServerError) as excinfo:
                client.remove_workbook("acme", "wb2")
            assert excinfo.value.status == 404

            # Edit validation: both operands is a 400, unknown workbook 404.
            status, __, body = client.request(
                "POST",
                "/v1/workspaces/acme/edit-cell",
                {"workbook": "wb1", "sheet": "Data", "cell": "A1", "value": 1, "formula": "=1"},
            )
            assert status == 400
            with pytest.raises(ServerError) as excinfo:
                client.edit_cell("acme", "ghost", "Data", "A1", value=1.0)
            assert excinfo.value.status == 404

            # A formula nested past the grammar's limit is a 200 whose cell
            # holds an error value, as a malformed one is: not the 500 arm.
            deep = "=" + "(" * 400 + "1" + ")" * 400
            result = client.edit_cell("acme", "wb1", "Data", "A5", formula=deep)
            assert result["recalc"]["errored"] == 1
            assert edited.get("A5").value == "#NAME?"
            # So is one taller than the parser's bound, at a small cost in
            # CPU time (server and client share this process).
            tall = "=1" + "+1" * 3000
            started = time.process_time()
            result = client.edit_cell("acme", "wb1", "Data", "A6", formula=tall)
            assert time.process_time() - started < 0.010
            assert result["recalc"]["errored"] == 1
            assert edited.get("A6").value == "#NAME?"
            for row in range(1, 7):  # and a chain of 120-term formulas, top-down
                started = time.process_time()
                client.edit_cell("acme", "wb1", "Data", f"C{row}", formula=f"=C{row + 1}" + "+1" * 119)
                assert time.process_time() - started < 0.010
            assert edited.get("C1").value == "#REF!"
            assert client.stats()["counters"].get("server_errors", 0) == 0

    def test_metrics_read_first_has_the_workspace_gauges(self):
        """A scraper that never reads ``/stats`` still gets every
        per-workspace family (they used to be registered by ``/stats``)."""
        with start_server_in_background(_stub_service()) as handle:
            client = FormulaClient(handle.host, handle.port)
            client.recommend("acme", _target_sheet(), "A3")
            names = {
                line.split(" ")[0]
                for line in client.metrics_text().splitlines()
                if not line.startswith("#")
            }
        for family in (
            "workspace_index_bytes",
            "workspace_reindex_same",
            "workspace_reindex_changed",
            "workspace_reindex_refit",
            "workspace_serve_collapsed_duplicates",
            "persistence_log_torn_tail_total",
            "server_queue_depth",
        ):
            assert f'{family}{{workspace="acme"}}' in names, family
        assert 'workspace_latency_seconds_count{workspace="acme"}' in names
        assert 'cache_size{cache="interned_sheets"}' in names
        assert 'server_batch_dispatch_total{reason="idle"}' in names


class TestWorkspaceLifecycle:
    def test_remount_answers_admitted_work_and_lets_the_old_workspace_go(self):
        """Drop + re-create a workspace under its name while the old one
        has a batch in flight and two requests queued: all three are
        answered (by the workspace that admitted them), the new workspace
        serves at once, no collector task is orphaned (the module's
        ``fail_on_asyncio_errors`` fixture) and nothing pins the old
        workspace afterwards."""
        service = _stub_service()
        gate = _Gate(service.workspace("acme"))
        old_workspace = weakref.ref(service.workspace("acme"))
        answers = {}

        def ask(request_id):
            answers[request_id] = FormulaClient(handle.host, handle.port).recommend(
                "acme", _target_sheet(), "A3", request_id=request_id
            )

        with start_server_in_background(service) as handle:
            client = FormulaClient(handle.host, handle.port)
            client.stats()  # binds the per-workspace gauges to the old workspace
            askers = [threading.Thread(target=ask, args=(f"old-{i}",)) for i in range(3)]
            askers[0].start()
            assert gate.entered.wait(TIMEOUT)
            for asker in askers[1:]:
                asker.start()
            _wait_until(
                lambda: client.stats()["queue_depths"]["acme"] == 3, "two requests to queue"
            )

            service.drop_workspace("acme")
            service.create_workspace(
                "acme", predictor=_StubPredictor(name="stub-2"), workbooks=[_stub_workbook()]
            )
            # The new workspace is not stuck behind the old one's gate.
            fresh = client.recommend("acme", _target_sheet(), "A3")
            assert fresh["method"] == "stub-2" and fresh["batch_size"] == 1
            assert client.stats()["queue_depths"] == {"acme": 0}

            gate.open()
            for asker in askers:
                asker.join(TIMEOUT)
            assert sorted(answers) == ["old-0", "old-1", "old-2"]
            assert {answer["method"] for answer in answers.values()} == {"stub"}
            assert {answer["formula"] for answer in answers.values()} == {"=SUM(A1:A3)"}

            # Dropped for good: the next scrape lets go of everything.
            service.drop_workspace("acme")
            assert client.stats()["queue_depths"] == {}
            assert "workspace=" not in client.metrics_text()
            with pytest.raises(ServerError) as excinfo:
                client.recommend("acme", _target_sheet(), "A3")
            assert excinfo.value.status == 404
        del gate
        gc.collect()
        assert old_workspace() is None


# -------------------------------------------------------------------- parity


@pytest.fixture(scope="module")
def serving_corpus(trained_encoder, pge_corpus):
    """A small real corpus + cases and a directly-served twin workspace."""
    test_workbooks, references = split_corpus(pge_corpus, 0.15, "timestamp")
    references = references[:5]
    cases = sample_test_cases("PGE", test_workbooks, max_per_sheet=2, seed=0)[:8]
    direct = FormulaService(trained_encoder, AutoFormulaConfig())
    direct.create_workspace("pge", workbooks=references)
    return references, cases, direct.workspace("pge")


class TestWireParity:
    """Wire serving must be bit-identical to direct FormulaService calls."""

    def _assert_wire_matches_direct(self, wire, direct_response):
        if direct_response.formula is None:
            assert wire["formula"] is None
            assert wire["abstain_reason"] == direct_response.abstain_reason.value
        else:
            assert wire["formula"] == direct_response.formula
            assert wire["confidence"] == pytest.approx(direct_response.confidence, abs=0.0)
            assert wire["abstain_reason"] is None
            assert wire["provenance"] == _json_safe(direct_response.provenance)

    def test_round_trip_parity_with_direct_service(
        self, trained_encoder, serving_corpus
    ):
        references, cases, direct_workspace = serving_corpus
        service = FormulaService(trained_encoder, AutoFormulaConfig())
        service.create_workspace("pge", workbooks=references)
        with start_server_in_background(service) as handle:
            client = FormulaClient(handle.host, handle.port)
            for case in cases:
                wire = client.recommend(
                    "pge", sheet_to_dict(case.target_sheet), case.target_cell.to_a1()
                )
                direct_response = direct_workspace.recommend(
                    RecommendationRequest(case.target_sheet, case.target_cell)
                )
                self._assert_wire_matches_direct(wire, direct_response)
            # The S3 region stores report through the registry; a scraper
            # need not have read /stats first for the gauges to exist.
            metrics = {
                line.split(" ")[0]: float(line.split(" ")[1])
                for line in client.metrics_text().splitlines()
                if not line.startswith("#")
            }
            stats = client.stats()
            gauges = {
                name for name in metrics if name.startswith("workspace_region_store_")
            }
            assert gauges == {
                f'workspace_region_store_{field}{{workspace="pge"}}'
                for field in ("hit", "miss", "cells")
            }
            assert metrics['workspace_region_store_miss{workspace="pge"}'] > 0
            # One gauge family covers every cache, by instance name.
            caches = (
                "cell_features", "sheet_tensors", "reduced_tensors",
                "target_stores", "query_vectors", "interned_sheets",
            )
            for cache in caches:
                for field in ("hit", "miss", "evict", "size"):
                    assert f'cache_{field}{{cache="{cache}"}}' in metrics, (cache, field)
                assert metrics[f'cache_miss{{cache="{cache}"}}'] > 0, cache
            assert set(caches) <= set(stats["caches"])
            assert stats["caches"]["sheet_tensors"]["bytes"] > 0

    def test_coalesced_burst_parity_and_ratio(self, trained_encoder, serving_corpus):
        references, cases, direct_workspace = serving_corpus
        service = FormulaService(trained_encoder, AutoFormulaConfig())
        gate = _Gate(service.create_workspace("pge", workbooks=references))
        # Burst: every case fired concurrently at a gated workspace, cap
        # equal to the burst size: the coalescing outcome is deterministic.
        config = ServerConfig(max_batch_size=len(cases))
        with start_server_in_background(service, config) as handle:
            tasks = [
                (sheet_to_dict(case.target_sheet), case.target_cell.to_a1())
                for case in cases
            ]
            result = _swarm_behind_gate(handle, gate, "pge", tasks)
            stats = FormulaClient(handle.host, handle.port).stats()

        assert result.statuses == [200] * len(cases)
        # The burst actually coalesced: fewer batches than requests.
        assert stats["coalescing_ratio"] > 1.0
        assert max(response["batch_size"] for response in result.responses) > 1
        # Exactly: the first arrivals' batch, and one batch behind it.
        assert stats["counters"]["batches"] <= 2
        assert sum(
            int(size) * count for size, count in stats["batch_size_histogram"].items()
        ) == len(cases)

        # Bit-parity: each wire response equals the direct sequential serve.
        by_id = {response["request_id"]: response for response in result.responses}
        direct_responses = direct_workspace.serve_batch(
            [
                RecommendationRequest(case.target_sheet, case.target_cell)
                for case in cases
            ]
        )
        for position, direct_response in enumerate(direct_responses):
            self._assert_wire_matches_direct(by_id[str(position)], direct_response)

    def test_workload_serve_burst_through_server(self, trained_encoder):
        """The workload generator's ``serve`` bursts drive wire coalescing."""
        workload = generate_workload(
            13,
            WorkloadConfig(
                n_tenants=1,
                n_steps=6,
                op_weights=(0.0, 0.0, 0.0, 0.0, 1.0, 0.0),
                initial_workbooks=2,
                serve_clusters=2,
                serve_cluster_size=4,
            ),
        )
        serve_ops = [op for op in workload.ops if op.kind == "serve"]
        assert serve_ops, "workload drew no serve bursts"
        tenant = workload.tenants[0]

        config = AutoFormulaConfig()
        service = FormulaService(trained_encoder, config)
        workbooks = [op.workbook for op in workload.ops if op.kind == "add"]
        gate = _Gate(
            service.create_workspace(
                tenant, workbooks=[workbook.copy() for workbook in workbooks]
            )
        )
        direct = FormulaService(trained_encoder, config).create_workspace(
            "direct", workbooks=[workbook.copy() for workbook in workbooks]
        )

        burst = serve_ops[0]
        server_config = ServerConfig(max_batch_size=len(burst.cases))
        with start_server_in_background(service, server_config) as handle:
            tasks = [
                (sheet_to_dict(case.target_sheet), case.target_cell.to_a1())
                for case in burst.cases
            ]
            result = _swarm_behind_gate(handle, gate, tenant, tasks)

        assert result.statuses == [200] * len(burst.cases)
        direct_responses = direct.serve_batch(
            [
                RecommendationRequest(case.target_sheet, case.target_cell)
                for case in burst.cases
            ]
        )
        by_id = {response["request_id"]: response for response in result.responses}
        for position, direct_response in enumerate(direct_responses):
            self._assert_wire_matches_direct(by_id[str(position)], direct_response)


class TestDuplicateCollapsing:
    def test_identical_requests_compute_once_and_fan_out(self):
        service = _stub_service()
        predictor = service.workspace("acme").predictor
        gate = _Gate(service.workspace("acme"))
        config = ServerConfig(max_batch_size=8)
        with start_server_in_background(service, config) as handle:
            # Eight byte-identical (sheet, cell) requests fired concurrently:
            # the interner maps them to one Sheet, the workspace collapses
            # each batch to one predicted cell, and each caller still gets
            # its own echo.
            tasks = [(sheet_to_dict(_target_sheet()), "A3") for __ in range(8)]
            result = _swarm_behind_gate(handle, gate, "acme", tasks)
            stats = FormulaClient(handle.host, handle.port).stats()

        assert result.statuses == [200] * 8
        assert {response["request_id"] for response in result.responses} == {
            str(position) for position in range(8)
        }
        assert {response["formula"] for response in result.responses} == {"=SUM(A1:A3)"}
        assert predictor.cells_predicted < 8
        assert predictor.cells_predicted == stats["counters"]["batches"] <= 2
        assert stats["counters"]["collapsed_duplicates"] >= 8 - predictor.cells_predicted
        assert stats["counters"]["served"] == 8


# ----------------------------------------------------------------- admission


class TestAdmissionControl:
    def test_rate_limit_answers_429_with_retry_after(self):
        config = ServerConfig(
            admission=AdmissionConfig(rate_limit_per_tenant=0.001, rate_limit_burst=1.0)
        )
        with start_server_in_background(_stub_service(), config) as handle:
            client = FormulaClient(handle.host, handle.port)
            first = client.recommend("acme", _target_sheet(), "A3")
            assert first["formula"] is not None
            with pytest.raises(ServerError) as excinfo:
                client.recommend("acme", _target_sheet(), "A3")
            assert excinfo.value.status == 429
            assert excinfo.value.body["error"] == "rate_limited"
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after > 0
            assert FormulaClient(handle.host, handle.port).stats()["counters"][
                "rejected_rate_limited"
            ] == 1

    def test_full_queue_sheds_with_503(self):
        config = ServerConfig(
            max_batch_size=1,
            executor_workers=1,
            admission=AdmissionConfig(queue_limit=2),
        )
        service = _stub_service(delay_seconds=0.2)
        with start_server_in_background(service, config) as handle:
            tasks = [(sheet_to_dict(_target_sheet()), "A3") for __ in range(6)]
            result = run_client_swarm(handle.host, handle.port, "acme", tasks, concurrency=6)
            stats = FormulaClient(handle.host, handle.port).stats()

        shed = [status for status in result.statuses if status == 503]
        served = [status for status in result.statuses if status == 200]
        assert shed, "expected at least one queue-full rejection"
        assert served, "expected at least one served request"
        assert stats["counters"]["rejected_queue_full"] == len(shed)
        rejected = next(
            body for status, body in zip(result.statuses, result.responses) if status == 503
        )
        assert rejected["error"] == "queue_full"

    def test_graceful_drain_finishes_inflight_and_refuses_new(self):
        service = _stub_service(delay_seconds=0.6)
        handle = start_server_in_background(service)
        inflight_result = {}

        def inflight_request():
            client = FormulaClient(handle.host, handle.port)
            inflight_result["response"] = client.recommend("acme", _target_sheet(), "A3")

        worker = threading.Thread(target=inflight_request)
        worker.start()
        time.sleep(0.15)  # request is now executing in the server's pool

        shutdown = threading.Thread(target=handle.shutdown)
        shutdown.start()
        time.sleep(0.1)  # drain flag is set, batcher still busy

        drain_client = FormulaClient(handle.host, handle.port)
        assert drain_client.health()["status"] == "draining"
        with pytest.raises(ServerError) as excinfo:
            drain_client.recommend("acme", _target_sheet(), "A3")
        assert excinfo.value.status == 503
        assert excinfo.value.body["error"] == "draining"

        worker.join(timeout=5)
        shutdown.join(timeout=5)
        # The in-flight request was served to completion, not dropped.
        assert inflight_result["response"]["formula"] == "=SUM(A1:A3)"


class TestReadTimeouts:
    def test_stalled_and_idle_connections_are_closed_beside_a_busy_client(self, monkeypatch):
        """A client that stops mid-head or mid-body gets a 408 and a closed
        connection; one that opens a connection and sends nothing is closed
        without a response.  Before the timeout each of them pinned its
        connection and handler task for good."""
        bound = 0.3
        monkeypatch.setattr(app_module, "READ_TIMEOUT_S", bound)
        head = b"POST /v1/workspaces/acme/recommend HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
        with start_server_in_background(_stub_service()) as handle:
            stalled = {}
            try:
                for name, sent in (("mid_head", head[:20]), ("mid_body", head + b'{"ce'), ("idle", b"")):
                    stalled[name] = socket.create_connection((handle.host, handle.port), TIMEOUT)
                    stalled[name].sendall(sent)
                started = time.monotonic()
                with FormulaClient(handle.host, handle.port) as client:
                    answered = 0
                    while time.monotonic() - started < 2 * bound:
                        assert client.recommend("acme", _target_sheet(), "A3")["formula"] == "=SUM(A1:A3)"
                        answered += 1
                assert answered >= 10
                for name, sock in stalled.items():
                    sock.settimeout(bound)  # closed by now: the reads return at once
                    received = b""
                    while chunk := sock.recv(4096):
                        received += chunk
                    if name == "idle":
                        assert received == b""
                    else:
                        assert received.startswith(b"HTTP/1.1 408 Request Timeout\r\n"), name
                        assert b'"error": "request_timeout"' in received
            finally:
                for sock in stalled.values():
                    sock.close()
            with FormulaClient(handle.host, handle.port) as probe:
                counters = probe.stats()["counters"]
        assert counters["read_timeouts"] == 3
        assert counters["rejected_frames"] == {"request_timeout": 2}
        assert "server_errors" not in counters


def _raw_exchange(handle, request: bytes) -> bytes:
    """Send ``request`` as it is on a fresh connection; everything the
    server answers before it closes."""
    with socket.create_connection((handle.host, handle.port), TIMEOUT) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        return sock.makefile("rb").read()


class TestMalformedInput:
    def test_deeply_nested_json_is_a_schema_error(self):
        """``json.loads`` raises ``RecursionError`` on deep nesting, which
        used to reach the defensive 500 arm."""
        body = b"[" * 100_000 + b"]" * 100_000
        with start_server_in_background(_stub_service()) as handle:
            for path in ("recommend", "edit-cell", "workbooks"):
                connection = http.client.HTTPConnection(handle.host, handle.port, timeout=TIMEOUT)
                try:
                    connection.request("POST", f"/v1/workspaces/acme/{path}", body=body)
                    response = connection.getresponse()
                    status, answer = response.status, json.loads(response.read())
                finally:
                    connection.close()
                assert status == 400 and answer["error"] == "schema_error", (path, answer)
            counters = FormulaClient(handle.host, handle.port).stats()["counters"]
        assert "server_errors" not in counters

    def test_every_rejected_frame_is_counted_by_reason(self):
        config = ServerConfig(max_body_bytes=64)
        head = b"POST /v1/workspaces/acme/recommend HTTP/1.1\r\nContent-Length: %s\r\n\r\n"
        with start_server_in_background(_stub_service(), config) as handle:
            client = FormulaClient(handle.host, handle.port)
            assert client.stats()["counters"]["rejected_frames"] == {}
            answer = _raw_exchange(handle, head % b"twelve")
            assert answer.startswith(b"HTTP/1.1 400 ") and b'"bad_request"' in answer
            assert client.stats()["counters"]["rejected_frames"] == {"bad_request": 1}
            # Refused from the head alone: no body, so none is left unread.
            answer = _raw_exchange(handle, head % b"65")
            assert answer.startswith(b"HTTP/1.1 413 ") and b'"payload_too_large"' in answer
            assert client.stats()["counters"]["rejected_frames"] == {
                "bad_request": 1,
                "payload_too_large": 1,
            }
            metrics = client.metrics_text()
        assert 'server_rejected_frames_total{reason="bad_request"} 1' in metrics
        assert 'server_rejected_frames_total{reason="payload_too_large"} 1' in metrics


# ----------------------------------------------------------------- internals


class TestInternals:
    def test_sheet_interner_shares_identical_payloads(self):
        interner = SheetInterner(max_entries=2)
        payload = sheet_to_dict(_target_sheet())
        first = interner.intern(payload)
        second = interner.intern(sheet_to_dict(_target_sheet()))
        assert first is second
        assert interner.hits == 1 and interner.misses == 1

        other = Sheet("Other")
        other.set("B2", 7.0)
        assert interner.intern(sheet_to_dict(other)) is not first
        # LRU bound: a third distinct sheet evicts the least recent.
        third = Sheet("Third")
        third.set("C3", 1.0)
        interner.intern(sheet_to_dict(third))
        assert len(interner) == 2

    def test_token_bucket_refill_and_retry_after(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.try_acquire(0.0) is None
        assert bucket.try_acquire(0.0) is None
        wait = bucket.try_acquire(0.0)
        assert wait == pytest.approx(0.5)
        # Half a second later one token has accrued.
        assert bucket.try_acquire(0.5) is None
        assert bucket.try_acquire(0.5) == pytest.approx(0.5)

    def test_token_bucket_clamps_backwards_clock(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_acquire(100.0) is None
        assert bucket.try_acquire(100.0) is None
        assert bucket.try_acquire(100.0) == pytest.approx(1.0)
        # The clock rewinds: the watermark must not move backwards, or the
        # next call at t=100 would re-credit 100 seconds of tokens.
        assert bucket.try_acquire(0.0) == pytest.approx(1.0)
        assert bucket.try_acquire(100.0) == pytest.approx(1.0)
        # Only genuinely new time refills: one second past the watermark.
        assert bucket.try_acquire(101.0) is None
        assert bucket.try_acquire(101.0) == pytest.approx(1.0)

    def test_token_bucket_equal_timestamps_spend_without_refill(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        assert bucket.try_acquire(5.0) is None
        # Same timestamp again: no elapsed time, so no refill — but the
        # call must still be answered (with the retry hint), not crash or
        # hand back burst tokens.
        assert bucket.try_acquire(5.0) == pytest.approx(0.1)
        assert bucket.try_acquire(5.0) == pytest.approx(0.1)

    def test_token_bucket_defaults_to_monotonic_clock(self):
        ticks = iter([0.0, 0.0, 10.0])
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=lambda: next(ticks))
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() == pytest.approx(1.0)
        assert bucket.try_acquire() is None
        # And without an explicit clock the default is time.monotonic.
        assert TokenBucket(rate=1.0, burst=1.0).try_acquire() is None

    def test_json_safe_handles_numpy_and_objects(self):
        import numpy as np

        encoded = _json_safe(
            {"d": np.float32(0.5), "n": 3, "addr": Sheet("X"), "t": (1, "a")}
        )
        assert encoded["d"] == 0.5 and isinstance(encoded["d"], float)
        assert encoded["n"] == 3
        assert isinstance(encoded["addr"], str)
        assert encoded["t"] == [1, "a"]
