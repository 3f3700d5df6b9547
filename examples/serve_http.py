"""Serve Auto-Formula over HTTP: the network front-end end to end.

This stands up the full serving stack on a real socket and talks to it
like a client application would:

1. train the representation models and load an organization's workbooks
   into a FormulaService workspace (the offline phase),
2. start the asyncio JSON-over-HTTP server on a background thread
   (`start_server_in_background`, ephemeral port),
3. serve recommendation requests over the wire — first one at a time
   (a lone request is dispatched at once: there is no batch timer), then
   as a concurrent client swarm whose requests gather behind the batch
   that is running and ride the next one together,
4. apply a live cell edit through the edit endpoint (incremental recalc
   plus re-index),
5. read the server's observability surface (/stats): admission counters,
   batch-size histogram, coalescing ratio, queue wait and per-endpoint
   latency percentiles, and
6. pull the tracing/metrics surface: the Prometheus text exposition
   (/metrics) and the sampled span trees (/traces) of the requests just
   served, validating both shapes — this script doubles as the CI smoke
   test for the observability endpoints.

Run with:  python examples/serve_http.py
"""

from repro import (
    AutoFormulaConfig,
    FormulaService,
    ModelConfig,
    TrainingConfig,
    build_enterprise_corpus,
    build_training_universe,
    generate_training_pairs,
    train_models,
)
from repro.corpus import sample_test_cases, split_corpus
from repro.server import FormulaClient, ServerConfig, run_client_swarm, start_server_in_background
from repro.sheet.io import sheet_to_dict


def main() -> None:
    print("1) Training models and loading the organization's workbooks ...")
    universe = build_training_universe(n_families=8, copies_per_family=3, n_singletons=6)
    encoder, __ = train_models(
        generate_training_pairs(universe), ModelConfig(), TrainingConfig(epochs=8)
    )
    corpus = build_enterprise_corpus("PGE")
    test_workbooks, reference_workbooks = split_corpus(corpus, 0.15, "timestamp")
    service = FormulaService(encoder, AutoFormulaConfig())
    service.create_workspace("pge", workbooks=reference_workbooks)
    cases = sample_test_cases("PGE", test_workbooks, max_per_sheet=3)

    print("2) Starting the HTTP server on an ephemeral port ...")
    config = ServerConfig(max_batch_size=8)
    with start_server_in_background(service, config) as handle:
        print(f"   listening on {handle.base_url}")
        client = FormulaClient(handle.host, handle.port)
        print(f"   /health -> {client.health()}")

        print("3) Serving requests over the wire ...")
        case = cases[0]
        response = client.recommend("pge", case.target_sheet, case.target_cell.to_a1())
        print(
            f"   single request: {response['formula']!r} "
            f"(confidence {response['confidence'] or 0.0:.2f}, "
            f"rode a batch of {response['batch_size']}, "
            f"queued {response['queue_seconds'] * 1000:.2f} ms)"
        )
        # Batch while busy: a request that finds its workspace idle does
        # not wait for company.
        assert response["batch_size"] == 1, response["batch_size"]
        assert any(
            line.startswith('server_batch_dispatch_total{reason="idle"} ')
            for line in client.metrics_text().splitlines()
        ), "missing batch_dispatch{reason=\"idle\"}"

        # A swarm of concurrent clients asking about the same sheets: what
        # arrives while a batch is running goes out as the next engine
        # batch, so the requests share featurization and retrieval.
        tasks = [
            (sheet_to_dict(case.target_sheet), case.target_cell.to_a1())
            for case in cases[:12]
        ]
        swarm = run_client_swarm(handle.host, handle.port, "pge", tasks, concurrency=6)
        summary = swarm.latency_summary()
        print(
            f"   swarm: {swarm.n_ok}/{swarm.n_requests} ok, "
            f"{swarm.requests_per_second:.1f} req/s, "
            f"p50 {summary['p50_seconds'] * 1000:.1f} ms, "
            f"p99 {summary['p99_seconds'] * 1000:.1f} ms"
        )

        print("4) Applying a live edit through the wire ...")
        workbook = reference_workbooks[0]
        sheet = next(iter(workbook))
        address = next(iter(sheet.cells()))[0]
        edit = client.edit_cell(
            "pge", workbook.name, sheet.name, address.to_a1(), value=123.0
        )
        print(f"   edit {workbook.name}/{sheet.name}!{address.to_a1()} -> {edit['recalc']}")

        print("5) Reading the observability surface ...")
        stats = client.stats()
        # The batch cap and the admission bounds: there is no batch window.
        assert set(stats["config"]) == {
            "max_batch_size", "queue_limit", "rate_limit_per_tenant",
        }, stats["config"]
        print(f"   config            : {stats['config']}")
        print(f"   counters          : {stats['counters']}")
        print(f"   batch sizes       : {stats['batch_size_histogram']}")
        print(f"   coalescing ratio  : {stats['coalescing_ratio']:.2f}")
        print(f"   sheet cache       : {stats['sheet_cache']}")
        caches = ", ".join(
            f"{name} {counts['hit']}/{counts['miss']}" for name, counts in stats["caches"].items()
        )
        print(f"   caches (hit/miss) : {caches}")
        recommend_stats = stats["endpoints"].get("recommend", {})
        if recommend_stats.get("count"):
            print(
                f"   recommend latency : p50 {recommend_stats['p50_seconds'] * 1000:.1f} ms, "
                f"p99 {recommend_stats['p99_seconds'] * 1000:.1f} ms "
                f"over {recommend_stats['count']} calls"
            )

        print("6) Pulling the tracing/metrics surface ...")
        metrics = client.metrics_text()
        lines = metrics.strip().splitlines()
        # Prometheus text exposition: TYPE headers, counters with the
        # _total suffix, and summary quantiles for endpoint latency.
        assert any(line.startswith("# TYPE ") for line in lines), "no TYPE headers"
        assert any(
            line.startswith("server_accepted_total ") for line in lines
        ), "missing server_accepted_total"
        assert any(
            line.startswith('server_endpoint_seconds{endpoint="recommend"') for line in lines
        ), "missing recommend latency summary"
        # Every cache reports through one gauge family, by instance name.
        for gauge in ('cache_hit{cache="cell_features"}', 'cache_size{cache="interned_sheets"}'):
            assert any(line.startswith(gauge + " ") for line in lines), f"missing {gauge}"
        print(f"   /metrics -> {len(lines)} exposition lines (shape ok)")

        traces = client.traces()
        assert set(traces) == {"recent", "slow", "stats"}, sorted(traces)
        recommend_traces = [
            tree
            for tree in traces["recent"]
            if tree["root"]["attributes"].get("endpoint") == "recommend"
        ]
        assert recommend_traces, "no recommend trace was sampled"

        def walk(node, names, depth=0, lines_out=None):
            names.add(node["name"])
            if lines_out is not None and depth <= 3:
                lines_out.append(
                    f"   {'  ' * depth}{node['name']:<18} {node['duration_ms']:>7.2f} ms"
                )
            for child in node["children"]:
                walk(child, names, depth + 1, lines_out)

        # A coalesced batch's flush span lives in its *leader's* trace
        # (riders carry batch_size attributes instead), so look for a
        # leader among the sampled recommend requests.
        tree, stage_names = None, set()
        for candidate in reversed(recommend_traces):
            names = set()
            walk(candidate["root"], names)
            if "batch.flush" in names:
                tree, stage_names = candidate, names
                break
        assert tree is not None, "no leader trace with a batch.flush span"
        rendered = []
        walk(tree["root"], set(), 0, rendered)
        assert {"http.request", "wire.decode", "batch.flush"} <= stage_names, stage_names
        print(f"   /traces -> {len(traces['recent'])} sampled traces; one request's tree:")
        print("\n".join(rendered[:12]))
    print("   server drained and stopped.")


if __name__ == "__main__":
    main()
