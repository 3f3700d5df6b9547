"""Serving throughput: coalesced micro-batching vs one-at-a-time.

Reproduces the serving front-end's headline claim: when concurrent
clients ask about the same sheets, the per-workspace micro-batcher
coalesces simultaneous arrivals into single ``serve_batch`` calls —
sharing the engine's per-sheet featurization and retrieval — and
collapses content-identical ``(sheet, cell)`` duplicates to one
computation fanned back out.  Both modes run the *same* server stack —
admission, HTTP framing, thread-pool dispatch — and the same async
client swarm; the only difference is ``max_batch_size`` (1 disables
coalescing, turning the batcher into a one-request-at-a-time loop).

The workload is a burst-heavy session mix: a handful of distinct target
sheets, each asked about repeatedly, interleaved so the in-flight window
always spans a few same-sheet groups.  Repeated identical requests are
the realistic case for this paper's corpora: spreadsheets are copies of
shared templates, so concurrent users filling the same template blank
produce byte-identical sheet payloads and target cells, which the
content-addressed interner maps onto one another.

The table (req/s, p50, p99, best of N runs) is a *report*: it times a
50 ms burst on a shared box, and read 1.5x-2.7x run to run.  What the
test asserts is what repeats: in every run every coalesced answer equals
the one-at-a-time mode's, and (best of N, like the table) the coalesced
mode needs at most a third of its ``serve_batch`` calls and computes at
most half of the requests (the rest are collapsed duplicates).  Timings
that gate a change come from ``benchmarks/perf``.
"""

from __future__ import annotations

from repro.core import AutoFormulaConfig
from repro.corpus import sample_test_cases, split_corpus
from repro.server import FormulaClient, ServerConfig, run_client_swarm, start_server_in_background
from repro.service import FormulaService
from repro.sheet.io import sheet_to_dict

#: Distinct target sheets in the mix and how often each is asked about.
N_SHEETS = 4
REQUESTS_PER_SHEET = 16
#: Concurrent swarm clients (each owns one keep-alive connection).
CONCURRENCY = 16
#: Each mode is measured this many times and the best run is kept.
N_REPEATS = 3

MODES = (
    ("one-at-a-time", ServerConfig(max_batch_size=1, executor_workers=4)),
    ("coalesced", ServerConfig(max_batch_size=CONCURRENCY, executor_workers=4)),
)


def _serving_tasks(corpora):
    test_workbooks, references = split_corpus(corpora["PGE"], 0.15, "timestamp")
    cases = sample_test_cases("PGE", test_workbooks, max_per_sheet=1, seed=0)[:N_SHEETS]
    payloads = [
        (sheet_to_dict(case.target_sheet), case.target_cell.to_a1()) for case in cases
    ]
    # Interleave sheets so any CONCURRENCY-wide in-flight window holds
    # several requests per sheet — what the batcher can actually coalesce.
    tasks = [payloads[i % len(payloads)] for i in range(N_SHEETS * REQUESTS_PER_SHEET)]
    return references, tasks


def _answers(swarm):
    """``(formula, confidence)`` per task, in task order."""
    by_id = {response["request_id"]: response for response in swarm.responses}
    return [
        (by_id[str(i)]["formula"], by_id[str(i)]["confidence"]) for i in range(len(by_id))
    ]


def _measure(encoder, references, tasks, config):
    """Every run's ``(swarm, stats)``, the fastest first."""
    runs = []
    for __ in range(N_REPEATS):
        service = FormulaService(encoder, AutoFormulaConfig())
        service.create_workspace("pge", workbooks=references)
        with start_server_in_background(service, config) as handle:
            # Warm the predictor's lazy fit outside the timed window.
            FormulaClient(handle.host, handle.port).recommend(
                "pge", tasks[0][0], tasks[0][1]
            )
            swarm = run_client_swarm(
                handle.host, handle.port, "pge", tasks, concurrency=CONCURRENCY
            )
            stats = FormulaClient(handle.host, handle.port).stats()
        assert swarm.n_ok == len(tasks), f"swarm saw non-200s: {swarm.statuses}"
        runs.append((swarm, stats))
    return sorted(runs, key=lambda run: -run[0].requests_per_second)


def test_fig_serving_coalescing_throughput(encoder, corpora, report_writer):
    references, tasks = _serving_tasks(corpora)
    lines = [
        "Network serving: coalesced micro-batching vs one-at-a-time",
        f"({len(tasks)} requests over {N_SHEETS} distinct sheets, "
        f"{CONCURRENCY} concurrent clients, best of {N_REPEATS} runs)",
        "",
        f"{'mode':>14} {'req/s':>8} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'coalescing':>11} {'batches':>8} {'collapsed':>10}",
    ]
    measured = {}
    for mode, config in MODES:
        runs = measured[mode] = _measure(encoder, references, tasks, config)
        swarm, stats = runs[0]
        summary = swarm.latency_summary()
        lines.append(
            f"{mode:>14} {swarm.requests_per_second:>8.1f} "
            f"{summary['p50_seconds'] * 1000:>8.1f} "
            f"{summary['p99_seconds'] * 1000:>8.1f} "
            f"{stats['coalescing_ratio']:>10.2f}x "
            f"{stats['counters']['batches']:>8} "
            f"{stats['counters'].get('collapsed_duplicates', 0):>10}"
        )

    speedup = (
        measured["coalesced"][0][0].requests_per_second
        / measured["one-at-a-time"][0][0].requests_per_second
    )
    lines.append("")
    lines.append(f"throughput speedup: {speedup:.2f}x (reported, not asserted)")
    report_writer("fig_serving", lines)

    baseline_swarm, baseline_stats = measured["one-at-a-time"][0]
    expected = _answers(baseline_swarm)
    for swarm, stats in measured["one-at-a-time"] + measured["coalesced"]:
        assert _answers(swarm) == expected, "an answer depends on how it was batched"
    # Counts, like the table, are the best of the repeats: how a burst
    # splits into batches still depends on when its requests arrive.
    coalesced = [stats["counters"] for __, stats in measured["coalesced"]]
    batches = min(counters["batches"] for counters in coalesced)
    collapsed = max(counters["collapsed_duplicates"] for counters in coalesced)
    assert 3 * batches <= baseline_stats["counters"]["batches"], (
        f"coalesced serving took {batches} batches, more than a third of "
        f"the one-at-a-time mode's {baseline_stats['counters']['batches']}"
    )
    assert 2 * collapsed >= len(tasks), (
        f"only {collapsed} of {len(tasks)} requests were collapsed duplicates"
    )
