"""Observability overhead and a captured end-to-end request trace.

Two claims back the ``repro.obs`` tentpole:

1. **Overhead** — instrumenting the whole request path costs (almost)
   nothing when nobody is looking.  With tracing *disabled* every
   instrumented site pays one method call returning a shared no-op span;
   the measured per-call cost times the spans-per-request count must be
   under 1% of a request's p50.  At the production setting (**1%
   sampling**) the serving p50 must stay within a few percent of the
   disabled p50 (documented target: <= 5%).  Full (100%) sampling is
   reported for context.

2. **Legibility** — one recommend produces a single span tree showing
   the staged plan (S1 sheet search with tier-1 scan / tier-2 re-rank,
   S2 scoring, S3 re-grounding) plus an edit's
   incremental-recalculation trace.  Both trees are written to
   ``benchmarks/results/fig_obs_trace.json`` — the artifact the
   EXPERIMENTS.md trace-reading guide walks through — and the CI slow
   job uploads them.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.core import AutoFormula, AutoFormulaConfig
from repro.corpus import sample_test_cases, split_corpus
from repro.obs import get_tracer
from repro.service import FormulaService, RecommendationRequest, Workspace

#: Passes over the request pool.  The tracer mode changes request by
#: request and rotates between passes, so every third pass runs each
#: request once in each mode, and a slow spell of the machine lands on all
#: three modes alike rather than on one mode's block of requests.
N_ROUNDS = 24
#: Requests in the pool (at most; the PGE split yields 15).
N_REQUESTS = 24
#: Iterations of the disabled-span microbenchmark.
N_NOOP_CALLS = 200_000

#: Tracer settings under test.  "sampled-1%" is the production setting.
MODES = (
    ("disabled", {"enabled": False, "sample_rate": 1.0}),
    ("sampled-1%", {"enabled": True, "sample_rate": 0.01}),
    ("full", {"enabled": True, "sample_rate": 1.0}),
)


def _serving_workload(encoder, corpora):
    """A workspace plus a pool of distinct warm requests."""
    test_workbooks, references = split_corpus(corpora["PGE"], 0.15, "timestamp")
    cases = sample_test_cases("PGE", test_workbooks, max_per_sheet=2, seed=0)
    # The pool is 15 requests on 15 distinct target sheets, replayed in
    # order through the predictor's per-sheet caches of 8 entries: an LRU
    # cycled past its bound never hits, so every measured request is cold —
    # it re-encodes its sheet and pays S1 -> S2 -> S3 in full, which is
    # what the tracer wraps (only the featurizer's 64-entry tensor cache
    # holds all 15).
    service = FormulaService(encoder, AutoFormulaConfig())
    workspace = service.create_workspace("pge", workbooks=references)
    requests = [
        RecommendationRequest(case.target_sheet, case.target_cell)
        for case in cases[:N_REQUESTS]
    ]
    return workspace, requests


def test_fig_obs_overhead(encoder, corpora, report_writer):
    workspace, requests = _serving_workload(encoder, corpora)
    tracer = get_tracer()
    latencies = {mode: [] for mode, __ in MODES}
    try:
        for request in requests:  # warm the lazy fit outside the clock
            workspace.recommend(request)
        for round_index in range(N_ROUNDS):
            for position, request in enumerate(requests):
                mode, settings = MODES[(position + round_index) % len(MODES)]
                tracer.configure(slow_threshold_s=0.0, **settings)
                begin = time.perf_counter()
                workspace.recommend(request)
                latencies[mode].append(time.perf_counter() - begin)

        # Per-call price of an instrumented site while tracing is off.
        tracer.configure(enabled=False)
        begin = time.perf_counter()
        for __ in range(N_NOOP_CALLS):
            with tracer.span("bench.noop"):
                pass
        noop_seconds = (time.perf_counter() - begin) / N_NOOP_CALLS

        # Spans one request actually opens (counted, not guessed).
        tracer.configure(enabled=True, sample_rate=1.0)
        tracer.reset()
        workspace.recommend(requests[0])
        spans_per_request = tracer.recent_traces()[-1]["n_spans"]
    finally:
        tracer.configure(enabled=False, sample_rate=1.0, slow_threshold_s=0.25)
        tracer.reset()

    p50 = {mode: statistics.median(values) for mode, values in latencies.items()}
    sampled_ratio = p50["sampled-1%"] / p50["disabled"]
    full_ratio = p50["full"] / p50["disabled"]
    disabled_fraction = spans_per_request * noop_seconds / p50["disabled"]

    lines = [
        "Observability overhead: traced vs untraced serving p50",
        f"({len(requests)} distinct requests x {N_ROUNDS} passes, the tracer mode "
        "switched request by request; PGE workspace, every request cold)",
        "",
        f"{'tracer mode':>12} {'p50 ms':>9} {'vs disabled':>12}",
    ]
    for mode, __ in MODES:
        lines.append(
            f"{mode:>12} {p50[mode] * 1000:>9.2f} "
            f"{p50[mode] / p50['disabled']:>11.3f}x"
        )
    lines += [
        "",
        f"disabled-site cost: {noop_seconds * 1e9:.0f} ns/span-call x "
        f"{spans_per_request} spans/request = "
        f"{disabled_fraction * 100:.3f}% of the disabled p50 "
        "(acceptance: <= 1%)",
        f"1% sampling overhead: {(sampled_ratio - 1) * 100:+.1f}% p50 "
        "(documented target: <= 5%)",
        f"full sampling overhead: {(full_ratio - 1) * 100:+.1f}% p50 (context only)",
    ]
    report_writer("fig_obs_overhead", lines)

    assert disabled_fraction <= 0.01, (
        f"disabled instrumentation costs {disabled_fraction * 100:.2f}% of "
        "the request p50, above the 1% acceptance bar"
    )
    # The documented target is 5%; the in-code ceiling leaves margin for
    # shared-CI timer noise so the bar trips on regressions, not weather.
    assert sampled_ratio <= 1.10, (
        f"1%-sampled serving p50 is {sampled_ratio:.3f}x the disabled p50, "
        "beyond the 5% target (+5% noise margin)"
    )


def _collect_names(node, into):
    into.add(node["name"])
    for child in node["children"]:
        _collect_names(child, into)
    return into


def test_fig_obs_trace_capture(encoder, corpora, results_dir, report_writer):
    """Capture one recommend's full span tree.

    The corpus is every enterprise's reference workbooks combined.  One
    query over a few hundred sheets is far below the scorer's gate, so
    the gate is lowered on this workspace's indexes: the captured search
    spans then show the tier-1 scan and tier-2 re-rank explicitly.
    """
    references, cases, seen = [], [], set()
    for name, corpus in corpora.items():
        test_workbooks, refs = split_corpus(corpus, 0.15, "timestamp")
        # Synthetic corpora reuse workbook file names across enterprises;
        # a workspace indexes by name, so keep the first of each.
        references.extend(
            ref for ref in refs if not (ref.name in seen or seen.add(ref.name))
        )
        cases.extend(sample_test_cases(name, test_workbooks, max_per_sheet=1, seed=0))
    workspace = Workspace("traced", AutoFormula(encoder, AutoFormulaConfig()))
    tracer = get_tracer()
    try:
        workspace.add_workbooks(references)
        for index in (workspace.predictor.sheet_index, workspace.predictor.formula_index):
            index.tier1_min_pairs = 2
        tracer.configure(enabled=True, sample_rate=1.0, slow_threshold_s=0.0)
        tracer.reset()

        # One accepted recommend (PGE is highly templated, so the S2
        # winner passes the acceptance gate and S3 runs).
        recommend_tree = None
        for case in cases:
            tracer.reset()
            response = workspace.recommend(
                RecommendationRequest(case.target_sheet, case.target_cell)
            )
            recommend_tree = tracer.recent_traces()[-1]
            if response.accepted:
                break

        # One live edit: formula engine recalculation inside the edit span.
        edited = next(
            workbook
            for workbook in workspace.workbooks()
            if any(sheet.n_formulas() for sheet in workbook)
        )
        sheet = next(sheet for sheet in edited if sheet.n_formulas())
        address = next(
            address
            for address, cell in sheet.cells()
            if not cell.has_formula and isinstance(cell.value, (int, float))
            and not isinstance(cell.value, bool)
        )
        tracer.reset()
        workspace.edit_cell(edited.name, sheet.name, address, value=42.0)
        edit_tree = tracer.recent_traces()[0]
    finally:
        tracer.configure(enabled=False, sample_rate=1.0, slow_threshold_s=0.25)
        tracer.reset()

    names = _collect_names(recommend_tree["root"], set())
    assert recommend_tree["root"]["name"] == "workspace.serve"
    for required in (
        "s1.sheet_hits", "s2.score", "s3.adapt",
        "index.search", "index.tier1", "index.tier2",
    ):
        assert required in names, f"recommend trace is missing {required!r}"
    searches = [
        node["attributes"]
        for node in _iter_nodes(recommend_tree["root"])
        if node["name"] == "index.search"
    ]
    assert any(attrs.get("mode", "").startswith("two_tier") for attrs in searches)

    edit_names = _collect_names(edit_tree["root"], set())
    assert edit_tree["root"]["name"] == "workspace.edit_cell"
    assert "engine.recalculate" in edit_names

    artifact = results_dir / "fig_obs_trace.json"
    artifact.write_text(
        json.dumps(
            {"recommend": recommend_tree, "edit_recalculate": edit_tree},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    report_writer(
        "fig_obs_trace",
        [
            "End-to-end trace capture: one recommend + one edit",
            f"(full trees in {artifact.name}; scorer gate lowered to show both tiers)",
            "",
            f"recommend trace: {recommend_tree['n_spans']} spans, "
            f"{recommend_tree['duration_ms']:.1f} ms, "
            f"span kinds: {', '.join(sorted(names))}",
            f"edit trace: {edit_tree['n_spans']} spans, "
            f"{edit_tree['duration_ms']:.1f} ms, "
            f"span kinds: {', '.join(sorted(edit_names))}",
        ],
    )


def _iter_nodes(node):
    yield node
    for child in node["children"]:
        yield from _iter_nodes(child)
