"""Figure 8: online latency vs corpus size, plus offline preprocessing cost.

Sweeps the number of reference sheets and measures (a) the online
prediction latency of Auto-Formula with the Sentence-BERT-style and the
GloVe-style content embedders, and (b) Mondrian's prediction latency, whose
pairwise graph matching grows much faster and times out first — the paper's
Figure 8 shape.  The sweep is scaled down from the paper's 10-10,000 sheets
to keep the NumPy benchmark fast; the relative growth rates are what the
benchmark asserts.
"""

import time

from repro.baselines import MondrianBaseline, MondrianConfig
from repro.core import AutoFormula, AutoFormulaConfig
from repro.corpus import CorpusGenerator, CorpusSpec
from repro.evaluation import predict_cases
from repro.features import FeatureConfig
from repro.models import ModelConfig, SheetEncoder
from repro.service import RecommendationRequest, Workspace

from conftest import CORPUS_ORDER

#: Reference-corpus sizes (in workbooks); each workbook has 1-2 sheets.
SWEEP_SIZES = (5, 20, 60)
#: Hard budget for Mondrian's offline phase at each size.
MONDRIAN_BUDGET_SECONDS = 30.0


def _build_reference_pool(n_workbooks: int):
    spec = CorpusSpec(
        name=f"scaling-{n_workbooks}",
        n_families=max(2, n_workbooks // 4),
        min_copies=3,
        max_copies=4,
        n_singletons=max(1, n_workbooks // 10),
        seed=99,
    )
    corpus = CorpusGenerator(seed=3).generate(spec)
    return corpus.workbooks[:n_workbooks]


def test_fig8_scalability(benchmark, encoder, workloads_timestamp, report_writer):
    # A handful of online queries reused at every sweep point.
    query_cases = workloads_timestamp["PGE"].cases[:5]

    glove_encoder = SheetEncoder(
        ModelConfig(features=FeatureConfig(embedder_name="glove", content_embedding_dim=32))
    )
    # reuse the trained weights: both configurations share the architecture
    glove_encoder.coarse_model.load_state_dict(encoder.coarse_model.state_dict())
    glove_encoder.fine_model.load_state_dict(encoder.fine_model.state_dict())

    def run_sweep():
        series = {
            "Auto-Formula (Sentence-BERT)": {},
            "Auto-Formula (batched)": {},
            "Auto-Formula (GloVe)": {},
            "Mondrian": {},
        }
        offline = {"Auto-Formula (Sentence-BERT)": {}, "Auto-Formula (GloVe)": {}, "Mondrian": {}}
        for size in SWEEP_SIZES:
            reference = _build_reference_pool(size)

            for label, enc in [
                ("Auto-Formula (Sentence-BERT)", encoder),
                ("Auto-Formula (GloVe)", glove_encoder),
            ]:
                system = AutoFormula(enc, AutoFormulaConfig())
                start = time.perf_counter()
                system.fit(reference)
                offline[label][size] = time.perf_counter() - start
                start = time.perf_counter()
                sequential = [
                    system.predict(case.target_sheet, case.target_cell)
                    for case in query_cases
                ]
                series[label][size] = (time.perf_counter() - start) / len(query_cases)

                if label == "Auto-Formula (Sentence-BERT)":
                    # The batched online path: fresh system so per-sheet
                    # caches are cold, same queries grouped per target sheet.
                    batched_system = AutoFormula(enc, AutoFormulaConfig())
                    batched_system.fit(reference)
                    start = time.perf_counter()
                    batched = predict_cases(batched_system, query_cases)
                    series["Auto-Formula (batched)"][size] = (
                        time.perf_counter() - start
                    ) / len(query_cases)
                    assert [p.formula if p else None for p in batched] == [
                        p.formula if p else None for p in sequential
                    ]

            mondrian = MondrianBaseline(MondrianConfig(fit_timeout_seconds=MONDRIAN_BUDGET_SECONDS))
            start = time.perf_counter()
            try:
                mondrian.fit(reference)
                offline["Mondrian"][size] = time.perf_counter() - start
                start = time.perf_counter()
                for case in query_cases:
                    mondrian.predict(case.target_sheet, case.target_cell)
                series["Mondrian"][size] = (time.perf_counter() - start) / len(query_cases)
            except TimeoutError:
                offline["Mondrian"][size] = float("inf")
                series["Mondrian"][size] = float("inf")
        return series, offline

    series, offline = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    lines = ["Figure 8: latency vs number of reference workbooks", ""]
    lines.append("Online prediction latency (seconds per formula):")
    header = f"{'method':32s} " + " ".join(f"{size:>10d}" for size in SWEEP_SIZES)
    lines.append(header)
    for method, values in series.items():
        lines.append(
            f"{method:32s} " + " ".join(f"{values[size]:>10.3f}" for size in SWEEP_SIZES)
        )
    lines.append("")
    lines.append("Offline preprocessing time (seconds, whole reference set):")
    lines.append(header)
    for method, values in offline.items():
        lines.append(
            f"{method:32s} " + " ".join(f"{values[size]:>10.3f}" for size in SWEEP_SIZES)
        )
    report_writer("fig8_scalability", lines)

    smallest, largest = SWEEP_SIZES[0], SWEEP_SIZES[-1]
    # Shape: embedding-based search stays interactive and essentially flat as
    # the reference corpus grows, while Mondrian's costs grow much faster
    # with corpus size (the paper reports time-outs at 10K sheets).  At this
    # scaled-down sweep the assertions compare growth *rates* rather than
    # absolute values.
    for label in ("Auto-Formula (Sentence-BERT)", "Auto-Formula (batched)", "Auto-Formula (GloVe)"):
        assert series[label][largest] < 2.0
        assert series[label][largest] <= series[label][smallest] * 4.0 + 0.05

    def growth(values) -> float:
        if values[largest] == float("inf"):
            return float("inf")
        return values[largest] / max(values[smallest], 1e-6)

    auto_online_growth = growth(series["Auto-Formula (Sentence-BERT)"])
    auto_offline_growth = growth(offline["Auto-Formula (Sentence-BERT)"])
    mondrian_online_growth = growth(series["Mondrian"])
    mondrian_offline_growth = growth(offline["Mondrian"])
    assert mondrian_online_growth > auto_online_growth
    assert mondrian_offline_growth > auto_offline_growth


#: Serving configurations compared by the two-tier benchmark.  "before"
#: pins every serve-path optimization off — the seed-equivalent engine —
#: while "after" turns on the whole two-tier stack: BLAS tier-1 scan over
#: an int8 scan store with deterministic re-rank, cross-request
#: query-embedding reuse, and duplicate-cell collapsing.  Responses must
#: be bit-identical between the two, so the speedup is free of quality
#: drift by construction.
SERVING_MODES = {
    "before": dict(
        scoring_mode="deterministic",
        storage_dtype="float32",
        reuse_query_embeddings=False,
        collapse_duplicate_cells=False,
    ),
    "after": dict(
        scoring_mode="two_tier",
        storage_dtype="int8",
        reuse_query_embeddings=True,
        collapse_duplicate_cells=True,
    ),
}

#: Acceptance floor: "after" must serve the stream at least this many
#: times faster than "before".
MIN_SPEEDUP = 3.0


def test_fig8_two_tier_speedup(benchmark, encoder, workloads_timestamp, report_writer):
    """Fig. 8 serving variant: serve-path throughput before/after the
    two-tier scoring + serve-path-reuse stack.

    Builds the largest sweep corpus once, then serves an identical
    request stream through a :class:`Workspace` in both serving modes,
    measuring offline indexing time and end-to-end serving
    throughput/latency.  Responses must be bit-identical across both
    modes — the optimizations are exact.
    """
    reference = _build_reference_pool(SWEEP_SIZES[-1])
    query_cases = workloads_timestamp["PGE"].cases[:8]
    # A serving-shaped stream: several requests per target sheet *and*
    # repeated (sheet, cell) queries, as concurrent users of a shared
    # workbook produce (the original 24-request stream was "far from heavy
    # traffic"; x6 duplication keeps the 8 unique queries while giving the
    # serve path a realistic amount of redundancy to amortize).
    requests = [
        RecommendationRequest(case.target_sheet, case.target_cell, request_id=str(index))
        for index, case in enumerate(query_cases * 6)
    ]

    def run_sweep():
        results = {}
        reference_responses = None
        for mode, knobs in SERVING_MODES.items():
            config = AutoFormulaConfig(**knobs)
            start = time.perf_counter()
            workspace = Workspace(f"fig8-{mode}", AutoFormula(encoder, config))
            workspace.add_workbooks(reference)
            offline_seconds = time.perf_counter() - start
            workspace.serve_batch(requests[: len(query_cases)])  # warm caches
            start = time.perf_counter()
            responses = workspace.serve_batch(requests)
            elapsed = time.perf_counter() - start
            results[mode] = {
                "offline_seconds": offline_seconds,
                "throughput_rps": len(requests) / elapsed,
                "p50_seconds": workspace.latency.percentile(0.5),
                "p99_seconds": workspace.latency.percentile(0.99),
            }
            keys = [(r.formula, r.confidence, r.abstain_reason) for r in responses]
            if reference_responses is None:
                reference_responses = keys
            else:
                # The whole optimization stack is exact: "after" answers
                # must match "before" bit for bit.
                assert keys == reference_responses, (
                    f"serving mode {mode!r} diverged from the baseline engine"
                )
        return results

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    lines = [
        "Figure 8 (serving variant): serve-path throughput before/after",
        "two-tier scoring (int8 scan store) + embedding reuse + duplicate",
        "collapsing.  Responses are bit-identical across both modes.",
        f"corpus: {len(reference)} workbooks; stream: {len(requests)} requests",
        "",
    ]
    lines.append(
        f"{'mode':8s} {'offline (s)':>12s} "
        f"{'throughput (req/s)':>20s} {'p50 (s)':>10s} {'p99 (s)':>10s}"
    )
    for mode, row in results.items():
        lines.append(
            f"{mode:8s} {row['offline_seconds']:>12.3f} "
            f"{row['throughput_rps']:>20.1f} {row['p50_seconds']:>10.4f} "
            f"{row['p99_seconds']:>10.4f}"
        )
    speedup = results["after"]["throughput_rps"] / results["before"]["throughput_rps"]
    lines.append("")
    lines.append(f"after/before speedup: {speedup:.2f}x")
    report_writer("fig8_two_tier_speedup", lines)

    # The acceptance floor for this figure: the optimization stack serves
    # the same stream >= 3x faster at bit-identical answers.
    assert speedup >= MIN_SPEEDUP, (
        f"after/before speedup {speedup:.2f}x below {MIN_SPEEDUP}x"
    )
