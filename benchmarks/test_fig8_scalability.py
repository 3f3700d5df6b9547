"""Figure 8: online latency vs corpus size, plus offline preprocessing cost.

Sweeps the number of reference sheets and measures (a) the online
prediction latency of Auto-Formula with the Sentence-BERT-style and the
GloVe-style content embedders, and (b) Mondrian's prediction latency, whose
pairwise graph matching grows much faster and times out first — the paper's
Figure 8 shape.  The sweep is scaled down from the paper's 10-10,000 sheets
to keep the NumPy benchmark fast; the relative growth rates are what the
benchmark asserts.
"""

import itertools
import os
import statistics
import time

import numpy as np

from repro.ann import VectorIndex
from repro.baselines import MondrianBaseline, MondrianConfig
from repro.core import AutoFormula, AutoFormulaConfig
from repro.corpus import CorpusGenerator, CorpusSpec, build_enterprise_corpus, split_corpus
from repro.evaluation import predict_cases
from repro.features import FeatureConfig
from repro.models import ModelConfig, SheetEncoder
from repro.obs import get_tracer

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


#: Gates ``search_batch`` is timed under at every point: the plain scorer
#: alone and the BLAS scan + re-rank forced (the engine is one or the other).
SWEEP_GATES = {"plain": 1 << 62, "blas": 2}
SWEEP_ROUNDS = 7
SWEEP_QUERY_COUNTS = (1, 4, 16)
#: Real pools: the presets and scales ``benchmarks/perf`` serves.
SWEEP_PRESETS = (("PGE", 4), ("Enron", 3))


def _unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d)).astype(np.float32)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _synthetic_points():
    """``(label, index, queries, k, positions)``: S1 searches a whole store
    of short vectors, S2 a pool of long region vectors."""
    rng = np.random.default_rng(0)
    for pool in (250, 500, 1000, 2000, 8000, 20000, 100000):
        index = VectorIndex(64)
        index.add_batch(list(range(pool)), _unit_rows(rng, pool, 64))
        for n_queries in SWEEP_QUERY_COUNTS:
            if pool * n_queries <= 400_000:  # the plain scorer takes ~0.1 us per pair
                yield "S1 shape: full store, D=64, k=3", index, _unit_rows(rng, n_queries, 64), 3, None
    index = VectorIndex(1280)
    index.add_batch(list(range(4096)), _unit_rows(rng, 4096, 1280))
    for pool in (64, 128, 256, 512, 2048):
        # Scattered rows are gathered; three sheets' worth of consecutive
        # rows — how the pipeline's pools lie — are scored as views.
        scattered = np.sort(rng.choice(4096, size=pool, replace=False))
        firsts = rng.permutation(4)[:3] * 1024
        lengths = (pool // 2, pool // 4, pool // 4)
        contiguous = np.concatenate(
            [np.arange(first, first + length) for first, length in zip(firsts, lengths)]
        )
        for label, positions in (("scattered", scattered), ("3 runs", contiguous)):
            for n_queries in SWEEP_QUERY_COUNTS:
                queries = _unit_rows(rng, n_queries, 1280)
                yield f"S2 shape: {label}, D=1280, k=1", index, queries, 1, positions


def _real_points(encoder, preset, scale):
    """The same, from a fitted preset corpus: S1 over its sheet index, S2
    over the formula pools of a target sheet's top-3/10/30/all sheets."""
    test_workbooks, references = split_corpus(
        build_enterprise_corpus(preset, scale=scale), 0.15, "timestamp"
    )
    system = AutoFormula(encoder, AutoFormulaConfig())
    system.fit(references)
    targets = [sheet for workbook in test_workbooks for sheet in workbook if sheet.n_formulas()]
    sheet_queries = np.stack([system.sheet_query_vector(sheet) for sheet in targets[:16]])
    target = max(targets, key=lambda sheet: sheet.n_formulas())
    cells = [address for address, cell in target.cells() if cell.has_formula][:16]
    region_queries = system.region_query_vectors(target, cells)
    for n_queries in SWEEP_QUERY_COUNTS:
        yield f"{preset} x{scale} S1", system.sheet_index, sheet_queries[:n_queries], 3, None
    for top in (3, 10, 30, len(system.sheet_index)):
        pool = np.concatenate(
            [
                system._reference_sheets[int(hit.key)].formula_rows
                for hit in system.sheet_hits(target, k=top)
            ]
        )
        for n_queries in SWEEP_QUERY_COUNTS:
            label = f"{preset} x{scale} S2 top-{top}"
            yield label, system.formula_index, region_queries[:n_queries], 1, pool


def _time_point(index, queries, k, positions):
    """Median ms per ``search_batch`` call under each gate (interleaved
    rounds, answers asserted equal) plus the BLAS path's ``max_slice`` /
    ``fallback_rows``."""
    samples = {label: [] for label in SWEEP_GATES}
    answers = {}
    tracer = get_tracer()
    try:
        for round_index in range(SWEEP_ROUNDS):
            labels = list(SWEEP_GATES)
            for label in labels if round_index % 2 == 0 else reversed(labels):
                index.tier1_min_pairs = SWEEP_GATES[label]
                start = time.perf_counter()
                answers[label] = index.search_batch(queries, k, positions=positions)
                once = time.perf_counter() - start
                repeats = max(1, int(0.004 / max(once, 1e-6)))
                start = time.perf_counter()
                for __ in range(repeats):
                    index.search_batch(queries, k, positions=positions)
                samples[label].append((time.perf_counter() - start) / repeats)
        assert answers["blas"] == answers["plain"]
        index.tier1_min_pairs = SWEEP_GATES["blas"]
        tracer.configure(enabled=True, sample_rate=1.0, slow_threshold_s=0.0)
        tracer.reset()
        index.search_batch(queries, k, positions=positions)
        search = tracer.recent_traces()[-1]["root"]
    finally:
        tracer.configure(enabled=False, sample_rate=1.0, slow_threshold_s=0.25)
        tracer.reset()
        del index.tier1_min_pairs
    row = {label: statistics.median(values) * 1e3 for label, values in samples.items()}
    # Paired within rounds: a slow spell hits a whole round, not one label.
    row["blas_vs_plain"] = statistics.median(
        blas / plain for plain, blas in zip(samples["plain"], samples["blas"])
    )
    stages = {child["name"]: child["attributes"] for child in search["children"]}
    row["max_slice"] = stages["index.tier1"]["max_slice"]
    # No tier-2 span: every row's slice overflowed and the call fell back whole.
    row["fallback_rows"] = stages.get("index.tier2", {"fallback_rows": len(queries)})["fallback_rows"]
    return row


def test_fig8_two_tier_speedup(benchmark, encoder, report_writer):
    """Fig. 8 scorer sweep: the plain einsum scorer vs the BLAS scan +
    exact re-rank, at the index, over the pairs one search scores — the
    evidence behind ``repro.ann.base.tier1_pays``, and for the large
    side of it, which no ``BENCHMARK.json`` workload reaches."""

    def run_sweep():  # generators: each index is dropped once its points are timed
        points = itertools.chain(
            _synthetic_points(), *(_real_points(encoder, *preset) for preset in SWEEP_PRESETS)
        )
        rows = []
        for label, index, queries, k, positions in points:
            pool = len(index) if positions is None else len(positions)
            row = _time_point(index, queries, k, positions)
            # The engine's own decision, by the predicate ``search_batch`` asks.
            row["picks_blas"] = index.takes_tier1(len(queries), pool, k)
            rows.append((label, pool, len(queries), row))
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    lines = [
        "Figure 8 (scorer sweep): plain fixed-order einsum vs BLAS scan + exact re-rank",
        f"exact index, median of {SWEEP_ROUNDS} interleaved rounds, answers bit-equal at every point;",
        f"'picks' is the path the engine takes (repro.ann.base.tier1_pays).  numpy {np.__version__}, "
        f"{os.cpu_count()} cpus, OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
        "",
        f"{'scan':44s} {'pool':>7s} {'nq':>3s} {'pairs':>8s} {'plain ms':>9s} {'blas ms':>9s} "
        f"{'blas/plain':>10s} {'picks':>6s} {'max_slice':>9s} {'fallback_rows':>13s}",
    ]
    for label, pool, n_queries, row in rows:
        pairs = pool * n_queries
        lines.append(
            f"{label:44s} {pool:>7d} {n_queries:>3d} {pairs:>8d} {row['plain']:>9.3f} "
            f"{row['blas']:>9.3f} {row['blas_vs_plain']:>10.2f} "
            f"{'blas' if row['picks_blas'] else 'plain':>6s} {row['max_slice']:>9d} {row['fallback_rows']:>13d}"
        )
    report_writer("fig8_two_tier_speedup", lines)

    # Only what the table supports with margin, whatever BLAS and thread
    # count this runs on: at every point the path the gate picks is the
    # faster one or close to it, and at 20 000 sheets one query is 3-4x
    # faster than plain.  One band is wider since pools are scored where
    # they lie: several queries sharing a D=1280 pool on the plain path,
    # which is up to 1.5-1.65x behind where BLAS packs the pool cheaply
    # (two threads) and ahead where it does not (DESIGN.md "The sweep
    # behind the gate").
    for label, pool, n_queries, row in rows:
        below = not row["picks_blas"]
        picked_vs_other = row["blas_vs_plain"] ** (-1 if below else 1)
        bound = 2.0 if below and "S2" in label and n_queries > 1 else 1.25
        assert picked_vs_other <= bound, (label, pool, n_queries, row)
    (large,) = [row for label, pool, n, row in rows if (label[:2], pool, n) == ("S1", 20000, 1)]
    assert large["blas_vs_plain"] <= 0.5, large
