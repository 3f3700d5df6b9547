"""Compare Auto-Formula against every baseline on one enterprise corpus.

Reproduces a single column of the paper's Table 2 interactively: every
method is fitted on the same reference corpus and evaluated on the same
cases.  Auto-Formula is served from a workspace of a FormulaService; the
baselines go through the evaluation harness, which fits each one.

Run with:  python examples/method_comparison.py [corpus]
           (corpus is one of PGE, Cisco, TI, Enron; default PGE)
"""

import sys

from repro import (
    AutoFormulaConfig,
    FormulaService,
    ModelConfig,
    RecommendationRequest,
    TrainingConfig,
    build_enterprise_corpus,
    build_training_universe,
    generate_training_pairs,
    train_models,
)
from repro.baselines import (
    MondrianBaseline,
    PromptConfig,
    SimulatedLLMBaseline,
    SpreadsheetCoderBaseline,
    WeakSupervisionBaseline,
)
from repro.evaluation import prepare_corpus_evaluation, run_method_on_cases


def build_baselines():
    return [
        MondrianBaseline(),
        WeakSupervisionBaseline(),
        SpreadsheetCoderBaseline(),
        SimulatedLLMBaseline(PromptConfig("few_shot_rag", False, "precise", "gpt-4")),
    ]


def prepare(corpus_name):
    print("Training Auto-Formula's representation models ...")
    universe = build_training_universe(n_families=8, copies_per_family=3, n_singletons=6)
    encoder, __ = train_models(
        generate_training_pairs(universe), ModelConfig(), TrainingConfig(epochs=8)
    )

    print(f"Preparing the {corpus_name} corpus (timestamp split) ...")
    corpus = build_enterprise_corpus(corpus_name)
    workload = prepare_corpus_evaluation(corpus, "timestamp", 0.15)
    print(
        f"  {len(workload.reference_workbooks)} reference workbooks, "
        f"{len(workload.cases)} test formulas\n"
    )
    return encoder, workload


def main(corpus_name: str) -> None:
    encoder, workload = prepare(corpus_name)

    # Auto-Formula's workspace indexes the reference workbooks as they are
    # added; the harness fits every baseline on the same workbooks.
    service = FormulaService(encoder, AutoFormulaConfig())
    workspace = service.create_workspace(
        "auto-formula", workbooks=workload.reference_workbooks
    )
    runs = [workspace.evaluate(workload.cases, corpus_name)] + [
        run_method_on_cases(method, workload.reference_workbooks, workload.cases, corpus_name)
        for method in build_baselines()
    ]

    print(f"{'method':40s} {'R':>6s} {'P':>6s} {'F1':>6s}")
    print("-" * 62)
    for run in runs:
        metrics = run.metrics
        print(
            f"{run.method[:40]:40s} "
            f"{metrics.recall:6.2f} {metrics.precision:6.2f} {metrics.f1:6.2f}"
        )

    print("\nExample Auto-Formula recommendations (served):")
    responses = workspace.serve_batch(
        [RecommendationRequest(case.target_sheet, case.target_cell) for case in workload.cases]
    )
    shown = 0
    for case, response in zip(workload.cases, responses):
        if not response.accepted:
            continue
        status = "hit " if response.formula == case.ground_truth else "miss"
        print(
            f"  [{status}] {case.sheet_name}!{case.target_cell.to_a1():6s} "
            f"{response.formula}  ({response.latency_seconds * 1000:.1f} ms)"
        )
        shown += 1
        if shown >= 8:
            break
    summary = workspace.latency.summary()
    print(
        f"\nServed {int(summary['count'])} requests: "
        f"mean {summary['mean_seconds'] * 1000:.1f} ms, "
        f"p95 {summary['p95_seconds'] * 1000:.1f} ms per request"
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "PGE")
