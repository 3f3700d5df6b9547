"""Quickstart: train Auto-Formula and serve formula recommendations.

This walks the full pipeline end to end on a small synthetic organization:

1. build a training universe of spreadsheets and harvest weakly-supervised
   similar-sheet / similar-region pairs,
2. train the coarse and fine representation models with triplet learning,
3. stand up a FormulaService workspace for the organization and load its
   existing workbooks (the offline phase), mutating the corpus in place,
4. serve typed recommendation requests for held-out target cells (the
   online phase).

Run with:  python examples/quickstart.py
"""

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
from repro.corpus import sample_test_cases, split_corpus
from repro.formula import FormulaEngine


def train_encoder():
    """Steps 1-2: weak supervision plus triplet training."""
    print("1) Building training universe and weak-supervision pairs ...")
    universe = build_training_universe(n_families=8, copies_per_family=3, n_singletons=6)
    pairs = generate_training_pairs(universe)
    print(f"   {len(universe)} workbooks -> {pairs.summary()}")

    print("2) Training coarse/fine representation models (triplet loss) ...")
    encoder, history = train_models(pairs, ModelConfig(), TrainingConfig(epochs=8))
    print(f"   coarse loss trace: {[round(loss, 3) for loss in history.coarse_losses]}")
    print(f"   fine   loss trace: {[round(loss, 3) for loss in history.fine_losses]}")
    return encoder


def main() -> None:
    encoder = train_encoder()

    # ------------------------------------------------- offline: the workspace
    print("3) Creating a service workspace for the organization (PGE corpus) ...")
    corpus = build_enterprise_corpus("PGE")
    test_workbooks, reference_workbooks = split_corpus(corpus, 0.15, "timestamp")

    service = FormulaService(encoder, AutoFormulaConfig())
    workspace = service.create_workspace("pge", workbooks=reference_workbooks)
    system = workspace.predictor
    print(
        f"   workspace {workspace.name!r}: {len(workspace)} workbooks, "
        f"{system.n_reference_sheets} sheets, "
        f"{system.n_reference_formulas} reference formulas"
    )

    # Corpora churn in production: drop a workbook and index it again.  The
    # indexes are mutated in place (tombstones + appends), no refit happens,
    # and predictions stay identical to a fresh fit on the same corpus.
    churned = workspace.remove_workbook(reference_workbooks[0].name)
    workspace.add_workbook(churned)
    print(
        f"   after remove + re-add of {churned.name!r}: "
        f"{system.n_reference_sheets} sheets still indexed (no refit)"
    )

    # ------------------------------------------------------------------ online
    print("4) Serving recommendation requests for held-out target cells ...")
    cases = sample_test_cases("PGE", test_workbooks, max_per_sheet=3)
    requests = [
        RecommendationRequest(case.target_sheet, case.target_cell, request_id=str(position))
        for position, case in enumerate(cases)
    ]
    responses = workspace.serve_batch(requests)

    shown = 0
    for case, response in zip(cases, responses):
        if not response.accepted:
            continue
        shown += 1
        match = "HIT " if response.formula == case.ground_truth else "MISS"
        print(
            f"   [{match}] {case.workbook_name}/{case.sheet_name}!{case.target_cell.to_a1()}"
        )
        print(
            f"          recommended : {response.formula}   "
            f"(confidence {response.confidence:.2f}, "
            f"{response.latency_seconds * 1000:.1f} ms)"
        )
        print(f"          ground truth: {case.ground_truth}")
        print(
            "          adapted from : "
            f"{response.provenance['reference_formula']} @ "
            f"{response.provenance['reference_sheet']}!{response.provenance['reference_cell']}"
        )
        # Engine-backed evaluation: failures surface as Excel-style error
        # values (#DIV/0!, #NAME?, ...) rather than exceptions.
        try:
            value = FormulaEngine(case.target_sheet).evaluate_formula(response.formula)
            print(f"          evaluates to: {value}")
        except Exception:
            pass
        if shown >= 5:
            break

    abstained = sum(1 for response in responses if not response.accepted)
    summary = workspace.latency.summary()
    print(
        f"   served {len(responses)} requests ({abstained} abstained), "
        f"mean {summary['mean_seconds'] * 1000:.1f} ms, "
        f"p95 {summary['p95_seconds'] * 1000:.1f} ms"
    )


if __name__ == "__main__":
    main()
