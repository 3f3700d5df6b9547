"""Shared fixtures for the benchmark suite.

The expensive artifacts — the trained representation models, the four
synthetic enterprise corpora and the Auto-Formula evaluation runs — are
built once per session and shared by every table/figure benchmark.  Each
benchmark writes the rows/series it reproduces into
``benchmarks/out/<experiment>.txt`` (git-ignored; it also returns them
through the pytest-benchmark timing machinery).

The quality reports (:data:`QUALITY_REPORTS`: Tables 1-5, Figs 7 and 9-15)
carry no wall clock, so they are a function of the commit: each is
compared byte for byte with its tracked golden,
``benchmarks/results/<experiment>.txt``, and a report that differs fails
its benchmark.  ``pytest benchmarks --update-goldens`` rewrites the
goldens instead; nothing else writes them.  The timing reports are
written to the out-dir only.
"""

from __future__ import annotations

import difflib
from pathlib import Path
from typing import Dict, List

import pytest

from repro.core import AutoFormula, AutoFormulaConfig
from repro.corpus import build_all_enterprise_corpora, build_training_universe
from repro.evaluation import prepare_corpus_evaluation, run_method_on_cases
from repro.models import ModelConfig, TrainingConfig, train_models
from repro.weaksup import generate_training_pairs

#: Corpus evaluation order used by every report (matches the paper's tables).
CORPUS_ORDER = ("Cisco", "Enron", "PGE", "TI")

#: Where every run writes its reports and artifacts (git-ignored).
OUT_DIR = Path(__file__).parent / "out"

#: The tracked goldens of the quality reports.
GOLDEN_DIR = Path(__file__).parent / "results"

#: The reports compared with their goldens: the ones with no timing in them.
QUALITY_REPORTS = frozenset(
    {
        "table1_statistics",
        "table2_quality_timestamp",
        "table3_quality_random",
        "table4_llm_prompts",
        "table5_sampled_comparison",
        "fig7_pr_curves",
        "fig9_sheet_size",
        "fig10_formula_complexity",
        "fig11_formula_types",
        "fig12_embedders",
        "fig13_feature_ablation",
        "fig14_granularity_ablation",
        "fig15_augmentation_ablation",
    }
)


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def report_writer(out_dir, request):
    """Write a named experiment report (one text file per table/figure) to
    the out-dir; a quality report must also equal its golden, byte for
    byte, unless ``--update-goldens`` asks to rewrite the golden."""
    update_goldens = request.config.getoption("--update-goldens")

    def write(name: str, lines: List[str]) -> Path:
        path = out_dir / f"{name}.txt"
        text = "\n".join(lines) + "\n"
        path.write_text(text, encoding="utf-8")
        print(f"\n[{name}]\n{text}")
        if name in QUALITY_REPORTS:
            golden = GOLDEN_DIR / f"{name}.txt"
            if update_goldens:
                golden.write_text(text, encoding="utf-8")
            else:
                expected = golden.read_text(encoding="utf-8") if golden.exists() else ""
                assert text == expected, (
                    f"{name} differs from its golden {golden} "
                    "(pytest benchmarks --update-goldens rewrites it):\n"
                    + "".join(
                        difflib.unified_diff(
                            expected.splitlines(True), text.splitlines(True), "golden", "now"
                        )
                    )
                )
        return path

    return write


@pytest.fixture(scope="session")
def training_pairs():
    universe = build_training_universe(n_families=8, copies_per_family=3, n_singletons=6, seed=7)
    return generate_training_pairs(universe, seed=0)


@pytest.fixture(scope="session")
def encoder(training_pairs):
    """The trained coarse/fine models shared by all benchmarks."""
    trained, __ = train_models(training_pairs, ModelConfig(), TrainingConfig(epochs=8, seed=0))
    return trained


@pytest.fixture(scope="session")
def corpora():
    return build_all_enterprise_corpora()


@pytest.fixture(scope="session")
def workloads_timestamp(corpora):
    return {
        name: prepare_corpus_evaluation(corpora[name], "timestamp", 0.15) for name in CORPUS_ORDER
    }


@pytest.fixture(scope="session")
def workloads_random(corpora):
    return {
        name: prepare_corpus_evaluation(corpora[name], "random", 0.15, seed=1) for name in CORPUS_ORDER
    }


def evaluate_autoformula(encoder, workloads, config: AutoFormulaConfig = None) -> Dict[str, object]:
    """Run Auto-Formula on every corpus workload and return runs by corpus."""
    runs = {}
    for name, workload in workloads.items():
        system = AutoFormula(encoder, config or AutoFormulaConfig())
        runs[name] = run_method_on_cases(
            system, workload.reference_workbooks, workload.cases, name
        )
    return runs


@pytest.fixture(scope="session")
def autoformula_runs_timestamp(encoder, workloads_timestamp):
    """Auto-Formula results on the timestamp split (reused by several figures)."""
    return evaluate_autoformula(encoder, workloads_timestamp)


def format_quality_table(rows: Dict[str, Dict[str, Dict[str, float]]], corpus_order=CORPUS_ORDER) -> List[str]:
    """Render a {method: {corpus: {recall, precision, f1}}} mapping as a table."""
    lines = [f"{'method':28s} " + " ".join(f"{name:>23s}" for name in ("Overall",) + tuple(corpus_order))]
    lines.append(f"{'':28s} " + " ".join(f"{'R':>7s} {'P':>7s} {'F1':>7s}" for __ in range(len(corpus_order) + 1)))
    for method, per_corpus in rows.items():
        values = []
        recalls = [per_corpus[name]["recall"] for name in corpus_order if name in per_corpus]
        precisions = [per_corpus[name]["precision"] for name in corpus_order if name in per_corpus]
        f1s = [per_corpus[name]["f1"] for name in corpus_order if name in per_corpus]
        overall = (
            sum(recalls) / len(recalls),
            sum(precisions) / len(precisions),
            sum(f1s) / len(f1s),
        )
        values.append(f"{overall[0]:7.3f} {overall[1]:7.3f} {overall[2]:7.3f}")
        for name in corpus_order:
            metrics = per_corpus.get(name)
            if metrics is None:
                values.append(f"{'timeout':>23s}")
            else:
                values.append(
                    f"{metrics['recall']:7.3f} {metrics['precision']:7.3f} {metrics['f1']:7.3f}"
                )
        lines.append(f"{method[:28]:28s} " + " ".join(values))
    return lines
