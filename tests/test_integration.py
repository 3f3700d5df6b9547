"""End-to-end integration tests: train -> index -> predict -> evaluate."""

import numpy as np
import pytest

from repro.core import AutoFormula, AutoFormulaConfig
from repro.corpus import build_all_enterprise_corpora
from repro.evaluation import (
    measure_latency,
    overall_average,
    precision_recall_curve,
    prepare_corpus_evaluation,
    run_method_on_cases,
)
from repro.baselines import SpreadsheetCoderBaseline, WeakSupervisionBaseline
from repro.formula import FormulaEngine, is_error_value, parse_formula
from repro.formula.tokenizer import FormulaSyntaxError


@pytest.fixture(scope="module")
def corpora():
    return build_all_enterprise_corpora()


@pytest.fixture(scope="module")
def workloads(corpora):
    return {
        name: prepare_corpus_evaluation(corpus, "timestamp", 0.15)
        for name, corpus in corpora.items()
    }


@pytest.fixture(scope="module")
def auto_formula_runs(trained_encoder, workloads):
    runs = {}
    for name, workload in workloads.items():
        system = AutoFormula(trained_encoder, AutoFormulaConfig())
        runs[name] = run_method_on_cases(
            system, workload.reference_workbooks, workload.cases, name
        )
    return runs


class TestEndToEndQuality:
    def test_autoformula_beats_baselines_overall(self, trained_encoder, workloads, auto_formula_runs):
        weak_runs = []
        coder_runs = []
        for name, workload in workloads.items():
            weak_runs.append(
                run_method_on_cases(
                    WeakSupervisionBaseline(), workload.reference_workbooks, workload.cases, name
                )
            )
            coder_runs.append(
                run_method_on_cases(
                    SpreadsheetCoderBaseline(), workload.reference_workbooks, workload.cases, name
                )
            )
        auto_average = overall_average(list(auto_formula_runs.values()))
        weak_average = overall_average(weak_runs)
        coder_average = overall_average(coder_runs)
        assert auto_average["f1"] > weak_average["f1"]
        assert auto_average["f1"] > coder_average["f1"]
        assert auto_average["recall"] > weak_average["recall"]

    def test_autoformula_precision_is_high_everywhere(self, auto_formula_runs):
        for name, run in auto_formula_runs.items():
            assert run.metrics.precision > 0.6, name

    def test_recall_ordering_tracks_corpus_homogeneity(self, auto_formula_runs):
        """PGE (highly templated) has the highest recall; Cisco (singleton heavy) the lowest."""
        recalls = {name: run.metrics.recall for name, run in auto_formula_runs.items()}
        assert recalls["PGE"] == max(recalls.values())
        assert recalls["Cisco"] <= recalls["PGE"]

    def test_predictions_parse_and_evaluate(self, auto_formula_runs):
        """Every emitted formula is syntactically valid and evaluable on its target sheet."""
        checked = 0
        for run in auto_formula_runs.values():
            for result in run.results:
                if result.prediction is None:
                    continue
                ast = parse_formula(result.prediction.formula)  # must not raise
                assert ast is not None
                engine = FormulaEngine(result.case.target_sheet)
                # evaluation may legitimately fail (e.g. lookup misses), but
                # parsing must always succeed; count how many evaluate cleanly
                if not is_error_value(engine.evaluate_formula(result.prediction.formula)):
                    checked += 1
        assert checked > 10

    def test_pr_curve_reaches_high_precision(self, auto_formula_runs):
        for name, run in auto_formula_runs.items():
            points = precision_recall_curve(run.results)
            assert max(point.precision for point in points) > 0.6, name


class TestEndToEndLatency:
    def test_online_prediction_is_interactive(self, trained_encoder, workloads):
        workload = workloads["PGE"]
        system = AutoFormula(trained_encoder, AutoFormulaConfig())
        report = measure_latency(
            system, workload.reference_workbooks, workload.cases, max_cases=10
        )
        assert report.online_seconds_per_case < 2.0  # the paper's interactivity budget

    def test_offline_phase_reported(self, trained_encoder, workloads):
        workload = workloads["Cisco"]
        system = AutoFormula(trained_encoder, AutoFormulaConfig())
        report = measure_latency(system, workload.reference_workbooks, workload.cases, max_cases=3)
        assert report.offline_seconds > 0.0
        assert report.n_reference_workbooks == len(workload.reference_workbooks)


class TestModelPersistenceEndToEnd:
    def test_saved_models_reproduce_predictions(self, trained_encoder, workloads, tmp_path):
        from repro.models import ModelConfig, SheetEncoder

        workload = workloads["PGE"]
        trained_encoder.save(tmp_path / "encoder")
        restored = SheetEncoder(ModelConfig())
        restored.load(tmp_path / "encoder")

        original_system = AutoFormula(trained_encoder, AutoFormulaConfig())
        restored_system = AutoFormula(restored, AutoFormulaConfig())
        original_system.fit(workload.reference_workbooks)
        restored_system.fit(workload.reference_workbooks)
        for case in workload.cases[:5]:
            original = original_system.predict(case.target_sheet, case.target_cell)
            restored_prediction = restored_system.predict(case.target_sheet, case.target_cell)
            if original is None:
                assert restored_prediction is None
            else:
                assert restored_prediction is not None
                assert restored_prediction.formula == original.formula
