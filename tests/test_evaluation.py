"""Tests for metrics, PR curves, buckets, runners and latency measurement."""

import math

import pytest

from repro.core.interface import FormulaPredictor, Prediction
from repro.corpus import sample_test_cases, split_corpus
from repro.corpus.testcases import TestCase
from repro.evaluation import (
    bucket_metrics,
    bucketize_results,
    evaluate_predictions,
    measure_latency,
    overall_average,
    precision_recall_curve,
    precision_recall_f1,
    predict_cases,
    prepare_corpus_evaluation,
    run_method_on_cases,
    run_method_on_corpus,
)
from repro.evaluation.metrics import QualityMetrics, formulas_match
from repro.evaluation.pr_curve import area_under_pr
from repro.obs import Histogram
from repro.sheet import CellAddress, Sheet


def _case(ground_truth: str, n_rows: int = 30) -> TestCase:
    return TestCase(
        corpus_name="unit",
        workbook_name="wb",
        sheet_name="S",
        target_sheet=Sheet("S"),
        target_cell=CellAddress(0, 0),
        ground_truth=ground_truth,
        n_rows=n_rows,
    )


class _FixedPredictor(FormulaPredictor):
    """Predicts a fixed mapping from ground truth to output (for harness tests)."""

    name = "fixed"

    def __init__(self, outputs):
        self._outputs = outputs
        self._calls = 0
        self.fitted = False

    def fit(self, reference_workbooks):
        self.fitted = True

    def predict(self, target_sheet, target_cell):
        output = self._outputs[self._calls]
        self._calls += 1
        return output


class TestMetrics:
    def test_formulas_match_normalizes(self):
        assert formulas_match("=sum(a1:a5)", "=SUM(A1:A5)")
        assert not formulas_match("=SUM(A1:A5)", "=SUM(A1:A6)")

    def test_precision_recall_definitions(self):
        cases = [_case("=SUM(A1:A2)"), _case("=SUM(A1:A3)"), _case("=SUM(A1:A4)")]
        predictions = [Prediction("=SUM(A1:A2)", 0.9), None, Prediction("=SUM(A9:A9)", 0.8)]
        results = evaluate_predictions(cases, predictions)
        metrics = precision_recall_f1(results)
        assert metrics.n_cases == 3
        assert metrics.n_predicted == 2
        assert metrics.n_hits == 1
        assert metrics.recall == pytest.approx(1 / 3)
        assert metrics.precision == pytest.approx(1 / 2)
        assert metrics.f1 == pytest.approx(2 * (1 / 3) * (1 / 2) / (1 / 3 + 1 / 2))

    def test_abstention_does_not_hurt_precision(self):
        cases = [_case("=A1"), _case("=A2")]
        predictions = [Prediction("=A1", 1.0), None]
        metrics = precision_recall_f1(evaluate_predictions(cases, predictions))
        assert metrics.precision == 1.0
        assert metrics.recall == 0.5

    def test_zero_cases(self):
        metrics = QualityMetrics(0, 0, 0)
        assert metrics.recall == 0.0 and metrics.precision == 0.0 and metrics.f1 == 0.0

    def test_confidence_threshold_filters(self):
        cases = [_case("=A1"), _case("=A2")]
        predictions = [Prediction("=A1", 0.9), Prediction("=A9", 0.1)]
        results = evaluate_predictions(cases, predictions)
        assert precision_recall_f1(results, confidence_threshold=0.5).precision == 1.0
        assert precision_recall_f1(results, confidence_threshold=0.0).precision == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_predictions([_case("=A1")], [])

    def test_as_row_keys(self):
        row = QualityMetrics(10, 8, 6).as_row()
        assert set(row) == {"recall", "precision", "f1", "cases", "predicted", "hits"}


class TestPRCurve:
    def test_curve_monotone_threshold(self):
        cases = [_case(f"=A{i}") for i in range(1, 6)]
        predictions = [
            Prediction("=A1", 0.9),
            Prediction("=A2", 0.7),
            Prediction("=XX", 0.5),
            Prediction("=A4", 0.3),
            None,
        ]
        results = evaluate_predictions(cases, predictions)
        points = precision_recall_curve(results)
        thresholds = [point.threshold for point in points]
        assert thresholds == sorted(thresholds)
        # recall never increases as the threshold grows
        recalls = [point.recall for point in points]
        assert all(left >= right for left, right in zip(recalls, recalls[1:]))

    def test_perfect_predictor_area(self):
        cases = [_case("=A1"), _case("=A2")]
        predictions = [Prediction("=A1", 0.8), Prediction("=A2", 0.9)]
        points = precision_recall_curve(evaluate_predictions(cases, predictions))
        assert max(point.recall for point in points) == 1.0
        assert all(point.precision == 1.0 for point in points)
        assert area_under_pr(points) >= 0.0


class TestBuckets:
    def test_bucket_by_complexity_and_type(self):
        cases = [
            _case("=A1"),                      # other, l<3
            _case("=SUM(A1:A5)"),              # math
            _case("=IF(A1>1,1,0)"),            # conditional
            _case("=CONCATENATE(A1,B1)"),      # string
        ]
        predictions = [Prediction(case.ground_truth, 1.0) for case in cases]
        results = evaluate_predictions(cases, predictions)
        by_type = bucketize_results(results, by="type")
        assert set(by_type) == {"other", "math", "conditional", "string"}
        by_complexity = bucket_metrics(results, by="complexity")
        assert all(metrics.recall == 1.0 for metrics in by_complexity.values())

    def test_bucket_by_rows(self):
        cases = [_case("=A1", n_rows=10), _case("=A1", n_rows=300)]
        predictions = [None, None]
        buckets = bucketize_results(evaluate_predictions(cases, predictions), by="rows")
        assert set(buckets) == {"r<40", "250<=r"}

    def test_unknown_bucketing_rejected(self):
        with pytest.raises(ValueError):
            bucketize_results([], by="color")


class TestRunners:
    def test_run_method_on_cases_fits_and_scores(self):
        cases = [_case("=A1"), _case("=A2")]
        predictor = _FixedPredictor([Prediction("=A1", 1.0), Prediction("=A2", 1.0)])
        run = run_method_on_cases(predictor, [], cases, "unit")
        assert predictor.fitted
        assert run.metrics.recall == 1.0
        assert run.method == "fixed"
        assert run.corpus_name == "unit"

    def test_prepare_corpus_evaluation(self, pge_corpus):
        workload = prepare_corpus_evaluation(pge_corpus, "timestamp", 0.2)
        assert workload.cases
        assert workload.reference_workbooks
        test_names = {workbook.name for workbook in workload.test_workbooks}
        reference_names = {workbook.name for workbook in workload.reference_workbooks}
        assert not test_names & reference_names

    def test_run_method_on_corpus(self, pge_corpus):
        predictor = _FixedPredictor([None] * 1000)
        run = run_method_on_corpus(predictor, pge_corpus, test_fraction=0.2)
        assert run.metrics.recall == 0.0
        assert run.metrics.n_cases > 0

    def test_overall_average(self):
        cases = [_case("=A1")]
        hit_run = run_method_on_cases(_FixedPredictor([Prediction("=A1", 1.0)]), [], cases, "a")
        miss_run = run_method_on_cases(_FixedPredictor([None]), [], cases, "b")
        average = overall_average([hit_run, miss_run])
        assert average["recall"] == pytest.approx(0.5)
        assert overall_average([]) == {"recall": 0.0, "precision": 0.0, "f1": 0.0}

    def test_predict_cases_batches_per_sheet_in_order(self):
        """Consecutive same-sheet cases route through predict_batch as one
        group; predictions come back in the original case order."""
        sheet_a, sheet_b = Sheet("A"), Sheet("B")
        cases = []
        for sheet, count in ((sheet_a, 3), (sheet_b, 2), (sheet_a, 1)):
            for __ in range(count):
                case = _case("=A1")
                case.target_sheet = sheet
                cases.append(case)

        class _BatchRecorder(_FixedPredictor):
            def __init__(self, outputs):
                super().__init__(outputs)
                self.batches = []

            def predict_batch(self, target_sheet, target_cells):
                self.batches.append((target_sheet, len(list(target_cells))))
                return super().predict_batch(target_sheet, target_cells)

        outputs = [Prediction(f"=A{index}", 1.0) for index in range(len(cases))]
        predictor = _BatchRecorder(outputs)
        predictions = predict_cases(predictor, cases)
        assert [p.formula for p in predictions] == [o.formula for o in outputs]
        assert predictor.batches == [(sheet_a, 3), (sheet_b, 2), (sheet_a, 1)]


class TestLatency:
    def test_measure_latency_basic(self, pge_corpus):
        workload = prepare_corpus_evaluation(pge_corpus, "timestamp", 0.2)
        predictor = _FixedPredictor([None] * 1000)
        report = measure_latency(predictor, workload.reference_workbooks, workload.cases, max_cases=5)
        assert report.n_test_cases == 5
        assert report.offline_seconds >= 0.0
        assert report.online_seconds_per_case >= 0.0
        assert math.isfinite(report.online_seconds_total)

    def test_measure_latency_timeout(self, pge_corpus):
        class _SlowFit(_FixedPredictor):
            name = "slow"

            def fit(self, reference_workbooks):
                raise TimeoutError("too slow")

        workload = prepare_corpus_evaluation(pge_corpus, "timestamp", 0.2)
        report = measure_latency(
            _SlowFit([None]), workload.reference_workbooks, workload.cases, timeout_seconds=10.0
        )
        assert math.isinf(report.online_seconds_total)
        assert report.n_test_cases == 0


class TestLatencyRecorder:
    """The one percentile store, :class:`repro.obs.Histogram` (the class
    keeps the name of the recorder it replaced)."""

    def test_record_and_aggregate(self):
        recorder = Histogram()
        for seconds in (0.004, 0.002, 0.001, 0.003):
            recorder.observe(seconds)
        assert len(recorder) == 4
        summary = recorder.summary()
        assert summary["total_seconds"] == pytest.approx(0.010)
        assert summary["mean_seconds"] == pytest.approx(0.0025)
        # Interpolated percentiles: p50 of an even count sits between the
        # two middle samples instead of snapping to the nearest rank.
        assert recorder.percentile(0.5) == pytest.approx(0.0025)
        assert recorder.percentile(1.0) == pytest.approx(0.004)
        assert recorder.percentile(0.0) == pytest.approx(0.001)
        p50, p95, p99 = (summary[f"p{n}_seconds"] for n in (50, 95, 99))
        assert p50 == pytest.approx(0.0025)
        assert p50 <= p95 <= p99 <= 0.004

    def test_summary(self):
        recorder = Histogram()
        recorder.observe(0.5)
        summary = recorder.summary()
        assert summary["count"] == 1.0
        assert summary["window_count"] == 1.0
        assert summary["p50_seconds"] == summary["p95_seconds"] == 0.5
        assert summary["p99_seconds"] == 0.5
        assert summary["max_seconds"] == 0.5

    def test_empty_recorder(self):
        recorder = Histogram()
        assert len(recorder) == 0
        assert recorder.percentile(0.95) == 0.0
        summary = recorder.summary()
        assert summary["count"] == summary["mean_seconds"] == summary["p99_seconds"] == 0.0

    def test_invalid_inputs(self):
        recorder = Histogram()
        with pytest.raises(ValueError):
            recorder.observe(-0.1)
        with pytest.raises(ValueError):
            recorder.percentile(1.5)
        assert len(recorder) == 0
