"""Evaluation harness: metrics, PR curves, bucketized analyses and runners.

Implements the paper's evaluation protocol (Section 5.1): a prediction is a
*hit* only if it exactly matches the ground-truth formula (template and all
parameters); recall is hits over all test cases, precision is hits over
cases where the method chose to predict, and PR curves are traced by
sweeping a confidence threshold over the prediction set.

``measure_latency`` times a method's offline fit and online predictions
(Figure 8).  Serving-side latency percentiles are not kept here: they are
a :class:`repro.obs.Histogram` (``Workspace.latency``, the server's
histograms).
"""

from repro.evaluation.metrics import (
    CaseResult,
    QualityMetrics,
    evaluate_predictions,
    precision_recall_f1,
)
from repro.evaluation.pr_curve import PRPoint, precision_recall_curve
from repro.evaluation.buckets import bucketize_results, bucket_metrics
from repro.evaluation.runner import (
    EvaluationRun,
    predict_cases,
    run_method_on_cases,
    run_method_on_corpus,
    prepare_corpus_evaluation,
    overall_average,
    CorpusEvaluation,
)
from repro.evaluation.latency import LatencyReport, measure_latency

__all__ = [
    "CaseResult",
    "QualityMetrics",
    "evaluate_predictions",
    "precision_recall_f1",
    "PRPoint",
    "precision_recall_curve",
    "bucketize_results",
    "bucket_metrics",
    "EvaluationRun",
    "predict_cases",
    "run_method_on_cases",
    "run_method_on_corpus",
    "prepare_corpus_evaluation",
    "overall_average",
    "CorpusEvaluation",
    "LatencyReport",
    "measure_latency",
]
