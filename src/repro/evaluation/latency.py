"""Wall-clock timing of one method's offline fit and online predictions
(the Figure 8 experiment).  Serving-side latency — per request, with
percentiles — is a :class:`repro.obs.Histogram` on the workspace."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.interface import FormulaPredictor
from repro.corpus.testcases import TestCase
from repro.sheet.workbook import Workbook


@dataclass(frozen=True)
class LatencyReport:
    """Wall-clock timings of one method on one workload."""

    method: str
    n_reference_workbooks: int
    n_test_cases: int
    offline_seconds: float
    online_seconds_total: float

    @property
    def online_seconds_per_case(self) -> float:
        if self.n_test_cases == 0:
            return 0.0
        return self.online_seconds_total / self.n_test_cases


def measure_latency(
    predictor: FormulaPredictor,
    reference_workbooks: Sequence[Workbook],
    cases: Sequence[TestCase],
    max_cases: Optional[int] = None,
    timeout_seconds: Optional[float] = None,
) -> LatencyReport:
    """Time the offline fit and the per-case online prediction.

    ``timeout_seconds`` bounds the *offline* phase: methods whose
    preprocessing exceeds the budget (Mondrian on large corpora, as in the
    paper) are reported with ``online_seconds_total = inf`` and no online
    measurements are attempted.
    """
    start = time.perf_counter()
    timed_out = False
    try:
        predictor.fit(reference_workbooks)
    except TimeoutError:
        timed_out = True
    offline_seconds = time.perf_counter() - start
    if timeout_seconds is not None and (timed_out or offline_seconds > timeout_seconds):
        return LatencyReport(
            method=predictor.name,
            n_reference_workbooks=len(reference_workbooks),
            n_test_cases=0,
            offline_seconds=offline_seconds,
            online_seconds_total=float("inf"),
        )

    selected = list(cases if max_cases is None else cases[:max_cases])
    start = time.perf_counter()
    for case in selected:
        predictor.predict(case.target_sheet, case.target_cell)
    online_seconds = time.perf_counter() - start
    return LatencyReport(
        method=predictor.name,
        n_reference_workbooks=len(reference_workbooks),
        n_test_cases=len(selected),
        offline_seconds=offline_seconds,
        online_seconds_total=online_seconds,
    )
