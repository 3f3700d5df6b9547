"""Compare two result documents of ``run.py`` against the declared bounds.

    python3 benchmarks/perf/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the change.  For every
workload × end-to-end metric one row is printed: both medians, how much
worse ``B`` is as a share of ``A``, the bound ``BENCHMARK.json`` declares
and a verdict —

* ``regression``  ``B`` is worse than ``A`` by more than the bound, a
  metric or workload of ``A`` is missing from ``B``, or ``B`` has failed ops;
* ``unresolved``  the block spread of either side exceeds the bound, so
  the pair cannot tell a change of that size from noise;
* ``ok``          otherwise.

Exits 1 on any regression, 0 otherwise.  ``--self-test`` checks the rule
on synthetic documents under a 10 % bound: 20 % worse ``recommend_p50_ms``
fails, 3 % passes, 3 % with a 50 % block spread is unresolved.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

from perf_harness import ROOT, rel_spread


def load_bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def compare(baseline: dict, change: dict, bounds: dict):
    """Yield ``(workload, metric, a, b, worse_by, bound, verdict)`` rows."""
    for workload, base_run in baseline["workloads"].items():
        run = change["workloads"].get(workload)
        if run is None:
            yield workload, "*", None, None, None, None, "regression"
            continue
        if run.get("failed", 0):
            yield workload, "failed_share", base_run.get("failed_share", 0.0), run["failed_share"], None, 0.0, "regression"
        for metric, a in base_run["end_to_end"].items():
            declared = bounds.get(metric)
            if a is None or declared is None:
                continue
            b = run["end_to_end"].get(metric)
            if b is None:
                yield workload, metric, a["value"], None, None, declared["bound"], "regression"
                continue
            worse_by = (b["value"] - a["value"]) / abs(a["value"])
            if declared["better"] == "higher":
                worse_by = -worse_by
            if worse_by > declared["bound"]:
                verdict = "regression"
            elif max(rel_spread(a), rel_spread(b)) > declared["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            yield workload, metric, a["value"], b["value"], worse_by, declared["bound"], verdict


def report(baseline: dict, change: dict, bounds: dict) -> int:
    regressions = 0
    print(f"{'workload':16s} {'metric':20s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s}  verdict")
    for workload, metric, a, b, worse_by, bound, verdict in compare(baseline, change, bounds):
        cells = [
            f"{value:12.4f}" if value is not None else f"{'-':>12s}" for value in (a, b)
        ]
        worse = f"{100 * worse_by:8.1f}%" if worse_by is not None else f"{'-':>9s}"
        limit = f"{100 * bound:5.0f}%" if bound is not None else f"{'-':>6s}"
        print(f"{workload:16s} {metric:20s} {cells[0]} {cells[1]} {worse} {limit}  {verdict}")
        regressions += verdict == "regression"
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def self_test() -> int:
    # The rule, not this machine's bounds: under a 10 % bound.
    bounds = {"recommend_p50_ms": {"bound": 0.10, "better": "lower"}}
    entry = {"value": 4.0, "spread": [3.96, 4.04], "n": 1000, "blocks": 5, "unit": "ms"}
    baseline = {
        "workloads": {
            "inproc_distinct": {
                "failed": 0,
                "failed_share": 0.0,
                "end_to_end": {"recommend_p50_ms": entry},
            }
        }
    }

    def scaled(factor: float) -> dict:
        document = copy.deepcopy(baseline)
        target = document["workloads"]["inproc_distinct"]["end_to_end"]["recommend_p50_ms"]
        target["value"] *= factor
        target["spread"] = [value * factor for value in target["spread"]]
        return document

    verdicts = {
        factor: [row[-1] for row in compare(baseline, scaled(factor), bounds)]
        for factor in (1.20, 1.03)
    }
    noisy = scaled(1.03)
    noisy["workloads"]["inproc_distinct"]["end_to_end"]["recommend_p50_ms"]["spread"] = [3.0, 5.0]
    verdicts["noisy"] = [row[-1] for row in compare(baseline, noisy, bounds)]
    expected = {1.20: ["regression"], 1.03: ["ok"], "noisy": ["unresolved"]}
    print(f"self-test verdicts: {verdicts}")
    return 0 if verdicts == expected else 1


def main(argv) -> int:
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2:
        print(__doc__)
        return 2
    baseline, change = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    return report(baseline, change, load_bounds())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
