"""Smoke test of the perf benchmark: ``run.py --quick`` reports every
workload and metric ``BENCHMARK.json`` declares, with its unit and no
failed op, and ``compare.py`` applies the declared bounds."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_quick_run_reports_every_declared_metric(tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "0", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result["workloads"]) == {workload["name"] for workload in SPEC["workloads"]}
    for name, run in result["workloads"].items():
        assert NAME.fullmatch(name)
        assert run["attempted"] > 0 and run["failed_share"] == 0, name
        for section in ("end_to_end", "per_layer"):
            assert set(run[section]) == {metric["name"] for metric in SPEC[section]}, (name, section)
            for metric in SPEC[section]:
                entry = run[section][metric["name"]]
                assert NAME.fullmatch(metric["name"])
                assert entry["unit"] == metric["unit"], (name, metric["name"])
                assert math.isfinite(entry["value"]), (name, metric["name"])
            assert all(run["end_to_end"][metric["name"]]["value"] > 0 for metric in SPEC["end_to_end"])


def test_compare_applies_the_declared_bounds():
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), "--self-test"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stdout + done.stderr
