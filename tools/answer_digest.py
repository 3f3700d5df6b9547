"""Digest of everything a behaviour-preserving change must leave byte-equal.

    PYTHONPATH=src python tools/answer_digest.py [--quick] OUT.json

Trains the benchmark's encoder and, for each of the benchmark's corpora
(``benchmarks/perf``: the presets and scales of its four workloads), fits a
workspace on the reference workbooks and writes

* sha256 of the trained weights and of every block of the predictor's
  snapshot state (both index matrices among them),
* every test case's ``[formula, repr(confidence)]`` after the fit, again
  after a fixed script of 30 value edits, and from a workspace restored
  from a snapshot of the edited one — one request at a time, which never
  scores the 2 000 pairs the index's BLAS scan starts at,
* the same for every formula cell of the held-out sheets through
  ``serve_batch`` in batches of 16 (``answers_batched``; how the
  ``inproc_hot`` workload asks), which does: BLAS scan + exact re-rank,
* sha256 of the on-disk format: the mutation log after those 30 edits and
  one scripted add, and every corpus file and the manifest of that
  snapshot (its array blocks are the state digests above).

The output holds no time, path or commit, so two runs can be compared with
``cmp``.  One commit at one BLAS thread count gives one file (CI runs
``--quick`` twice and compares); that is the precondition for comparing two
*commits*: run this script with ``PYTHONPATH`` pointing at each checkout's
``src`` — the library comes from ``PYTHONPATH``, the script and the
corpora's parameters from this checkout.  Digests taken at different thread
counts differ (training goes through thread-count-dependent sgemm
reductions), so pin ``OPENBLAS_NUM_THREADS`` the same way on both sides.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH: an explicit library wins
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

import numpy as np  # noqa: E402

import perf_workloads as bench  # noqa: E402
from repro import FormulaService, RecommendationRequest  # noqa: E402

N_EDITS = 30
BATCH_SIZE = 16


def array_digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()


def state_digests(workspace) -> dict:
    __, arrays = workspace.predictor.snapshot_state()
    return {name: array_digest(block) for name, block in sorted(arrays.items())}


def file_digests(directory: Path, *patterns: str) -> dict:
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for pattern in patterns
        for path in sorted(directory.glob(pattern))
    }


def answer_rows(responses) -> list:
    return [[response.formula, repr(float(response.confidence))] for response in responses]


def answers(workspace, requests) -> list:
    return answer_rows(workspace.recommend(request) for request in requests)


def batched_answers(workspace, test_workbooks) -> list:
    requests = [
        RecommendationRequest(sheet, address)
        for workbook in test_workbooks
        for sheet in workbook
        for address, __ in sheet.formula_cells()
    ]
    responses = []
    for start in range(0, len(requests), BATCH_SIZE):
        responses.extend(workspace.serve_batch(requests[start : start + BATCH_SIZE]))
    return answer_rows(responses)


def corpus_digest(encoder, preset: str, scale: float) -> dict:
    evaluation = bench.build_evaluation(preset, scale)
    workspace = FormulaService(encoder).create_workspace(
        "digest", workbooks=evaluation.reference_workbooks
    )
    requests = [
        RecommendationRequest(case.target_sheet, case.target_cell) for case in evaluation.cases
    ]
    entry = {
        "reference_workbooks": len(evaluation.reference_workbooks),
        "state": state_digests(workspace),
        "answers": answers(workspace, requests),
        "answers_batched": batched_answers(workspace, evaluation.test_workbooks),
    }
    values = np.random.default_rng(bench.SCRIPT_SEED)
    targets = bench.fixed_sample(bench.value_slots(evaluation.reference_workbooks), N_EDITS)
    with tempfile.TemporaryDirectory() as directory:
        workspace.save(directory)  # attaches the mutation log: the script below is logged
        for workbook, sheet, cell in targets:
            value = float(np.round(values.uniform(1.0, 10_000.0), 2))
            workspace.edit_cell(workbook, sheet, cell, value=value)
        entry["state_after_edits"] = state_digests(workspace)
        entry["answers_after_edits"] = answers(workspace, requests)
        added = evaluation.test_workbooks[0]
        workspace.add_workbook(added)
        entry["files"] = file_digests(Path(directory), "mutations.log")
        workspace.remove_workbook(added.name)
        workspace.save(directory)
        entry["files"].update(file_digests(Path(directory), "manifest.json", "workbooks/*.json"))
        restored = FormulaService(encoder).load_workspace(directory)
        entry["answers_restored"] = answers(restored, requests)
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--quick", action="store_true", help="the benchmark's smoke-run corpora")
    args = parser.parse_args()
    encoder = bench.train_encoder()
    weights = {
        f"{model}.{name}": array_digest(value)
        for model in ("coarse_model", "fine_model")
        for name, value in getattr(encoder, model).named_parameters()
    }
    corpora = {}
    for workload in bench.WORKLOADS.values():
        scale = bench.QUICK_SCALE if args.quick else workload.scale
        name = f"{workload.preset} x{scale:g}"
        if name not in corpora:
            entry = corpora[name] = corpus_digest(encoder, workload.preset, scale)
            print(
                f"{name}: {len(entry['answers'])} cases, {len(entry['answers_batched'])} batched",
                file=sys.stderr,
            )
    args.out.write_text(json.dumps({"weights": weights, "corpora": corpora}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
