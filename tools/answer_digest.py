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
* sha256 of the on-disk format: the current generation's mutation log
  after those 30 edits and one scripted add, and the ``manifest.json`` and
  ``corpus.jsonl`` of the generation the next save writes (its
  ``arrays.bin`` holds the state digests above),
* sha256 of the padded feature tensor of every reference and held-out
  sheet, built by a fresh featurizer, and of the six window tensors the
  trainer stacks (``features``).

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
from repro import (  # noqa: E402
    FormulaService,
    RecommendationRequest,
    build_training_universe,
    generate_training_pairs,
)
from repro.features import WindowFeaturizer  # noqa: E402
from repro.models import ModelConfig, SheetEncoder, TrainingConfig  # noqa: E402
from repro.models.trainer import TripletTrainer  # noqa: E402
from repro.persistence import current_generation  # noqa: E402

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


def sheet_tensor_digests(workbooks, config) -> list:
    """sha256 of every sheet's padded feature tensor, in corpus order,
    from one cold featurizer (so the first sight of each cell content goes
    through featurization, and every repeat through its cache)."""
    featurizer = WindowFeaturizer(config)
    return [
        array_digest(featurizer.padded_sheet_tensor(sheet))
        for workbook in workbooks
        for sheet in workbook
    ]


def trainer_tensor_digests() -> dict:
    """sha256 of the anchor / positive / negative window tensors of both
    models, as a trainer with the benchmark encoder's configuration stacks
    them from the benchmark's training pairs."""
    universe = build_training_universe(n_families=8, copies_per_family=3, n_singletons=6, seed=7)
    pairs = generate_training_pairs(universe, seed=0)
    trainer = TripletTrainer(SheetEncoder(ModelConfig()), TrainingConfig(epochs=8, seed=0))
    tensors = {"coarse": trainer._coarse_tensors(pairs), "fine": trainer._fine_tensors(pairs)}
    return {
        f"{model}.{role}": array_digest(tensor)
        for model, stacked in tensors.items()
        for role, tensor in zip(("anchors", "positives", "negatives"), stacked)
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


def corpus_digest(encoder, preset: str, scale: float) -> tuple:
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
    config = encoder.featurizer.config
    features = {
        "reference_sheets": sheet_tensor_digests(evaluation.reference_workbooks, config),
        "held_out_sheets": sheet_tensor_digests(evaluation.test_workbooks, config),
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
        entry["files"] = file_digests(current_generation(directory), "mutations.log")
        workspace.remove_workbook(added.name)
        workspace.save(directory)
        entry["files"].update(
            file_digests(current_generation(directory), "manifest.json", "corpus.jsonl")
        )
        restored = FormulaService(encoder).load_workspace(directory)
        entry["answers_restored"] = answers(restored, requests)
    return entry, features


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
    features = {"trainer": trainer_tensor_digests()}
    for workload in bench.WORKLOADS.values():
        scale = bench.QUICK_SCALE if args.quick else workload.scale
        name = f"{workload.preset} x{scale:g}"
        if name not in corpora:
            entry, features[name] = corpus_digest(encoder, workload.preset, scale)
            corpora[name] = entry
            print(
                f"{name}: {len(entry['answers'])} cases, {len(entry['answers_batched'])} batched",
                file=sys.stderr,
            )
    digest = {"weights": weights, "corpora": corpora, "features": features}
    args.out.write_text(json.dumps(digest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
