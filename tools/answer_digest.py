"""Digest of everything a behaviour-preserving change must leave byte-equal.

    PYTHONPATH=src python tools/answer_digest.py [--quick] OUT.json

Trains the benchmark's encoder and, for each of the benchmark's corpora
(``benchmarks/perf``: the presets and scales of its four workloads), fits a
workspace on the reference workbooks and writes

* sha256 of the trained weights and of every block of the predictor's
  snapshot state (both index matrices among them),
* every test case's ``[formula, repr(confidence)]`` after the fit, again
  after a fixed edit script (:func:`edit_script`: 30 value edits, each
  target edited again, a value inside and one outside the sheet window,
  one that grows a sheet's extent and three formula edits, one of them
  ``=SUM(IF(TRUE,C1:C1048576))`` over a value column), and from a
  workspace restored from a snapshot of the edited one — one request at a
  time, which does not reach the index's BLAS scan on these corpora,
* the same for every formula cell of the held-out sheets through
  ``serve_batch`` in batches of 16 (``answers_batched``; how the
  ``inproc_hot`` workload asks), which does: BLAS scan + exact re-rank,
  and again with the cells dealt round-robin over the held-out sheets
  (``answers_interleaved``), so that a batch spans many target sheets,
* sha256 of the on-disk format: the current generation's mutation log
  after those edits and one scripted add, and the ``manifest.json`` and
  ``corpus.jsonl`` of the generation the next save writes (its
  ``arrays.bin`` holds the state digests above),
* sha256 of the padded feature tensor of every reference and held-out
  sheet, built by a fresh featurizer, and of the six window tensors the
  trainer stacks (``features``).

The output holds no time, path or commit, so two runs can be compared with
``cmp``.  One commit gives one file (CI runs ``--quick`` twice and compares);
that is the precondition for comparing two *commits*: run this script with
``PYTHONPATH`` pointing at each checkout's ``src`` — the library comes from
``PYTHONPATH``, the script and the corpora's parameters from this checkout.

The file does not depend on the BLAS thread count either: training sums
each weight gradient over fixed 512-row blocks in a fixed order, and a
block that short is one thread's product at any count, so the weights are
a function of the commit and the seed; the forwards and the searches were
already equal across counts.  CI compares ``--quick`` at
``OPENBLAS_NUM_THREADS=1`` against 2 on every pull request and the full
digest on the slow tier.  The guarantee rests on observed OpenBLAS
behaviour, not a documented one; a digest taken at one count and compared
with one taken at another is that check.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
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
from repro.sheet.addressing import CellAddress  # noqa: E402

N_EDITS = 30
MAX_ROWS = 1_048_576  # a spreadsheet's last row
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
    featurizer = trainer.window_featurizer()
    coarse_rng, fine_rng = trainer.streams()
    tensors = {
        "coarse": trainer._coarse_tensors(pairs, featurizer, coarse_rng),
        "fine": trainer._fine_tensors(pairs, featurizer, fine_rng),
    }
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


def interleaved_answers(workspace, test_workbooks) -> list:
    """The held-out formula cells dealt round-robin over the held-out
    sheets, served in batches of 16: each batch spans up to 16 sheets."""
    cells = [
        [RecommendationRequest(sheet, address) for address, __ in sheet.formula_cells()]
        for workbook in test_workbooks
        for sheet in workbook
    ]
    requests = [
        request
        for deal in itertools.zip_longest(*cells)
        for request in deal
        if request is not None
    ]
    responses = []
    for start in range(0, len(requests), BATCH_SIZE):
        responses.extend(workspace.serve_batch(requests[start : start + BATCH_SIZE]))
    return answer_rows(responses)


def edit_script(workspace, config) -> list:
    """The scripted edits, as ``(workbook, sheet, cell, edit_cell keywords)``:
    ``N_EDITS`` value edits, each target once more (its sheet's tensor is
    then cached from the first), a value inside and one outside the sheet
    window (the top-left ``window_rows`` x ``window_cols`` cells), one
    just below a sheet's used extent (it grows) and three formula edits,
    the last a sum of a whole value column read through an ``IF`` arm."""
    values = np.random.default_rng(bench.SCRIPT_SEED)

    def value() -> dict:
        return {"value": float(np.round(values.uniform(1.0, 10_000.0), 2))}

    slots = bench.value_slots(workspace.workbooks())
    targets = bench.fixed_sample(slots, N_EDITS)
    script = [(*target, value()) for target in targets + targets]

    def in_window(slot) -> bool:
        address = CellAddress.from_a1(slot[2])
        return address.row < config.window_rows and address.col < config.window_cols

    inside = next(slot for slot in slots if in_window(slot))
    outside = next((slot for slot in slots if not in_window(slot)), None)
    script += [(*slot, value()) for slot in (inside, outside) if slot is not None]
    workbook_name, sheet_name, __ = targets[0]
    sheet = next(
        sheet
        for workbook in workspace.workbooks()
        if workbook.name == workbook_name
        for sheet in workbook
        if sheet.name == sheet_name
    )
    script.append((workbook_name, sheet_name, CellAddress(sheet.n_rows, 0).to_a1(), value()))
    formula_cell, __ = sheet.formula_cells()[0]
    script.append((*inside, {"formula": f"=SUM({targets[0][2]},1)"}))
    script.append((workbook_name, sheet_name, formula_cell.to_a1(), {"formula": f"={inside[2]}+1"}))
    # A whole value column of the sheet that is no function's argument.
    total, __ = sheet.formula_cells()[-1]
    column = next(
        address.col
        for address in (CellAddress.from_a1(slot[2]) for slot in slots if slot[:2] == targets[0][:2])
        if address.col != total.col
    )
    whole = f"{CellAddress(0, column).to_a1()}:{CellAddress(MAX_ROWS - 1, column).to_a1()}"
    script.append((workbook_name, sheet_name, total.to_a1(), {"formula": f"=SUM(IF(TRUE,{whole}))"}))
    return script


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
        "answers_interleaved": interleaved_answers(workspace, evaluation.test_workbooks),
    }
    config = encoder.featurizer.config
    features = {
        "reference_sheets": sheet_tensor_digests(evaluation.reference_workbooks, config),
        "held_out_sheets": sheet_tensor_digests(evaluation.test_workbooks, config),
    }
    with tempfile.TemporaryDirectory() as directory:
        workspace.save(directory)  # attaches the mutation log: the script below is logged
        for workbook, sheet, cell, edit in edit_script(workspace, config):
            workspace.edit_cell(workbook, sheet, cell, **edit)
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
                f"{name}: {len(entry['answers'])} cases, {len(entry['answers_batched'])} batched, "
                f"{len(entry['answers_interleaved'])} interleaved",
                file=sys.stderr,
            )
    digest = {"weights": weights, "corpora": corpora, "features": features}
    args.out.write_text(json.dumps(digest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
