"""Write the format-1 snapshot fixture ``tests/test_persistence.py`` loads.

Format 1 (one ``workbooks/NNN.json`` per workbook, ``arrays/<name>.npy``
per block, ``manifest.json`` and ``mutations.log`` at the top of the
directory) has a reader but no writer any more, so this script only runs
against a build that still writes it (``SNAPSHOT_FORMAT_VERSION == 1``,
up to commit d21c7a6)::

    PYTHONPATH=<that checkout>/src python tests/fixtures/format1_snapshot/make_fixture.py

It trains the test suite's small encoder and stores its weights beside
the snapshot (``encoder/``), so the answers recorded in
``queries.jsonl`` do not depend on how another build trains.  The
snapshot holds four workbooks of the PGE corpus at scale 0.2; its log
tail holds one edit and one remove.  Every query is asked of the
restored workspace and of the live one, which must agree.
"""

import json
import shutil
import sys
from pathlib import Path

from repro import AutoFormulaConfig, FormulaService, RecommendationRequest
from repro.corpus import build_enterprise_corpus, build_training_universe, sample_test_cases
from repro.corpus import split_corpus
from repro.features import FeatureConfig
from repro.models import ModelConfig, TrainingConfig, train_models
from repro.persistence.snapshot import SNAPSHOT_FORMAT_VERSION
from repro.sheet.io import sheet_to_dict
from repro.weaksup import generate_training_pairs

HERE = Path(__file__).resolve().parent


def main() -> int:
    assert SNAPSHOT_FORMAT_VERSION == 1, "run against a build that writes format 1"
    universe = build_training_universe(n_families=6, copies_per_family=3, n_singletons=4, seed=7)
    pairs = generate_training_pairs(universe, seed=0)
    model_config = ModelConfig(features=FeatureConfig(window_rows=20, window_cols=8))
    encoder, __ = train_models(pairs, model_config, TrainingConfig(epochs=6, seed=0))
    test_workbooks, references = split_corpus(build_enterprise_corpus("PGE", scale=0.2), 0.2)
    service = FormulaService(encoder, AutoFormulaConfig())
    workspace = service.create_workspace("format1", workbooks=[wb.copy() for wb in references[:4]])
    for name in ("snapshot", "encoder"):
        shutil.rmtree(HERE / name, ignore_errors=True)
    encoder.save(HERE / "encoder")
    workspace.save(HERE / "snapshot")
    first = workspace.workbooks()[0]
    sheet = first.sheets[0]
    address = next(
        address
        for address, cell in sorted(sheet.cells())
        if cell.formula is None and isinstance(cell.value, float)
    )
    workspace.edit_cell(first.name, sheet.name, address, value=4321.5)
    workspace.remove_workbook(workspace.workbook_names[-1])
    restored = FormulaService(encoder, AutoFormulaConfig()).load_workspace(HERE / "snapshot")
    cases = sample_test_cases("PGE", test_workbooks[:2], max_per_sheet=3, seed=0)
    with (HERE / "queries.jsonl").open("w", encoding="utf-8") as out:
        for case in cases:
            request = RecommendationRequest(case.target_sheet, case.target_cell)
            live, again = workspace.recommend(request), restored.recommend(request)
            answer = [again.formula, repr(float(again.confidence))]
            assert answer == [live.formula, repr(float(live.confidence))]
            record = {
                "sheet": sheet_to_dict(case.target_sheet),
                "cell": case.target_cell.to_a1(),
                "answer": answer,
            }
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
    print(f"{len(cases)} queries, {len(restored)} workbooks restored", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
