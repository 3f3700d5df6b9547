"""Table error detection with the similar-sheet primitive (paper future work).

A spreadsheet copied from a template contains one formula that was
accidentally overwritten with the wrong logic.
:func:`~repro.extensions.audit_sheet` cross-checks every formula on the
audited sheet against the most similar sheets an Auto-Formula predictor
has indexed and flags cells whose formula *template* disagrees with its
peers; :func:`~repro.extensions.suggest_value` fills a blanked cell from
the same similar sheets.  The script exits with an error unless the
injected formula is flagged and the blanked header gets its own value back.

Run with:  python examples/error_detection.py
"""

import numpy as np

from repro import AutoFormula, ModelConfig, TrainingConfig, build_training_universe, generate_training_pairs, train_models
from repro.corpus import SurveyTemplate
from repro.extensions import audit_sheet, suggest_value
from repro.sheet import CellAddress


def main() -> None:
    print("Training representation models ...")
    universe = build_training_universe(n_families=8, copies_per_family=3, n_singletons=6)
    encoder, __ = train_models(
        generate_training_pairs(universe), ModelConfig(), TrainingConfig(epochs=8)
    )

    rng = np.random.default_rng(11)
    template = SurveyTemplate(3, rng)
    reference = template.instantiate(rng, 0)   # last month's survey (correct)
    audited = template.instantiate(rng, 1)     # this month's survey

    # Introduce a realistic mistake: one COUNTIF in the summary block was
    # overwritten by an unrelated SUM during editing.
    audited_sheet = audited.sheets[1]
    corrupted = None
    for address, cell in audited_sheet.formula_cells():
        if "COUNTIF" in (cell.formula or ""):
            print(f"Corrupting {audited_sheet.name}!{address.to_a1()}: {cell.formula} -> =SUM(A1:A2)")
            audited_sheet.set(address, formula="=SUM(A1:A2)", style=cell.style)
            corrupted = address
            break

    predictor = AutoFormula(encoder)
    predictor.fit([reference])
    anomalies = audit_sheet(predictor, audited_sheet)

    print(f"\nAudit found {len(anomalies)} suspicious formula cell(s):")
    for anomaly in anomalies:
        marker = "  <-- the injected error" if anomaly.cell == corrupted else ""
        print(
            f"  {anomaly.cell.to_a1():6s} severity {anomaly.severity:.2f}: "
            f"uses {anomaly.observed_template!r} but similar sheets use {anomaly.expected_template!r} "
            f"(see {anomaly.reference_sheet}!{anomaly.reference_cell}){marker}"
        )

    assert corrupted in {anomaly.cell for anomaly in anomalies}, "the injected error was missed"

    # Bonus: the same primitives can auto-fill missing header values.
    header_cell = CellAddress(5, 2)
    expected = audited_sheet.get(header_cell).value
    probe_sheet = audited_sheet.copy()
    probe_sheet.set(header_cell, value=None)
    suggestion = suggest_value(predictor, probe_sheet, header_cell, acceptance_threshold=2.0)
    assert suggestion is not None and suggestion.value == expected, suggestion
    print(
        f"\nAuto-fill: cell {header_cell.to_a1()} (blanked) -> suggested {suggestion.value!r} "
        f"(actual {expected!r}, confidence {suggestion.confidence:.2f})"
    )


if __name__ == "__main__":
    main()
