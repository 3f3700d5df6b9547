"""Tests for the auto-fill and error-detection extensions."""

import numpy as np
import pytest

from repro.core import AutoFormula
from repro.corpus import SurveyTemplate, split_corpus
from repro.extensions import audit_sheet, suggest_value
from repro.formula.template import extract_template
from repro.sheet import CellAddress, Sheet


@pytest.fixture(scope="module")
def pge_reference(pge_corpus):
    __, reference = split_corpus(pge_corpus, 0.15, "timestamp")
    return reference


def _survey_pair(rng):
    """Two survey workbooks from the same family (reference + audited copy)."""
    template = SurveyTemplate(7, rng)
    reference = template.instantiate(rng, 0)
    audited = template.instantiate(rng, 1)
    return reference, audited


def _fitted(encoder, workbooks) -> AutoFormula:
    predictor = AutoFormula(encoder)
    predictor.fit(workbooks)
    return predictor


def _corrupt_countif(sheet: Sheet) -> CellAddress:
    """Overwrite the sheet's first COUNTIF summary formula with a plain
    constant-SUM, the kind of copy/paste slip the detector is meant to
    catch; returns its cell."""
    for address, cell in sheet.formula_cells():
        if "COUNTIF" in (cell.formula or ""):
            sheet.set(address, formula="=SUM(A1:A2)", style=cell.style)
            return address
    raise AssertionError("the sheet has no COUNTIF formula")


class TestValueAutoFill:
    def test_requires_fit(self, trained_encoder):
        assert suggest_value(AutoFormula(trained_encoder), Sheet(), CellAddress(0, 0)) is None

    def test_fills_header_cell_from_family_sheet(self, trained_encoder, rng):
        reference, audited = _survey_pair(rng)
        predictor = _fitted(trained_encoder, [reference])

        target_sheet = audited.sheets[1].copy()
        header_cell = CellAddress(5, 2)  # the "Answer" column header
        expected = target_sheet.get(header_cell).value
        target_sheet.set(header_cell, value=None)

        suggestion = suggest_value(predictor, target_sheet, header_cell, acceptance_threshold=2.0)
        assert suggestion is not None
        assert suggestion.value == expected
        assert 0.0 <= suggestion.confidence <= 1.0
        assert suggestion.reference_cell == header_cell.to_a1()
        assert suggestion.reference_sheet == f"{reference.name}/{audited.sheets[1].name}"

    def test_returns_none_when_reference_cell_empty(self, trained_encoder, rng):
        reference, audited = _survey_pair(rng)
        predictor = _fitted(trained_encoder, [reference])
        far_away = CellAddress(200, 7)
        assert suggest_value(predictor, audited.sheets[1], far_away, 2.0) is None

    def test_threshold_controls_abstention(self, trained_encoder, rng, pge_reference):
        reference, audited = _survey_pair(rng)
        predictor = _fitted(trained_encoder, pge_reference)
        target_sheet = audited.sheets[1].copy()
        header_cell = CellAddress(5, 2)
        target_sheet.set(header_cell, value=None)
        assert suggest_value(predictor, target_sheet, header_cell, 1e-6) is None


class TestFormulaErrorDetector:
    def test_requires_fit(self, trained_encoder):
        assert audit_sheet(AutoFormula(trained_encoder), Sheet()) == []

    def test_consistent_sheet_has_no_anomalies(self, trained_encoder, rng):
        reference, audited = _survey_pair(rng)
        predictor = _fitted(trained_encoder, [reference])
        assert audit_sheet(predictor, audited.sheets[1]) == []

    def test_detects_template_mismatch(self, trained_encoder, rng):
        reference, audited = _survey_pair(rng)
        audited_sheet = audited.sheets[1].copy()
        corrupted_cell = _corrupt_countif(audited_sheet)

        anomalies = audit_sheet(_fitted(trained_encoder, [reference]), audited_sheet)
        assert anomalies, "the corrupted formula should be flagged"
        flagged_cells = {anomaly.cell for anomaly in anomalies}
        assert corrupted_cell in flagged_cells
        top = anomalies[0]
        assert top.observed_template != top.expected_template
        assert 0.0 <= top.severity <= 1.0

    def test_audit_against_unrelated_corpus_is_quiet(self, trained_encoder, rng, pge_reference):
        """Auditing a sheet against sheets that are not similar produces few flags."""
        __, audited = _survey_pair(rng)
        predictor = _fitted(trained_encoder, pge_reference)
        # The Instructions sheet (no formulas).
        assert audit_sheet(predictor, audited.sheets[0], max_region_distance=0.05) == []

    def test_an_indexed_sheet_is_not_its_own_peer(self, trained_encoder, rng):
        """Audited in its own corpus, a corrupted sheet is compared with
        its family sibling, never with itself (which would agree)."""
        reference, audited = _survey_pair(rng)
        audited_sheet = audited.sheets[1]
        corrupted_cell = _corrupt_countif(audited_sheet)
        predictor = _fitted(trained_encoder, [reference, audited])
        anomalies = audit_sheet(predictor, audited_sheet)
        assert corrupted_cell in {anomaly.cell for anomaly in anomalies}
        assert {anomaly.reference_sheet.split("/")[0] for anomaly in anomalies} == {
            reference.name
        }

    def test_matches_a_scan_of_the_hit_sheets_formula_regions(
        self, trained_encoder, pge_reference
    ):
        """S2 through the formula index finds, for every formula cell, the
        region a plain scan over the hit sheets' center-blanked formula
        regions finds: same reference cell, distance within float32 noise."""
        predictor = _fitted(trained_encoder, pge_reference[:12])
        threshold = 4.0  # unit vectors: every best region is compared
        n_flagged = 0
        for workbook in pge_reference[:4]:
            for sheet in workbook:
                peers = []  # (reference sheet, cell, formula, region vector)
                for hit in predictor.sheet_hits(sheet):
                    name, peer, formulas = predictor.reference_sheet(int(hit.key))
                    if peer is not sheet:
                        vectors = _blanked_regions(predictor, peer, formulas)
                        peers.extend(
                            (f"{name}/{peer.name}", address, formula, vector)
                            for (address, formula), vector in zip(formulas, vectors)
                        )
                expected = {}
                formulas = [(address, cell.formula) for address, cell in sheet.formula_cells()]
                targets = _blanked_regions(predictor, sheet, formulas)
                for (address, formula), target in zip(formulas, targets):
                    distances = [float(np.sum((peer[3] - target) ** 2)) for peer in peers]
                    if not distances:
                        continue
                    name, cell, peer_formula, __ = peers[int(np.argmin(distances))]
                    if _signature(peer_formula) != _signature(formula):
                        expected[address] = (name, cell.to_a1(), min(distances))
                got = {
                    anomaly.cell: anomaly
                    for anomaly in audit_sheet(predictor, sheet, max_region_distance=threshold)
                }
                assert set(got) == set(expected)
                for address, (name, cell, distance) in expected.items():
                    anomaly = got[address]
                    assert (anomaly.reference_sheet, anomaly.reference_cell) == (name, cell)
                    assert anomaly.severity == pytest.approx(1.0 - distance / threshold, abs=1e-4)
                n_flagged += len(expected)
        assert n_flagged > 0


def _blanked_regions(predictor, sheet, formulas):
    """Center-blanked region vectors of ``(address, formula)`` pairs."""
    rows = np.array([address.row for address, __ in formulas], dtype=np.int64)
    cols = np.array([address.col for address, __ in formulas], dtype=np.int64)
    return predictor.encoder.embed_regions(sheet, rows, cols, blank_center=True)


def _signature(formula):
    return extract_template(formula).signature
