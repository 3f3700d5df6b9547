"""Tests for the service layer: workspaces, mutation parity, typed serving."""

import dataclasses
import time

import pytest

from repro import (
    AbstainReason,
    AutoFormula,
    AutoFormulaConfig,
    FormulaService,
    RecommendationRequest,
    RecommendationResponse,
    Workspace,
)
from repro.baselines import WeakSupervisionBaseline
from repro.corpus import sample_test_cases, split_corpus
from repro.evaluation import run_method_on_cases
from repro.formula.engine import FormulaEngine
from repro.sheet import CellAddress
from repro.testing import (
    assert_matches_fresh_fit,
    assert_responses_match,
    assert_same_index_rows,
)


@pytest.fixture(scope="module")
def workload(pge_corpus):
    """A small serving workload: reference workbooks plus test cases."""
    test_workbooks, reference_workbooks = split_corpus(pge_corpus, 0.15, "timestamp")
    cases = sample_test_cases("PGE", test_workbooks, max_per_sheet=2, seed=0)
    return reference_workbooks[:6], cases[:10]


def _reindex_counts(workspace: Workspace) -> dict:
    """``{"same", "changed", "refit"}`` of ``workspace.counters()``."""
    counts = workspace.counters()
    return {shape: counts[f"workspace.reindex_{shape}"] for shape in ("same", "changed", "refit")}


def _assert_matches_prediction(response, prediction):
    """A served response must carry exactly the predictor's output."""
    if prediction is None:
        assert response.formula is None
        assert not response.accepted
        assert response.abstain_reason == AbstainReason.NO_CONFIDENT_MATCH
    else:
        assert response.accepted
        assert response.abstain_reason is None
        assert response.formula == prediction.formula
        assert response.confidence == prediction.confidence
        assert response.provenance == prediction.details


class TestIncrementalParity:
    """Mutated workspaces must predict bit-identically to a fresh fit."""

    def test_workspace_built_by_adds_matches_fresh_fit(
        self, trained_encoder, workload, make_config
    ):
        references, cases = workload
        fresh = AutoFormula(trained_encoder, make_config())
        fresh.fit(references)

        service = FormulaService(trained_encoder, make_config())
        workspace = service.create_workspace("incremental")
        for workbook in references:
            workspace.add_workbook(workbook)
        assert workspace.predictor.n_reference_sheets == fresh.n_reference_sheets
        assert workspace.predictor.n_reference_formulas == fresh.n_reference_formulas

        for case in cases:
            expected = fresh.predict(case.target_sheet, case.target_cell)
            response = workspace.recommend(
                RecommendationRequest(case.target_sheet, case.target_cell)
            )
            _assert_matches_prediction(response, expected)

    def test_remove_then_re_add_matches_fresh_fit(self, trained_encoder, workload, make_config):
        references, cases = workload
        service = FormulaService(trained_encoder, make_config())
        workspace = service.create_workspace("churn", workbooks=references)
        # Warm the online path so cached query state exists before the
        # mutation, the hardest case for parity.
        workspace.serve_batch(
            [RecommendationRequest(case.target_sheet, case.target_cell) for case in cases]
        )

        churned = workspace.remove_workbook(references[0].name)
        workspace.add_workbook(churned)

        # The equivalent corpus: re-added workbooks go to the end.
        fresh = AutoFormula(trained_encoder, make_config())
        fresh.fit(references[1:] + [references[0]])

        for case in cases:
            expected = fresh.predict(case.target_sheet, case.target_cell)
            response = workspace.recommend(
                RecommendationRequest(case.target_sheet, case.target_cell)
            )
            _assert_matches_prediction(response, expected)

    def test_removal_until_empty_then_rebuild(self, trained_encoder, workload, make_config):
        references, cases = workload
        service = FormulaService(trained_encoder, make_config())
        workspace = service.create_workspace("drain", workbooks=references)
        for workbook in list(references):
            workspace.remove_workbook(workbook.name)
        assert len(workspace) == 0
        assert workspace.predictor.n_reference_sheets == 0
        response = workspace.recommend(
            RecommendationRequest(cases[0].target_sheet, cases[0].target_cell)
        )
        assert response.abstain_reason == AbstainReason.EMPTY_CORPUS

        workspace.add_workbooks(references)
        fresh = AutoFormula(trained_encoder, make_config())
        fresh.fit(references)
        for case in cases[:4]:
            expected = fresh.predict(case.target_sheet, case.target_cell)
            response = workspace.recommend(
                RecommendationRequest(case.target_sheet, case.target_cell)
            )
            _assert_matches_prediction(response, expected)


class TestServeBatch:
    def test_latency_recorded_per_request(self, trained_encoder, workload):
        references, cases = workload
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("timed", workbooks=references)
        requests = [
            RecommendationRequest(case.target_sheet, case.target_cell) for case in cases
        ]
        responses = workspace.serve_batch(requests)
        assert len(workspace.latency) == len(requests)
        assert all(response.latency_seconds >= 0.0 for response in responses)
        summary = workspace.latency.summary()
        assert summary["count"] == float(len(requests))
        assert summary["p95_seconds"] >= summary["p50_seconds"] >= 0.0

    def test_empty_request_list(self, trained_encoder, workload):
        references, __ = workload
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("empty-batch", workbooks=references)
        assert workspace.serve_batch([]) == []


class TestAbstention:
    def test_empty_corpus_reason(self, trained_encoder, workload):
        __, cases = workload
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("empty")
        response = workspace.recommend(
            RecommendationRequest(cases[0].target_sheet, cases[0].target_cell)
        )
        assert not response.accepted
        assert response.formula is None
        assert response.confidence == 0.0
        assert response.abstain_reason == AbstainReason.EMPTY_CORPUS

    def test_no_confident_match_reason(self, trained_encoder, workload):
        references, cases = workload
        config = AutoFormulaConfig(acceptance_threshold=1e-9)
        service = FormulaService(trained_encoder, config)
        workspace = service.create_workspace("strict", workbooks=references)
        responses = workspace.serve_batch(
            [RecommendationRequest(case.target_sheet, case.target_cell) for case in cases]
        )
        assert all(not response.accepted for response in responses)
        assert all(
            response.abstain_reason == AbstainReason.NO_CONFIDENT_MATCH
            for response in responses
        )


class TestTypes:
    def test_request_normalizes_a1_strings(self, workload):
        __, cases = workload
        request = RecommendationRequest(cases[0].target_sheet, "D41")
        assert request.cell == CellAddress.from_a1("D41")

    def test_request_and_response_are_frozen(self, workload):
        __, cases = workload
        request = RecommendationRequest(cases[0].target_sheet, CellAddress(1, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.cell = CellAddress(0, 0)
        response = RecommendationResponse(
            request=request, workspace="w", method="m", formula=None, confidence=0.0
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            response.formula = "=SUM(A1:A2)"

    def test_accepted_property(self, workload):
        __, cases = workload
        request = RecommendationRequest(cases[0].target_sheet, CellAddress(1, 1))
        accepted = RecommendationResponse(
            request=request, workspace="w", method="m", formula="=A1", confidence=0.5
        )
        rejected = RecommendationResponse(
            request=request, workspace="w", method="m", formula=None, confidence=0.0,
            abstain_reason=AbstainReason.NO_CONFIDENT_MATCH,
        )
        assert accepted.accepted and not rejected.accepted


class TestFacade:
    def test_workspace_registry(self, trained_encoder):
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("alpha")
        assert service.workspace("alpha") is workspace
        assert service["alpha"] is workspace
        assert "alpha" in service
        assert service.workspace_names() == ["alpha"]
        assert len(service) == 1
        with pytest.raises(ValueError):
            service.create_workspace("alpha")
        dropped = service.drop_workspace("alpha")
        assert dropped is workspace
        assert "alpha" not in service
        with pytest.raises(KeyError):
            service.workspace("alpha")

    def test_default_predictor_is_autoformula(self, trained_encoder):
        config = AutoFormulaConfig(top_k_sheets=2)
        service = FormulaService(trained_encoder, config)
        workspace = service.create_workspace("default")
        assert isinstance(workspace.predictor, AutoFormula)
        assert workspace.predictor.config is config

    def test_predictor_required_without_encoder(self):
        service = FormulaService()
        with pytest.raises(ValueError):
            service.create_workspace("no-encoder")
        workspace = service.create_workspace("baseline", predictor=WeakSupervisionBaseline())
        assert isinstance(workspace.predictor, WeakSupervisionBaseline)

    def test_duplicate_workbook_rejected(self, trained_encoder, workload):
        references, __ = workload
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("dup", workbooks=references[:1])
        with pytest.raises(ValueError):
            workspace.add_workbook(references[0])
        with pytest.raises(KeyError):
            workspace.remove_workbook("no-such-workbook")

    def test_bare_sheets_rejected(self, trained_encoder, workload):
        # The predictor API accepts bare sheets, but the workspace corpus is
        # workbook-keyed: a bare sheet would be indexed under "<sheet>" and
        # registered under its own name, making it irremovable.
        references, __ = workload
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("sheets")
        with pytest.raises(TypeError):
            workspace.add_workbook(references[0].sheets[0])
        assert len(workspace) == 0

    def test_zero_sheet_workbook_round_trip(self, trained_encoder, workload):
        from repro.sheet import Workbook as _Workbook

        references, __ = workload
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("hollow", workbooks=references[:1])
        workspace.add_workbook(_Workbook(name="empty.xlsx"))
        assert "empty.xlsx" in workspace
        removed = workspace.remove_workbook("empty.xlsx")
        assert removed.name == "empty.xlsx"
        assert "empty.xlsx" not in workspace

    def test_failed_mutation_leaves_registry_consistent(self, workload):
        references, __ = workload

        class _ExplodingFit(WeakSupervisionBaseline):
            def fit(self, reference_workbooks):
                raise RuntimeError("boom")

        workspace = Workspace("failing", _ExplodingFit())
        with pytest.raises(RuntimeError):
            workspace.add_workbook(references[0])
        assert len(workspace) == 0
        assert references[0].name not in workspace


def _numeric_cells(sheet):
    return [
        address
        for address, cell in sheet.cells()
        if not cell.has_formula
        and isinstance(cell.value, (int, float))
        and not isinstance(cell.value, bool)
    ]


def _owned_rows(predictor, sheet):
    """Positions and bytes of the index rows one reference sheet owns."""
    sheet_id = predictor._sheet_ids[id(sheet)]
    positions = predictor._formula_positions[sheet_id]
    return (
        predictor._sheet_positions[sheet_id],
        predictor.sheet_index.vectors[predictor._sheet_positions[sheet_id]].tobytes(),
        positions.tolist(),
        predictor.formula_index.vectors[positions].tobytes(),
    )


class TestEditCell:
    """The live-edit surface's contracts: an edit re-indexes one sheet over
    the rows it owns, and live == fresh fit == restored afterwards."""

    #: The sheet of the module workload that most test cases cite.
    WORKBOOK, SHEET, SIBLING = "sales_003_003.xlsx", "Regional Summary", "Sales Log"

    @pytest.fixture()
    def edit_target(self, workload):
        reference_workbooks, __ = workload
        workbook = reference_workbooks[0]
        sheet = next(s for s in workbook if s.n_formulas())
        return workbook, sheet, _numeric_cells(sheet)[0]

    def _workspace(self, trained_encoder, workbooks, directory=None):
        workspace = Workspace("t", AutoFormula(trained_encoder, AutoFormulaConfig()))
        workspace.add_workbooks([wb.copy() for wb in workbooks])
        if directory is not None:
            workspace.save(directory)  # every later edit lands in the log tail
        return workspace

    @staticmethod
    def _serve(workspace, cases):
        return workspace.serve_batch(
            [RecommendationRequest(case.target_sheet, case.target_cell) for case in cases]
        )

    def _assert_parity(self, workspace, trained_encoder, cases, directory):
        """live == fresh fit (fresh featurizer, answers and stored vectors)
        == restored from the pre-edit snapshot + the log tail."""
        # Parity cannot see an edit that fell back to a full refit.
        assert workspace.counters()["workspace.reindex_refit"] == 0
        fresh = AutoFormula(trained_encoder, AutoFormulaConfig())
        assert_matches_fresh_fit(workspace, lambda: fresh, cases)
        restored = Workspace.load(directory, AutoFormula(trained_encoder, AutoFormulaConfig()))
        assert restored.workbook_names == workspace.workbook_names
        assert_responses_match(self._serve(workspace, cases), self._serve(restored, cases))
        assert_same_index_rows(restored.predictor, fresh)

    def test_requires_exactly_one_operand(self, trained_encoder, workload, edit_target):
        reference_workbooks, __ = workload
        workbook, sheet, address = edit_target
        workspace = self._workspace(trained_encoder, reference_workbooks[:2])
        with pytest.raises(ValueError, match="value=.*formula="):
            workspace.edit_cell(workbook.name, sheet.name, address)
        with pytest.raises(ValueError, match="not both"):
            workspace.edit_cell(
                workbook.name, sheet.name, address, value=1.0, formula="=1"
            )
        with pytest.raises(KeyError):
            workspace.edit_cell("ghost.xlsx", sheet.name, address, value=1.0)
        with pytest.raises(KeyError):
            workspace.edit_cell(workbook.name, "ghost sheet", address, value=1.0)

    def test_value_edits_keep_corpus_order_and_leave_no_tombstones(
        self, trained_encoder, workload, edit_target
    ):
        reference_workbooks, __ = workload
        workbook, sheet, address = edit_target
        workspace = self._workspace(trained_encoder, reference_workbooks[:3])
        names = workspace.workbook_names
        report = workspace.edit_cell(workbook.name, sheet.name, address, value=77.25)
        assert report.total >= 0
        edited = next(wb for wb in workspace.workbooks() if wb.name == workbook.name)
        assert edited.get_sheet(sheet.name).get(address).value == 77.25
        for n_edits, target in enumerate(workspace.workbooks()):
            for target_sheet in target:
                for cell in _numeric_cells(target_sheet)[:3]:
                    workspace.edit_cell(target.name, target_sheet.name, cell, value=float(n_edits))
        assert workspace.workbook_names == names
        predictor = workspace.predictor
        assert predictor.sheet_index.n_tombstones == 0
        assert predictor.formula_index.n_tombstones == 0
        stats = _reindex_counts(workspace)
        assert stats["changed"] == 0 and stats["refit"] == 0
        assert stats["same"] > 3

    def test_value_edit(self, trained_encoder, workload, tmp_path):
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        sheet = workspace.workbooks()[3].get_sheet(self.SHEET)
        before = _owned_rows(workspace.predictor, sheet)
        answers = self._serve(workspace, cases)
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "B12", value="not a number")
        after = _owned_rows(workspace.predictor, sheet)
        # Same rows, new content — and the answers that cite the sheet moved.
        assert (after[0], after[2]) == (before[0], before[2])
        assert after[1] != before[1] and after[3] != before[3]
        assert [r.confidence for r in self._serve(workspace, cases)] != [
            r.confidence for r in answers
        ]
        self._assert_parity(workspace, trained_encoder, cases, tmp_path)

    def test_new_text_on_a_formula_cell(self, trained_encoder, workload, tmp_path):
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "C4", formula="=SUMIF(A10:A40,A4,B10:B40)")
        cited = [r for r in self._serve(workspace, cases) if r.provenance.get("reference_cell") == "C4"]
        assert cited and cited[0].provenance["reference_formula"] == "=SUMIF(A10:A40,A4,B10:B40)"
        assert _reindex_counts(workspace) == {"same": 0, "changed": 1, "refit": 0}
        self._assert_parity(workspace, trained_encoder, cases, tmp_path)

    def test_formula_written_into_a_value_cell(self, trained_encoder, workload, tmp_path):
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        n_formulas = workspace.predictor.n_reference_formulas
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "B20", formula="=B19*2")
        assert workspace.predictor.n_reference_formulas == n_formulas + 1
        self._assert_parity(workspace, trained_encoder, cases, tmp_path)

    def test_formula_nested_too_deep_is_accepted_as_an_error_value(
        self, trained_encoder, workload, tmp_path
    ):
        """``((((…1…))))`` used to leave ``parse_formula`` as a RecursionError,
        past every ``except FormulaSyntaxError``, with the edit half-applied."""
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        sheet = workspace.workbooks()[3].get_sheet(self.SHEET)
        version, extent = sheet.version, (sheet.n_rows, sheet.n_cols)
        deep = "=" + "(" * 400 + "1" + ")" * 400
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "B20", formula=deep)
        cell = sheet.get("B20")
        assert (cell.formula, cell.value) == (deep, "#NAME?")  # as "=SUM(" is
        assert sheet.version > version and (sheet.n_rows, sheet.n_cols) == extent
        self._assert_parity(workspace, trained_encoder, cases, tmp_path)

    def test_formula_too_tall_is_an_error_value_in_under_10_ms(
        self, trained_encoder, workload, tmp_path
    ):
        """``=1+1+…`` with 3 001 terms used to parse into a tree 3 000 levels
        high, and the edit's recalculation then raised RecursionError."""
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        sheet = workspace.workbooks()[3].get_sheet(self.SHEET)
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "B21", value=1.0)  # builds the engine
        tall = "=1" + "+1" * 3000
        # This thread's CPU time: neither a stalled box nor an idle BLAS
        # thread spinning beside it counts (≈ 4 ms, as an ordinary edit's 3).
        started = time.thread_time()
        report = workspace.edit_cell(self.WORKBOOK, self.SHEET, "B20", formula=tall)
        assert time.thread_time() - started < 0.010
        assert report.errored >= 1 and sheet.get("B20").value == "#NAME?"  # and its dependents
        self._assert_parity(workspace, trained_encoder, cases, tmp_path)

    def test_an_edit_that_raises_leaves_the_workspace_as_it_was(
        self, trained_encoder, workload, tmp_path, monkeypatch
    ):
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        sheet = workspace.workbooks()[3].get_sheet(self.SHEET)
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "B21", value=1.0)  # builds the engine
        before, version = sheet.copy(), sheet.version
        monkeypatch.setattr(FormulaEngine, "recalculate", lambda engine: 1 / 0)
        for cell, edit in (("B20", {"formula": "=B19*2"}), ("Z200", {"value": 3.5})):
            with pytest.raises(ZeroDivisionError):
                workspace.edit_cell(self.WORKBOOK, self.SHEET, cell, **edit)
        monkeypatch.undo()
        assert list(sheet.cells()) == list(before.cells()) and sheet.version > version
        assert (sheet.n_rows, sheet.n_cols) == (before.n_rows, before.n_cols)
        self._assert_parity(workspace, trained_encoder, cases, tmp_path)

    def test_value_written_over_a_formula_cell(self, trained_encoder, workload, tmp_path):
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        sheet = workspace.workbooks()[3].get_sheet(self.SHEET)
        n_old = len(_owned_rows(workspace.predictor, sheet)[2])
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "C4", value=12.5)
        # Only this sheet's old formula rows are tombstoned; its S1 row stays.
        assert workspace.predictor.formula_index.n_tombstones == n_old
        assert workspace.predictor.sheet_index.n_tombstones == 0
        assert len(_owned_rows(workspace.predictor, sheet)[2]) == n_old - 1
        assert all(
            r.provenance.get("reference_cell") != "C4" or r.provenance["reference_sheet"] != self.SHEET
            for r in self._serve(workspace, cases)
        )
        self._assert_parity(workspace, trained_encoder, cases, tmp_path)

    def test_a_reindex_that_raises_is_refit_and_counted(
        self, trained_encoder, workload, tmp_path, monkeypatch, tracer
    ):
        """The fallback keeps the answers right, so only its count (and the
        span's ``error``) can tell that an edit paid for a full fit."""
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        predictor = workspace.predictor
        reindex, fits = predictor.reindex_sheet, []

        def raise_once(sheet):
            monkeypatch.setattr(predictor, "reindex_sheet", reindex)
            raise FloatingPointError("featurizer bug")

        monkeypatch.setattr(predictor, "reindex_sheet", raise_once)
        monkeypatch.setattr(
            predictor, "fit", lambda workbooks, fit=predictor.fit: fits.append(1) or fit(workbooks)
        )
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "B12", value=41.5)
        assert _reindex_counts(workspace) == {"same": 0, "changed": 0, "refit": 1}
        assert len(fits) == 1
        (edit,) = [
            tree["root"]
            for tree in tracer.recent_traces()
            if tree["root"]["name"] == "workspace.edit_cell"
        ]
        (span,) = [
            child for child in edit["children"] if child["name"] == "workspace.reindex_sheet"
        ]
        assert span["attributes"]["error"].startswith("FloatingPointError")
        fresh = AutoFormula(trained_encoder, AutoFormulaConfig())
        assert_matches_fresh_fit(workspace, lambda: fresh, cases)
        # The next edit re-indexes in place again.
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "B13", value=42.5)
        assert _reindex_counts(workspace) == {"same": 1, "changed": 0, "refit": 1}
        assert len(fits) == 1
        fresh = AutoFormula(trained_encoder, AutoFormulaConfig())
        assert_matches_fresh_fit(workspace, lambda: fresh, cases)

    def test_edit_that_grows_the_used_extent(self, trained_encoder, workload, tmp_path):
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        sheet = workspace.workbooks()[3].get_sheet(self.SHEET)
        extent = (sheet.n_rows, sheet.n_cols)
        workspace.edit_cell(
            self.WORKBOOK, self.SHEET, CellAddress(extent[0] + 2, extent[1] + 1), value="note"
        )
        assert (sheet.n_rows, sheet.n_cols) == (extent[0] + 3, extent[1] + 2)
        self._assert_parity(workspace, trained_encoder, cases, tmp_path)

    def test_sibling_sheet_rows_are_untouched(self, trained_encoder, workload, tmp_path):
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        sibling = workspace.workbooks()[3].get_sheet(self.SIBLING)
        assert sibling.n_formulas()
        before = _owned_rows(workspace.predictor, sibling)
        store = workspace.predictor._reference_sheets[
            workspace.predictor._sheet_ids[id(sibling)]
        ].store
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "B12", value=1.5)
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "B20", formula="=B19*2")
        assert _owned_rows(workspace.predictor, sibling) == before
        assert workspace.predictor._reference_sheets[
            workspace.predictor._sheet_ids[id(sibling)]
        ].store is store
        self._assert_parity(workspace, trained_encoder, cases, tmp_path)

    def test_restored_workspace_edited_before_its_first_serve(
        self, trained_encoder, workload, tmp_path
    ):
        reference_workbooks, cases = workload
        live = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        restored = Workspace.load(tmp_path, AutoFormula(trained_encoder, AutoFormulaConfig()))
        for workspace in (live, restored):
            # The restored reference stores are still empty here.
            workspace.edit_cell(self.WORKBOOK, self.SHEET, "A34", value=123456.0)
        assert_responses_match(self._serve(live, cases), self._serve(restored, cases))
        assert_matches_fresh_fit(
            restored, lambda: AutoFormula(trained_encoder, AutoFormulaConfig()), cases
        )

    def test_edit_inside_a_parameter_window_refreshes_the_reference_store(
        self, trained_encoder, workload, tmp_path
    ):
        """S3 reads the reference side from the sheet's region store, which
        no index search touches: left stale, the re-grounded range of the
        cited ``SUMIF`` keeps following the pre-edit column."""
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        predictor = workspace.predictor
        sheet = workspace.workbooks()[3].get_sheet(self.SHEET)
        reference = predictor._reference_sheets[predictor._sheet_ids[id(sheet)]]
        self._serve(workspace, cases)  # builds the cited formulas' plans
        local = next(i for i, f in enumerate(reference.formulas) if f.address.to_a1() == "C4")
        plan = reference.plans[local]
        stored = reference.store.rows(plan.slots)[0].tobytes()
        # A34 sits in the window of the parameter cell A44 (the range's end).
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "A34", value=123456.0)
        fresh = AutoFormula(trained_encoder, AutoFormulaConfig())
        assert_matches_fresh_fit(workspace, lambda: fresh, cases)

        # The same through the store itself: the plan and its slots stayed,
        # the vectors behind them are the fresh fit's.
        assert reference.plans[local] is plan
        assert reference.store.rows(plan.slots)[0].tobytes() != stored
        fresh_reference = fresh._reference_sheets[fresh._sheet_ids[id(sheet)]]
        fresh_plan = fresh._adaptation_plan(fresh_reference, local)
        assert fresh_plan.cells == plan.cells
        assert (
            reference.store.rows(plan.slots)[0].tobytes()
            == fresh_reference.store.rows(fresh_plan.slots)[0].tobytes()
        )
        self._assert_parity(workspace, trained_encoder, cases, tmp_path)

    def test_edits_are_indexed_from_the_edited_content(self, trained_encoder, workload):
        """Regression: with a corpus small enough to sit in the featurizer's
        tensor cache, ``edit_cell`` re-indexed the edited sheet from its
        cached *pre-edit* tensor, and a fresh fit through the same encoder
        inherited the stale tensor and agreed with it."""
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks)
        n_edits = 0
        for workbook in workspace.workbooks():
            for sheet in workbook:
                for address in _numeric_cells(sheet)[::2]:
                    workspace.edit_cell(workbook.name, sheet.name, address, value=f"text {n_edits}")
                    n_edits += 1
        assert n_edits > 50
        assert_matches_fresh_fit(
            workspace,
            lambda: AutoFormula(trained_encoder, AutoFormulaConfig()),
            cases,
            context="after value-to-text edits",
        )


class TestBaselineWorkspace:
    """Non-incremental predictors are refit on every corpus mutation."""

    def test_mutation_refits_baseline(self, workload):
        references, cases = workload
        service = FormulaService()
        workspace = service.create_workspace(
            "weak", predictor=WeakSupervisionBaseline(), workbooks=references[:3]
        )
        workspace.add_workbook(references[3])
        workspace.remove_workbook(references[0].name)
        assert workspace.workbook_names == [
            workbook.name for workbook in references[1:4]
        ]
        response = workspace.recommend(
            RecommendationRequest(cases[0].target_sheet, cases[0].target_cell)
        )
        assert isinstance(response, RecommendationResponse)
        assert response.method == workspace.predictor.name


class TestAdapters:
    def test_evaluate_matches_runner(self, trained_encoder, workload):
        references, cases = workload
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("eval", workbooks=references)
        run = workspace.evaluate(cases, corpus_name="PGE")

        fresh = AutoFormula(trained_encoder, AutoFormulaConfig())
        expected = run_method_on_cases(fresh, references, cases, corpus_name="PGE")
        assert run.metrics == expected.metrics
        assert run.corpus_name == "PGE"

    def test_autofill_and_error_detection_adapters(self, trained_encoder, workload):
        references, cases = workload
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("ext", workbooks=references)

        suggestion = workspace.suggest_value(cases[0].target_sheet, cases[0].target_cell)
        assert suggestion is None or suggestion.confidence >= 0.0
        anomalies = workspace.audit_sheet(references[0][references[0].sheet_names[0]])
        assert isinstance(anomalies, list)

        # Extensions are refit lazily after corpus mutation.
        autofill_before = workspace.autofill()
        assert autofill_before.n_reference_sheets == sum(
            len(workbook) for workbook in workspace.workbooks()
        )
        workspace.remove_workbook(references[-1].name)
        autofill_after = workspace.autofill()
        assert autofill_after is autofill_before  # same instance, refitted
        assert autofill_after.n_reference_sheets == sum(
            len(workbook) for workbook in workspace.workbooks()
        )

    def test_extensions_need_encoder(self, workload):
        references, cases = workload
        workspace = Workspace("bare", WeakSupervisionBaseline())
        workspace.add_workbooks(references[:2])
        with pytest.raises(RuntimeError):
            workspace.autofill()
        with pytest.raises(RuntimeError):
            workspace.audit_sheet(cases[0].target_sheet)
