"""Tests for the service layer: workspaces, mutation parity, typed serving."""

import contextlib
import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
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
from repro.corpus import SurveyTemplate, sample_test_cases, split_corpus
from repro.evaluation import run_method_on_cases
from repro.formula import parser
from repro.formula.engine import FormulaEngine
from repro.models import SheetEncoder
from repro.persistence.log import MutationLog
from repro.persistence.snapshot import mutation_log_path
from repro.sheet import Cell, CellAddress, SealedError, Workbook
from repro.sheet.io import workbook_to_dict
from repro.testing import (
    answer_of,
    assert_matches_fresh_fit,
    assert_responses_match,
    assert_same_index_rows,
    assert_tombstone_accounting,
)


@pytest.fixture(scope="module")
def workload(pge_corpus):
    """A small serving workload: reference workbooks plus test cases."""
    test_workbooks, reference_workbooks = split_corpus(pge_corpus, 0.15, "timestamp")
    cases = sample_test_cases("PGE", test_workbooks, max_per_sheet=2, seed=0)
    return reference_workbooks[:6], cases[:10]


def _copies(workbooks):
    """Copies to add: a workspace seals what it holds, and the module's
    workbooks are shared by every test."""
    return [workbook.copy() for workbook in workbooks]


def _reindex_counts(workspace: Workspace) -> dict:
    """``{"same", "changed"}`` of ``workspace.counters()``."""
    counts = workspace.counters()
    return {shape: counts[f"workspace.reindex_{shape}"] for shape in ("same", "changed")}


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
            workspace.add_workbook(workbook.copy())
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
        workspace = service.create_workspace("churn", workbooks=_copies(references))
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
        workspace = service.create_workspace("drain", workbooks=_copies(references))
        for workbook in list(references):
            workspace.remove_workbook(workbook.name)
        assert len(workspace) == 0
        assert workspace.predictor.n_reference_sheets == 0
        response = workspace.recommend(
            RecommendationRequest(cases[0].target_sheet, cases[0].target_cell)
        )
        assert response.abstain_reason == AbstainReason.EMPTY_CORPUS

        workspace.add_workbooks(_copies(references))
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
        workspace = service.create_workspace("timed", workbooks=_copies(references))
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
        workspace = service.create_workspace("empty-batch", workbooks=_copies(references))
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
        workspace = service.create_workspace("strict", workbooks=_copies(references))
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

    def test_duplicate_workbook_rejected(self, trained_encoder, workload):
        references, __ = workload
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("dup", workbooks=[references[0].copy()])
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
        workspace = service.create_workspace("hollow", workbooks=[references[0].copy()])
        workspace.add_workbook(_Workbook(name="empty.xlsx"))
        assert "empty.xlsx" in workspace
        removed = workspace.remove_workbook("empty.xlsx")
        assert removed.name == "empty.xlsx"
        assert "empty.xlsx" not in workspace

    def test_failed_mutation_leaves_registry_consistent(self, trained_encoder, workload):
        """The first add of an empty workspace, failing: nothing registered."""
        references, __ = workload
        sheet = next(sheet for sheet in references[0] if sheet.n_formulas())
        workspace = Workspace("failing", AutoFormula(trained_encoder, AutoFormulaConfig()))
        with _unembeddable_workbook(sheet) as workbook, pytest.raises(TypeError):
            workspace.add_workbook(workbook)
        assert len(workspace) == 0
        assert workbook.name not in workspace
        assert workspace.predictor.n_reference_sheets == 0
        assert_tombstone_accounting(workspace.predictor)


@contextlib.contextmanager
def _unembeddable_workbook(sheet):
    """A two-sheet workbook whose second sheet no forward can embed: the
    sheet model raises on it while the context is open."""
    workbook = Workbook("unembeddable.xlsx")
    workbook.add_sheet(sheet.copy("Fine"))
    broken = workbook.add_sheet("Broken")
    broken.set((0, 0), "label")
    embed_sheet = SheetEncoder.embed_sheet

    def raising(encoder, target, *args, **kwargs):
        if target is broken:
            raise TypeError("the sheet model cannot embed this sheet")
        return embed_sheet(encoder, target, *args, **kwargs)

    with mock.patch.object(SheetEncoder, "embed_sheet", raising):
        yield workbook


def _index_state(predictor):
    """Copies of both indexes' stores and keys."""
    return [
        ({name: block.copy() for name, block in index.store_state().items()}, list(index._keys))
        for index in (predictor.sheet_index, predictor.formula_index)
    ]


def _assert_same_index_state(left, right):
    for (blocks, keys), (other_blocks, other_keys) in zip(left, right):
        assert keys == other_keys
        assert blocks.keys() == other_blocks.keys()
        for name, block in blocks.items():
            assert block.shape == other_blocks[name].shape
            assert block.tobytes() == other_blocks[name].tobytes(), name


def _exported_state(predictor):
    """``snapshot_state()`` with every array as (dtype, shape, bytes)."""
    state, arrays = predictor.snapshot_state()
    return state, {
        name: (block.dtype.str, block.shape, block.tobytes()) for name, block in arrays.items()
    }


class TestAllOrNothing:
    """A mutation whose forward raises writes nothing: the registry, its
    lookups and both indexes stay as they were."""

    def test_an_add_that_raises_leaves_the_predictor_as_it_was(
        self, trained_encoder, workload
    ):
        references, cases = workload
        workspace = Workspace("t", AutoFormula(trained_encoder, AutoFormulaConfig()))
        workspace.add_workbooks([workbook.copy() for workbook in references[:4]])
        predictor = workspace.predictor
        names, n_sheets = workspace.workbook_names, len(predictor._reference_sheets)
        before = _index_state(predictor)
        sheet = next(sheet for sheet in references[0] if sheet.n_formulas())
        with _unembeddable_workbook(sheet) as workbook, pytest.raises(TypeError):
            workspace.add_workbook(workbook)
        assert workspace.workbook_names == names
        assert len(predictor._reference_sheets) == n_sheets
        assert_tombstone_accounting(predictor)
        _assert_same_index_state(_index_state(predictor), before)

        fresh = lambda: AutoFormula(trained_encoder, AutoFormulaConfig())  # noqa: E731
        workspace.add_workbook(references[4].copy())
        assert_matches_fresh_fit(workspace, fresh, cases, "add")
        workbook = workspace.workbooks()[0]
        sheet = next(sheet for sheet in workbook if sheet.n_formulas())
        workspace.edit_cell(workbook.name, sheet.name, _numeric_cells(sheet)[0], value=41.5)
        assert_matches_fresh_fit(workspace, fresh, cases, "value edit")
        workspace.remove_workbook(references[4].name)
        assert_matches_fresh_fit(workspace, fresh, cases, "remove")
        assert_tombstone_accounting(predictor)

    def test_a_fit_that_raises_keeps_the_indexed_corpus(self, trained_encoder, workload):
        """A fit whose last workbook no forward can embed leaves the
        predictor's exported state byte for byte as it was and its answers
        unchanged, not an empty predictor under the registered workbooks."""
        references, cases = workload
        workspace = Workspace("t", AutoFormula(trained_encoder, AutoFormulaConfig()))
        workspace.add_workbooks([workbook.copy() for workbook in references])
        predictor = workspace.predictor
        requests = [RecommendationRequest(case.target_sheet, case.target_cell) for case in cases]
        answers = [answer_of(response) for response in workspace.serve_batch(requests)]
        before = _exported_state(predictor)
        sheet = next(sheet for sheet in references[0] if sheet.n_formulas())
        with _unembeddable_workbook(sheet) as workbook, pytest.raises(TypeError):
            predictor.fit(workspace.workbooks() + [workbook])
        assert _exported_state(predictor) == before
        assert predictor.n_reference_sheets > 0
        assert_tombstone_accounting(predictor)
        assert [answer_of(response) for response in workspace.serve_batch(requests)] == answers

    def test_an_edit_whose_reindex_raises_leaves_the_workspace_as_it_was(
        self, trained_encoder, workload, tmp_path, monkeypatch, tracer
    ):
        """The edit lands whole or not at all: its re-index raising puts the
        sheet's cells (the edited one and its dependents) and extent back,
        and the index, the log and a reload stay where they were (not the
        edited cell and its dependents, as a refit fallback once left)."""
        references, cases = workload
        workspace = Workspace("t", AutoFormula(trained_encoder, AutoFormulaConfig()))
        workspace.add_workbooks(_copies(references))
        workspace.save(tmp_path)
        predictor = workspace.predictor
        workbook = workspace.workbooks()[3]
        sheet = workbook.get_sheet(TestEditCell.SHEET)
        engine = FormulaEngine(sheet.copy())
        address = next(cell for cell in _numeric_cells(sheet) if engine.dependents_of(cell))
        workspace.edit_cell(workbook.name, sheet.name, "B21", value=1.0)  # builds the engine
        log = MutationLog(mutation_log_path(tmp_path))
        cells, extent = list(sheet.cells()), (sheet.n_rows, sheet.n_cols)
        state, n_entries = _exported_state(predictor), len(log.read())

        def raising(sheet):
            raise FloatingPointError("sheet model")

        monkeypatch.setattr(predictor, "_embed_sheet", raising)
        for edit in ({"value": sheet.get(address).value + 1000.0}, {"formula": "=B19*2"}):
            with pytest.raises(FloatingPointError):
                workspace.edit_cell(workbook.name, sheet.name, address, **edit)
        monkeypatch.undo()
        assert list(sheet.cells()) == cells
        assert (sheet.n_rows, sheet.n_cols) == extent
        assert _exported_state(predictor) == state
        assert len(log.read()) == n_entries
        assert _reindex_counts(workspace) == {"same": 1, "changed": 0}
        spans = [
            child
            for tree in tracer.recent_traces()
            if tree["root"]["name"] == "workspace.edit_cell"
            for child in tree["root"]["children"]
            if child["name"] == "workspace.reindex_sheet"
        ]
        assert spans[-1]["attributes"]["error"].startswith("FloatingPointError")
        restored = Workspace.load(tmp_path, AutoFormula(trained_encoder, AutoFormulaConfig()))
        assert [workbook_to_dict(wb) for wb in restored.workbooks()] == [
            workbook_to_dict(wb) for wb in workspace.workbooks()
        ]
        fresh = lambda: AutoFormula(trained_encoder, AutoFormulaConfig())  # noqa: E731
        assert_matches_fresh_fit(workspace, fresh, cases, "rolled back")
        assert_matches_fresh_fit(restored, fresh, cases, "reloaded")
        # The next edit goes through, re-indexing in place.
        workspace.edit_cell(workbook.name, sheet.name, address, value=41.5)
        assert _reindex_counts(workspace) == {"same": 2, "changed": 0}
        assert_matches_fresh_fit(workspace, fresh, cases, "next edit")

    @pytest.mark.parametrize("edit", ["value", "formula"])
    def test_a_reindex_whose_sheet_forward_raises_writes_nothing(
        self, trained_encoder, workload, monkeypatch, edit
    ):
        references, __ = workload
        workbooks = [workbook.copy() for workbook in references[:3]]
        predictor = AutoFormula(trained_encoder, AutoFormulaConfig())
        predictor.fit(workbooks)
        sheet = next(sheet for sheet in workbooks[0] if sheet.n_formulas())
        reference = predictor._reference_sheets[predictor._sheet_ids[id(sheet)]]
        cell = _numeric_cells(sheet)[0]
        before = _index_state(predictor)
        regions = reference.regions
        if edit == "value":
            sheet.set(cell, 987654.0)
        else:
            sheet.set(cell, formula="=1+2")

        def raising(sheet):
            raise FloatingPointError("sheet model")

        monkeypatch.setattr(predictor, "_embed_sheet", raising)
        with pytest.raises(FloatingPointError):
            predictor.reindex_sheet(sheet)
        _assert_same_index_state(_index_state(predictor), before)
        assert reference.regions is regions  # blocks are replaced whole, never written
        assert predictor._reference_sheets[predictor._sheet_ids[id(sheet)]] is reference
        assert_tombstone_accounting(predictor)

        monkeypatch.undo()
        predictor.reindex_sheet(sheet)
        fresh = AutoFormula(trained_encoder, AutoFormulaConfig())
        fresh.fit(workbooks)
        assert_same_index_rows(predictor, fresh)


class TestOneWriter:
    """A workspace is its sheets' one writer: a write around it is refused
    and changes nothing, where taking it would leave the index and the log
    behind the sheet."""

    @staticmethod
    def _writes(workbook, sheet):
        return {
            "set": lambda: sheet.set("A1", 1.0),
            "set_cell": lambda: sheet.set_cell("A1", Cell(1.0)),
            "delete": lambda: sheet.delete("A1"),
            "delete_rows": lambda: sheet.delete_rows(0),
            "delete_cols": lambda: sheet.delete_cols(0),
            "add_sheet": lambda: workbook.add_sheet("Extra"),
        }

    def test_a_write_around_the_workspace_is_refused(self, trained_encoder, workload, tmp_path):
        references, __ = workload
        workspace = Workspace("t", AutoFormula(trained_encoder, AutoFormulaConfig()))
        workspace.add_workbooks([workbook.copy() for workbook in references[:2]])
        workspace.save(tmp_path)
        restored = Workspace.load(tmp_path, AutoFormula(trained_encoder, AutoFormulaConfig()))
        for holder in (workspace, restored):
            workbook = holder.workbooks()[0]
            sheet = next(iter(workbook))
            before = workbook_to_dict(workbook), sheet.version
            for name, write in self._writes(workbook, sheet).items():
                with pytest.raises(SealedError):
                    write()
            assert (workbook_to_dict(workbook), sheet.version) == before
            with pytest.raises(AttributeError):
                sheet.name = "renamed"
            with pytest.raises(AttributeError):
                workbook.name = "renamed.xlsx"

    def test_a_held_workbook_is_added_elsewhere_as_a_copy(self, trained_encoder, workload):
        references, cases = workload
        workbook = references[0].copy()
        first = Workspace("first", AutoFormula(trained_encoder, AutoFormulaConfig()))
        second = Workspace("second", AutoFormula(trained_encoder, AutoFormulaConfig()))
        first.add_workbook(workbook)
        with pytest.raises(ValueError, match="copy"):
            second.add_workbook(workbook)
        assert len(second) == 0
        second.add_workbook(workbook.copy())
        # Removed, the workbook is its caller's again: writable, addable.
        assert first.remove_workbook(workbook.name) is workbook
        sheet = next(iter(workbook))
        for name, write in self._writes(workbook, sheet).items():
            write()
        first.add_workbook(workbook)
        fresh = lambda: AutoFormula(trained_encoder, AutoFormulaConfig())  # noqa: E731
        assert_matches_fresh_fit(first, fresh, cases)
        assert_matches_fresh_fit(second, fresh, cases)


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
    reference = predictor._reference_sheets[predictor._sheet_ids[id(sheet)]]
    return (
        reference.sheet_row,
        predictor.sheet_index.vectors[reference.sheet_row].tobytes(),
        reference.formula_rows.tolist(),
        predictor.formula_index.vectors[reference.formula_rows].tobytes(),
    )


#: Run in a fresh interpreter: one edit of a served workbook, then which
#: of the modules the edit might import are loaded.
_FIRST_EDIT_SCRIPT = """
import sys
from repro import FormulaService
from repro.models import SheetEncoder
from repro.sheet import Workbook

workbook = Workbook("book.xlsx")
sheet = workbook.add_sheet("Data")
for row in range(6):
    sheet.set((row, 0), float(row))
sheet.set((6, 0), formula="=SUM(A1:A6)")
workspace = FormulaService(SheetEncoder()).create_workspace("w", workbooks=[workbook])
loaded = "numpy.ma" in sys.modules
workspace.edit_cell("book.xlsx", "Data", "A1", value=7.0)
print(loaded, "numpy.ma" in sys.modules)
"""


def test_a_first_edit_imports_no_numpy_ma():
    """An edit checks the index positions it overwrites for repeats by
    sorting them: ``np.unique``'s first call imports ``numpy.ma`` (~10 ms),
    which a server's first edit would pay."""
    import repro

    result = subprocess.run(
        [sys.executable, "-c", _FIRST_EDIT_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]


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
        assert stats["changed"] == 0
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
        assert _reindex_counts(workspace) == {"same": 0, "changed": 1}
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
        self, trained_encoder, workload, tmp_path, monkeypatch
    ):
        """``=1+1+…`` with 3 001 terms used to parse into a tree 3 000 levels
        high, and the edit's recalculation then raised RecursionError.  The
        refused text is parsed once: the re-index reads the engine's refusal."""
        reference_workbooks, cases = workload
        workspace = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        sheet = workspace.workbooks()[3].get_sheet(self.SHEET)
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "B21", value=1.0)  # builds the engine
        tall = "=1" + "+1" * 3000
        parsed = []

        class CountingParser(parser._Parser):
            def __init__(self, source):
                parsed.append(source)
                super().__init__(source)

        monkeypatch.setattr(parser, "_Parser", CountingParser)
        # This thread's CPU time: neither a stalled box nor an idle BLAS
        # thread spinning beside it counts (≈ 4 ms, as an ordinary edit's 3).
        started = time.thread_time()
        report = workspace.edit_cell(self.WORKBOOK, self.SHEET, "B20", formula=tall)
        assert time.thread_time() - started < 0.010
        monkeypatch.undo()
        assert parsed.count(tall) == 1
        assert report.errored >= 1 and sheet.get("B20").value == "#NAME?"  # and its dependents
        self._assert_parity(workspace, trained_encoder, cases, tmp_path)

    @pytest.mark.parametrize(
        "cell, formula, expected",
        [
            ("E1", "=MATCH(5,A1:A100000,0)", "#VALUE!"),
            ("E1", '=SUMIF(A1:A100000,">2")', 30.0),
            ("E1", "=VLOOKUP(5,A1:B1048576,2)", "#VALUE!"),
            ("E1", "=VLOOKUP(9,A1:B1048576,2)", 10.0),
            # No function's argument (D1 holds 1.0).
            ("AA1", "=SUM(IF(TRUE,A1:Z20000))", 106.0),
            ("A7", "=IF(TRUE,B1:XFD1048576)", "#VALUE!"),
            ("A7", "=SUM(IF(TRUE,B1:XFD1048576))", 76.0),
        ],
    )
    def test_a_lookup_over_a_whole_column_is_an_edit_of_a_few_ms(
        self, trained_encoder, cell, formula, expected
    ):
        """A range is read over the sheet's used extent, wherever it stands:
        on a five-row sheet a lookup's range used to read every address
        (≈ 0.3 s for 100 000 rows), and so did a range in an ``IF`` arm
        (0.3–0.55 s for ``A1:Z20000``)."""
        workbook = Workbook("grid.xlsx")
        sheet = workbook.add_sheet("s")
        for row in range(5):
            for col in range(3):
                sheet.set((row, col), float(3 * row + col))
        workspace = self._workspace(trained_encoder, [workbook])
        workspace.edit_cell("grid.xlsx", "s", "D1", value=1.0)  # builds the engine
        started = time.thread_time()
        workspace.edit_cell("grid.xlsx", "s", cell, formula=formula)
        assert time.thread_time() - started < 0.010
        assert workspace.workbooks()[0].get_sheet("s").get(cell).value == expected

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
        regions = workspace.predictor._reference_sheets[
            workspace.predictor._sheet_ids[id(sibling)]
        ].regions
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "B12", value=1.5)
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "B20", formula="=B19*2")
        assert _owned_rows(workspace.predictor, sibling) == before
        assert workspace.predictor._reference_sheets[
            workspace.predictor._sheet_ids[id(sibling)]
        ].regions is regions
        self._assert_parity(workspace, trained_encoder, cases, tmp_path)

    def test_restored_workspace_edited_before_its_first_serve(
        self, trained_encoder, workload, tmp_path
    ):
        reference_workbooks, cases = workload
        live = self._workspace(trained_encoder, reference_workbooks, tmp_path)
        restored = Workspace.load(tmp_path, AutoFormula(trained_encoder, AutoFormulaConfig()))
        for workspace in (live, restored):
            workspace.edit_cell(self.WORKBOOK, self.SHEET, "A34", value=123456.0)
        # A value edit leaves a restored sheet's S3 block unbuilt: its first
        # serve builds it from the edited content.
        assert all(
            reference.regions is None
            for reference in filter(None, restored.predictor._reference_sheets)
        )
        assert_responses_match(self._serve(live, cases), self._serve(restored, cases))
        assert_matches_fresh_fit(
            restored, lambda: AutoFormula(trained_encoder, AutoFormulaConfig()), cases
        )

    def test_edit_inside_a_parameter_window_refreshes_the_reference_store(
        self, trained_encoder, workload, tmp_path
    ):
        """S3 reads the reference side from the sheet's region block, which
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
        stored = reference.regions.rows[plan.slots[0]].tobytes()
        # A34 sits in the window of the parameter cell A44 (the range's end).
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "A34", value=123456.0)
        fresh = AutoFormula(trained_encoder, AutoFormulaConfig())
        assert_matches_fresh_fit(workspace, lambda: fresh, cases)

        # The same through the block itself: the plan and its slots stayed,
        # the vectors behind them are the fresh fit's.
        assert reference.plans[local] is plan
        assert reference.regions.rows[plan.slots[0]].tobytes() != stored
        fresh_reference = fresh._reference_sheets[fresh._sheet_ids[id(sheet)]]
        fresh_plan = fresh._adaptation_plan(fresh_reference, local, fresh_reference.regions)
        assert fresh_plan.cells.tolist() == plan.cells.tolist()
        assert (
            reference.regions.rows[plan.slots[0]].tobytes()
            == fresh_reference.regions.rows[fresh_plan.slots[0]].tobytes()
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


class TestAdapters:
    def test_evaluate_matches_runner(self, trained_encoder, workload):
        references, cases = workload
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("eval", workbooks=_copies(references))
        run = workspace.evaluate(cases, corpus_name="PGE")

        fresh = AutoFormula(trained_encoder, AutoFormulaConfig())
        expected = run_method_on_cases(fresh, references, cases, corpus_name="PGE")
        assert run.metrics == expected.metrics
        assert run.corpus_name == "PGE"

    def test_autofill_and_error_detection_adapters(self, trained_encoder, workload):
        references, cases = workload
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("ext", workbooks=_copies(references))

        suggestion = workspace.suggest_value(cases[0].target_sheet, cases[0].target_cell)
        assert suggestion is None or suggestion.confidence >= 0.0
        anomalies = workspace.audit_sheet(references[0][references[0].sheet_names[0]])
        assert isinstance(anomalies, list)

    def test_extensions_follow_the_corpus(self, trained_encoder, workload):
        """Both read the workspace's own indexes: a family sibling added is
        cited at once, and removed workbooks are never cited again."""
        references, __ = workload
        rng = np.random.default_rng(42)
        template = SurveyTemplate(7, rng)
        sibling, audited = template.instantiate(rng, 0), template.instantiate(rng, 1)
        target = audited.sheets[1].copy()
        for address, cell in target.formula_cells():
            if "COUNTIF" in (cell.formula or ""):
                target.set(address, formula="=SUM(A1:A2)", style=cell.style)
                corrupted = address
                break
        header = CellAddress(5, 2)
        target.set(header, value=None)

        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("ext", workbooks=_copies(references))
        workspace.add_workbooks([sibling])
        anomalies = workspace.audit_sheet(target)
        assert any(
            anomaly.cell == corrupted and anomaly.reference_sheet.startswith(f"{sibling.name}/")
            for anomaly in anomalies
        )
        suggestion = workspace.suggest_value(target, header)
        assert suggestion is not None
        cited = {sibling.name, suggestion.reference_sheet.split("/")[0]}

        for name in cited:
            workspace.remove_workbook(name)
        suggestion = workspace.suggest_value(target, header)
        citations = [anomaly.reference_sheet for anomaly in workspace.audit_sheet(target)]
        if suggestion is not None:
            citations.append(suggestion.reference_sheet)
        assert citations and not {citation.split("/")[0] for citation in citations} & cited

    def test_an_edit_leaves_the_extensions_nothing_to_refit(
        self, trained_encoder, workload, monkeypatch
    ):
        """After an edit, each call embeds at most the sheet it is asked
        about (S1's query) and writes nothing: the predictor's exported
        state is byte-equal before and after."""
        references, cases = workload
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("ext", workbooks=_copies(references))
        workbook = references[0]
        sheet = workbook[workbook.sheet_names[0]]
        workspace.edit_cell(workbook.name, sheet.name, "Z1", value=1.0)
        before = _exported_state(workspace.predictor)

        calls = []
        embed_sheet = SheetEncoder.embed_sheet
        monkeypatch.setattr(
            SheetEncoder,
            "embed_sheet",
            lambda encoder, *args, **kwargs: calls.append(1) or embed_sheet(encoder, *args, **kwargs),
        )
        workspace.suggest_value(cases[0].target_sheet, cases[0].target_cell)
        assert len(calls) <= 1
        calls.clear()
        workspace.audit_sheet(sheet)
        assert len(calls) <= 1
        assert _exported_state(workspace.predictor) == before
