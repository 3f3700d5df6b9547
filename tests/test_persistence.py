"""Durable-workspace acceptance suite: snapshots, mutation log, restore parity.

The acceptance invariant is the existing fresh-fit-parity checker: a
workspace restored from snapshot (+ mutation-log tail) must answer
bit-identically to a fresh fit on the equivalent corpus.  The rest of
the suite covers the mechanics:
format-version enforcement, log replay at load, compaction, tombstone
state, memory-mapped loading, and the service facade's save/load round
trip.
"""

import datetime
import json
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AutoFormula, AutoFormulaConfig, FormulaService, Workspace
from repro.corpus import sample_test_cases
from repro.formula.errors import ALL_ERROR_VALUES, ErrorValue
from repro.persistence import (
    MutationLog,
    MutationLogError,
    SnapshotFormatError,
    read_manifest,
)
from repro.persistence.snapshot import SNAPSHOT_FORMAT_VERSION, mutation_log_path
from repro.service import RecommendationRequest
from repro.sheet import CellStyle, Workbook
from repro.sheet.io import workbook_to_dict
from repro.testing import (
    WorkloadConfig,
    assert_matches_fresh_fit,
    assert_responses_match,
    assert_tombstone_accounting,
    answer_of,
    generate_workload,
    replay_workload,
)

#: The same churn profile the simulation acceptance suite uses.
CHURN_WORKLOAD = WorkloadConfig(
    n_tenants=1,
    n_steps=8,
    n_families=2,
    min_copies=2,
    max_copies=3,
    n_singletons=1,
    initial_workbooks=2,
    max_recommend_batch=3,
    max_cases=5,
)

#: Edit-heavy variant so the log carries edit entries, not just add/remove.
EDIT_WORKLOAD = WorkloadConfig(
    n_tenants=1,
    n_steps=12,
    op_weights=(0.2, 0.1, 0.45, 0.1, 0.1, 0.05),
    n_families=2,
    min_copies=2,
    max_copies=3,
    n_singletons=1,
    initial_workbooks=2,
    max_recommend_batch=3,
    max_cases=5,
)

def _churned_workspace(
    trained_encoder,
    seed=11,
    workload_config=CHURN_WORKLOAD,
    make_config=AutoFormulaConfig,
    **config_overrides,
):
    """One mutated workspace plus its workload's evaluation cases."""
    workload = generate_workload(seed, workload_config)
    config = make_config(**config_overrides)
    replay = replay_workload(
        workload,
        lambda tenant: Workspace(tenant, AutoFormula(trained_encoder, config)),
    )
    ((tenant, workspace),) = replay.workspaces.items()
    return workspace, workload.cases[tenant], config


# ---------------------------------------------------------- restore parity


def _with_corpus_cases(workspace, cases):
    """``cases`` and up to ten formulas a sheet of the workspace's own
    corpus, asked back: S3 then cites most formulas of the corpus."""
    return list(cases) + sample_test_cases("corpus", workspace.workbooks())


class TestRestoreParity:
    """The acceptance criterion: restored == fresh fit, bit for bit, under
    every granularity.  ``assert_matches_fresh_fit`` serves the cases before
    it compares rows, so the restored sheets' S3 blocks it compares are the
    ones their first serve built.  Under ``coarse_only``, whose forward
    rounds a row differently in another batch (a one-cell batch rounds
    every row differently), a block filled formula by formula differs from
    the fit's."""

    @pytest.fixture(
        params=["both", "coarse_only", "fine_only"],
        ids=["exact", "exact-coarse_only", "exact-fine_only"],
    )
    def make_config(self, request):
        """The exact index's config at each granularity (``both`` is the
        default)."""
        return partial(AutoFormulaConfig, granularity=request.param)

    def test_snapshot_restore_matches_fresh_fit(self, trained_encoder, make_config, tmp_path):
        workspace, cases, config = _churned_workspace(trained_encoder, make_config=make_config)
        workspace.save(tmp_path / "snap")
        restored = Workspace.load(tmp_path / "snap", AutoFormula(trained_encoder, config))
        assert restored.workbook_names == workspace.workbook_names
        assert_matches_fresh_fit(
            restored,
            lambda: AutoFormula(trained_encoder, config),
            _with_corpus_cases(restored, cases),
            context="restored",
        )
        assert_tombstone_accounting(restored.predictor)

    def test_snapshot_plus_log_tail_matches_fresh_fit(
        self, trained_encoder, make_config, tmp_path
    ):
        workspace, cases, config = _churned_workspace(
            trained_encoder, seed=29, workload_config=EDIT_WORKLOAD, make_config=make_config
        )
        directory = tmp_path / "snap"
        workspace.save(directory)
        # Post-snapshot mutations of every kind land in the log ...
        removed = workspace.remove_workbook(workspace.workbook_names[0])
        workspace.add_workbook(removed)
        target = workspace.workbooks()[-1]
        sheet = target.sheets[0]
        address = next(
            addr
            for addr, cell in sheet.cells()
            if cell.formula is None and isinstance(cell.value, float)
        )
        workspace.edit_cell(target.name, sheet.name, address, value=1234.5)
        log = MutationLog(mutation_log_path(directory))
        assert [entry["op"] for entry in log.read()] == ["remove", "add", "edit"]
        # ... and restore = snapshot + log replay is still a fresh fit.
        restored = Workspace.load(directory, AutoFormula(trained_encoder, config))
        assert_matches_fresh_fit(
            restored,
            lambda: AutoFormula(trained_encoder, config),
            _with_corpus_cases(restored, cases),
            context="snapshot+log",
        )
        assert restored.workbook_names == workspace.workbook_names


class TestEditValues:
    """An edit's value means what it means in a workbook payload, so the
    live workspace and one restored from its snapshot or log agree."""

    @staticmethod
    def _workspace(trained_encoder) -> Workspace:
        workbook = Workbook(name="wb")
        sheet = workbook.add_sheet("Data")
        sheet.set("A1", 1.0)
        sheet.set("A2", formula="=A1+1")
        sheet.set("A3", formula="=SUM(A1:A2)")
        workspace = Workspace("values", AutoFormula(trained_encoder, AutoFormulaConfig()))
        workspace.add_workbooks([workbook])
        return workspace

    @staticmethod
    def _cells(workspace):
        return [
            (workbook.name, sheet.name, address, type(cell.value), cell.value, cell.formula)
            for workbook in workspace.workbooks()
            for sheet in workbook
            for address, cell in sheet.cells()
        ]

    def test_an_error_code_restores_as_it_reads_live(self, trained_encoder, tmp_path):
        for through_log in (False, True):
            workspace = self._workspace(trained_encoder)
            directory = tmp_path / f"log-{through_log}"
            if through_log:
                workspace.save(directory)
            workspace.edit_cell("wb", "Data", "A1", value="#DIV/0!")
            if not through_log:
                workspace.save(directory)
            sheet = workspace.workbooks()[0].get_sheet("Data")
            assert type(sheet.get("A1").value) is ErrorValue
            assert sheet.get("A2").value == sheet.get("A3").value == "#DIV/0!"
            restored = Workspace.load(directory, AutoFormula(trained_encoder, AutoFormulaConfig()))
            assert self._cells(restored) == self._cells(workspace), through_log

    def test_text_that_spells_an_error_code_restores_as_text(self, trained_encoder, tmp_path):
        """A formula can compute text that spells an error code: it is the
        text, not the error, live and restored from the snapshot or the
        log (the snapshot used to restore it as the error)."""
        for through_log in (False, True):
            workspace = self._workspace(trained_encoder)
            directory = tmp_path / f"log-{through_log}"
            if through_log:
                workspace.save(directory)
            workspace.edit_cell("wb", "Data", "A2", value=1)
            workspace.edit_cell("wb", "Data", "A1", formula='=IFERROR(("#VALUE!"),A2)')
            workspace.edit_cell("wb", "Data", "A2", value=1)
            if not through_log:
                workspace.save(directory)
            value = workspace.workbooks()[0].get_sheet("Data").get("A1").value
            assert (type(value), value) == (str, "#VALUE!")
            restored = Workspace.load(directory, AutoFormula(trained_encoder, AutoFormulaConfig()))
            assert self._cells(restored) == self._cells(workspace), through_log

    def test_a_reference_that_names_no_cell_edits_saves_and_loads(
        self, trained_encoder, tmp_path
    ):
        """Row 0 and a column past XFD are syntax errors (``#NAME?``), never
        an ``AddressError`` past the re-index's parse guard: the edit lands,
        and the snapshot and the log restore it as it reads live."""
        for formula in ("=A0", "=SUM(A0:A1)", "=XFE1+1"):
            for through_log in (False, True):
                workspace = self._workspace(trained_encoder)
                directory = tmp_path / f"{formula.strip('=():+')}-{through_log}"
                if through_log:
                    workspace.save(directory)
                workspace.edit_cell("wb", "Data", "A2", formula=formula)
                if not through_log:
                    workspace.save(directory)
                sheet = workspace.workbooks()[0].get_sheet("Data")
                assert sheet.get("A2").value == sheet.get("A3").value == "#NAME?"
                restored = Workspace.load(
                    directory, AutoFormula(trained_encoder, AutoFormulaConfig())
                )
                assert self._cells(restored) == self._cells(workspace), (formula, through_log)
                request = RecommendationRequest(sheet.copy(), "A2")
                assert answer_of(restored.recommend(request)) == answer_of(
                    workspace.recommend(request)
                )

    def test_a_datetime_restores_as_it_reads_live(self, trained_encoder, tmp_path):
        """A date keeps its time of day through the snapshot and the log;
        read as a date, its ISO text made ``load`` refuse the snapshot and
        the replay refuse the edit."""
        moment = datetime.datetime(2024, 3, 1, 9, 30)
        for through_log in (False, True):
            workspace = self._workspace(trained_encoder)
            directory = tmp_path / f"log-{through_log}"
            if through_log:
                workspace.save(directory)
            workspace.edit_cell("wb", "Data", "B1", value=moment)
            workspace.edit_cell("wb", "Data", "B2", value=datetime.date(2024, 3, 1))
            if not through_log:
                workspace.save(directory)
            sheet = workspace.workbooks()[0].get_sheet("Data")
            value = sheet.get("B1").value
            assert (type(value), value) == (datetime.datetime, moment)
            assert type(sheet.get("B2").value) is datetime.date
            restored = Workspace.load(directory, AutoFormula(trained_encoder, AutoFormulaConfig()))
            assert self._cells(restored) == self._cells(workspace), through_log

    def test_a_value_no_cell_can_hold_is_refused_before_the_edit(self, trained_encoder):
        workspace = self._workspace(trained_encoder)
        sheet = workspace.workbooks()[0].get_sheet("Data")
        before, version = self._cells(workspace), sheet.version
        for value in (10**400, -(10**400), [1, 2], {"a": 1}):
            with pytest.raises(ValueError, match="cell value"):
                workspace.edit_cell("wb", "Data", "A1", value=value)
        assert self._cells(workspace) == before and sheet.version == version
        workspace.edit_cell("wb", "Data", "A1", value=10**300)
        assert sheet.get("A2").value == 1e300


_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**300, -(10**308), 0.0, -0.0, 1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.sampled_from(sorted(ALL_ERROR_VALUES)),  # text that spells a code
    st.sampled_from(sorted(ALL_ERROR_VALUES)).map(ErrorValue),
    st.dates(),
    st.datetimes(),
)

_styles = st.builds(
    CellStyle,
    background_color=st.none() | st.from_regex(r"#[0-9A-Fa-f]{6}", fullmatch=True),
    bold=st.booleans() | st.sampled_from([0, 1]),
    font_size=st.integers(0, 10**300) | st.floats(0, 1e300),
    border_top=st.booleans(),
)


@st.composite
def _workbooks(draw):
    """A workbook built only through public constructors and writers."""
    workbook = Workbook("drawn.xlsx", last_modified=draw(st.floats(0, 2e9)))
    for name in draw(st.lists(st.sampled_from(["A", "B b", "Ç"]), min_size=1, unique=True)):
        sheet = workbook.add_sheet(name)
        cells = st.tuples(st.integers(0, 12), st.integers(0, 6))
        for address in draw(st.lists(cells, min_size=1, max_size=12, unique=True)):
            formula = draw(st.sampled_from([None, None, "=A1+1", "=SUM(A1:B3)"]))
            sheet.set(address, draw(_values), formula, draw(st.none() | _styles))
    return workbook


class TestWhatAWorkspaceAcceptsRoundTrips:
    @settings(max_examples=20, deadline=None)
    @given(workbook=_workbooks())
    def test_save_and_load_give_back_the_workbook(self, trained_encoder, workbook):
        """Through the snapshot and through the log alike; compared as JSON
        text, which tells 1 from 1.0 and 0.0 from -0.0."""
        expected = json.dumps(workbook_to_dict(workbook))
        with tempfile.TemporaryDirectory() as directory:
            for through_log in (False, True):
                workspace = Workspace("w", AutoFormula(trained_encoder, AutoFormulaConfig()))
                if through_log:
                    workspace.save(directory)
                workspace.add_workbook(workbook.copy())
                if not through_log:
                    workspace.save(directory)
                restored = Workspace.load(
                    directory, AutoFormula(trained_encoder, AutoFormulaConfig())
                )
                [again] = restored.workbooks()
                assert json.dumps(workbook_to_dict(again)) == expected, through_log


class TestOlderSnapshots:
    """Snapshots written by earlier builds of format version 1 still load."""

    @pytest.mark.parametrize("mmap", (True, False))
    def test_quantized_blocks_and_scoring_keys_are_ignored(
        self, trained_encoder, mmap, tmp_path
    ):
        """The layout a build with an int8 scan store left on disk: six
        extra ``.npy`` blocks listed in the manifest and two scoring keys
        in the predictor state.  The float32 store is all a restore needs."""
        workspace, cases, config = _churned_workspace(trained_encoder)
        directory = tmp_path / "snap"
        workspace.save(directory)
        manifest = read_manifest(directory)
        for prefix in ("sheet", "formula"):
            n, d = np.load(directory / "arrays" / f"{prefix}_matrix.npy").shape
            for name, block in (
                ("codes", np.ones((n, d), dtype=np.int8)),
                ("scales", np.ones(n, dtype=np.float32)),
                ("recon_errors", np.ones(n, dtype=np.float32)),
            ):
                np.save(directory / "arrays" / f"{prefix}_{name}.npy", block)
                manifest["arrays"].append(f"{prefix}_{name}")
        manifest["predictor_state"].update(scoring_mode="two_tier", storage_dtype="int8")
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION == 1
        (directory / "manifest.json").write_text(json.dumps(manifest))
        restored = Workspace.load(
            directory, AutoFormula(trained_encoder, config), mmap=mmap
        )
        assert_matches_fresh_fit(
            restored,
            lambda: AutoFormula(trained_encoder, config),
            cases,
            context=f"older snapshot mmap={mmap}",
        )
        assert_tombstone_accounting(restored.predictor)

    @pytest.mark.parametrize("mmap", (True, False))
    def test_a_never_indexed_workspace_round_trips(self, trained_encoder, mmap, tmp_path):
        config = AutoFormulaConfig()
        Workspace("empty", AutoFormula(trained_encoder, config)).save(tmp_path / "snap")
        restored = Workspace.load(tmp_path / "snap", AutoFormula(trained_encoder, config), mmap=mmap)
        assert restored.name == "empty" and len(restored) == 0
        assert restored.predictor.n_reference_sheets == 0
        assert restored.memory_stats()["total_bytes"] == 0
        workspace, cases, __ = _churned_workspace(trained_encoder)
        restored.add_workbooks([workbook.copy() for workbook in workspace.workbooks()])
        assert_matches_fresh_fit(
            restored,
            lambda: AutoFormula(trained_encoder, config),
            cases,
            context=f"empty snapshot, then an add, mmap={mmap}",
        )

    def test_an_older_builds_empty_snapshot_loads(self, trained_encoder, tmp_path):
        """A workspace that never indexed a workbook was saved by an older
        build with ``fitted: false`` in the manifest and the predictor
        state and no array block; it loads as an empty workspace that an
        add turns into a fresh fit's."""
        config = AutoFormulaConfig()
        directory = tmp_path / "snap"
        Workspace("empty", AutoFormula(trained_encoder, config)).save(directory)
        manifest = read_manifest(directory)
        assert manifest["fitted"] is manifest["predictor_state"]["fitted"] is True
        for name in manifest["arrays"]:
            (directory / "arrays" / f"{name}.npy").unlink()
        manifest.update(fitted=False, arrays=[])
        manifest["predictor_state"]["fitted"] = False
        (directory / "manifest.json").write_text(json.dumps(manifest))
        restored = Workspace.load(directory, AutoFormula(trained_encoder, config))
        assert len(restored) == 0 and restored.predictor.n_reference_sheets == 0
        assert_tombstone_accounting(restored.predictor)
        workspace, cases, __ = _churned_workspace(trained_encoder)
        restored.add_workbooks([workbook.copy() for workbook in workspace.workbooks()])
        assert_matches_fresh_fit(
            restored,
            lambda: AutoFormula(trained_encoder, config),
            cases,
            context="an older build's empty snapshot, then an add",
        )

    @staticmethod
    def _saved_with_index_kind(trained_encoder, kind, directory):
        """A churned workspace saved to ``directory``, its manifest then
        rewritten to hold ``kind`` as both index kinds (what a build that
        could pick an index wrote); and its config and cases."""
        workspace, cases, config = _churned_workspace(trained_encoder)
        workspace.save(directory)
        manifest = read_manifest(directory)
        assert manifest["predictor_state"]["sheet_index_kind"] == "exact"
        assert manifest["predictor_state"]["formula_index_kind"] == "exact"
        manifest["predictor_state"].update(sheet_index_kind=kind, formula_index_kind=kind)
        (directory / "manifest.json").write_text(json.dumps(manifest))
        return config, cases

    @pytest.mark.parametrize("alias", ("flat", " Exact "))
    def test_index_kind_alias_restores_under_canonical_name(
        self, trained_encoder, alias, tmp_path
    ):
        """Every spelling of the exact kind an older build wrote restores
        to the answers of a fresh fit."""
        config, cases = self._saved_with_index_kind(trained_encoder, alias, tmp_path / "snap")
        assert_matches_fresh_fit(
            Workspace.load(tmp_path / "snap", AutoFormula(trained_encoder, config)),
            lambda: AutoFormula(trained_encoder, config),
            cases,
            context=f"manifest holds {alias!r}",
        )

    @pytest.mark.parametrize("kind", ("ivf", "lsh"))
    def test_approximate_index_kind_is_refused_by_name(self, trained_encoder, kind, tmp_path):
        """Vectors an approximate index searched would load, but this build
        would not give that predictor's answers."""
        config, __ = self._saved_with_index_kind(trained_encoder, kind, tmp_path / "snap")
        with pytest.raises(ValueError, match=f"'{kind}'"):
            Workspace.load(tmp_path / "snap", AutoFormula(trained_encoder, config))

    @pytest.mark.parametrize("name", ("sheet", "formula"))
    def test_a_store_size_its_matrix_does_not_have_is_refused(
        self, trained_encoder, name, tmp_path
    ):
        """The manifest's store sizes are written from the index matrices
        and checked against the restored ones."""
        workspace, __, config = _churned_workspace(trained_encoder)
        directory = tmp_path / "snap"
        workspace.save(directory)
        manifest = read_manifest(directory)
        __, arrays = workspace.predictor.snapshot_state()
        assert manifest["predictor_state"][f"{name}_store_size"] == len(arrays[f"{name}_matrix"])
        manifest["predictor_state"][f"{name}_store_size"] += 1
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"{name}-index rows"):
            Workspace.load(directory, AutoFormula(trained_encoder, config))


# ------------------------------------------------------------ log mechanics


class TestMutationLog:
    def test_load_replays_the_log_tail_once(self, trained_encoder, tmp_path):
        workspace, cases, config = _churned_workspace(trained_encoder)
        directory = tmp_path / "snap"
        workspace.save(directory)
        removed = workspace.remove_workbook(workspace.workbook_names[-1])
        restored = Workspace.load(directory, AutoFormula(trained_encoder, config))
        # The tail is applied when load() returns, before any public call.
        assert removed.name not in restored._workbooks
        assert restored.counters()["persistence.log_replayed_total"] == 1
        assert workspace.counters()["persistence.log_replayed_total"] == 0
        response = restored.recommend(
            RecommendationRequest(cases[0].target_sheet, cases[0].target_cell)
        )
        assert response is not None
        # Replayed ops must not be re-appended to the log they came from;
        # the restored workspace's own mutations are.
        log = MutationLog(mutation_log_path(directory))
        assert len(log) == 1
        restored.remove_workbook(restored.workbook_names[-1])
        assert len(log) == 2

    def test_a_tail_that_cannot_be_replayed_fails_the_load(self, trained_encoder, tmp_path):
        workspace, __, config = _churned_workspace(trained_encoder)
        directory = tmp_path / "snap"
        workspace.save(directory)
        MutationLog(mutation_log_path(directory)).append(
            {"op": "remove", "workbook_name": "never-indexed"}
        )
        with pytest.raises(KeyError, match="never-indexed"):
            Workspace.load(directory, AutoFormula(trained_encoder, config))

    def test_registry_reads_replay_the_pending_log(self, trained_encoder, tmp_path):
        """A restored workspace must describe its current corpus — snapshot
        plus log tail — before anything has been served."""
        workspace, __, config = _churned_workspace(trained_encoder)
        directory = tmp_path / "snap"
        workspace.save(directory)
        removed = workspace.remove_workbook(workspace.workbook_names[0])
        for name in ("added-a", "added-b"):
            added = Workbook(name)
            sheet = added.add_sheet("S")
            sheet.set("A1", 1.0)
            sheet.set("A2", 2.0)
            sheet.set("A3", formula="=SUM(A1:A2)")
            workspace.add_workbook(added)

        def restore():
            restored = Workspace.load(directory, AutoFormula(trained_encoder, config))
            assert restored.counters()["persistence.log_replayed_total"] == 3
            return restored

        assert len(restore()) == len(workspace)
        assert removed.name not in restore()
        assert "added-b" in restore()
        assert restore().workbook_names == workspace.workbook_names
        assert [wb.name for wb in restore().workbooks()] == workspace.workbook_names
        assert (
            restore().memory_stats()["total_bytes"]
            == workspace.memory_stats()["total_bytes"]
        )

    def test_save_compacts_the_log(self, trained_encoder, tmp_path):
        workspace, __, config = _churned_workspace(trained_encoder)
        directory = tmp_path / "snap"
        workspace.save(directory)
        workspace.remove_workbook(workspace.workbook_names[0])
        log = MutationLog(mutation_log_path(directory))
        assert len(log) == 1
        workspace.save(directory)
        assert len(log) == 0
        # The compacted snapshot already contains the remove: a reload has
        # nothing to replay and agrees with the live workspace.
        restored = Workspace.load(directory, AutoFormula(trained_encoder, config))
        assert restored.counters()["persistence.log_replayed_total"] == 0
        assert restored.workbook_names == workspace.workbook_names

    def test_edit_values_survive_the_log_codec(self, tmp_path):
        import datetime

        from repro.persistence.log import edit_entry
        from repro.sheet.cell import Cell

        entry = json.loads(
            json.dumps(edit_entry("wb", "S", "B2", value=datetime.date(2024, 2, 29)))
        )
        assert Cell.from_dict(entry["cell"]).value == datetime.date(2024, 2, 29)
        formula_entry = edit_entry("wb", "S", "B2", formula="=SUM(A1:A3)")
        assert formula_entry["formula"] == "=SUM(A1:A3)"
        blank_entry = edit_entry("wb", "S", "B2", value="")
        assert blank_entry["cell"] == {"value": ""}

    def test_corrupt_log_raises_typed_error(self, tmp_path):
        path = tmp_path / "mutations.log"
        log = MutationLog(path)
        log.append({"op": "remove", "workbook_name": "wb"})
        with pytest.raises(MutationLogError):
            log.append({"op": "rename", "workbook_name": "wb"})
        # Future-version header.
        path.write_text('{"kind": "mutation-log", "format_version": 99}\n')
        with pytest.raises(MutationLogError, match="format_version"):
            log.read()
        # Garbage entry line.
        log.clear()
        with path.open("a") as handle:
            handle.write("not json\n")
        with pytest.raises(MutationLogError, match="line 2"):
            log.read()
        # Wrong file kind entirely.
        path.write_text('{"kind": "workspace"}\n')
        with pytest.raises(MutationLogError, match="not a mutation log"):
            log.read()


    def test_torn_tail_is_dropped_counted_and_cut_by_the_next_append(self, tmp_path):
        """A crash during ``append`` leaves a final line with no newline
        that does not decode; it was never acknowledged."""
        path = tmp_path / "mutations.log"
        log = MutationLog(path)
        log.append({"op": "remove", "workbook_name": "a"})
        log.append({"op": "remove", "workbook_name": "b"})
        whole = path.read_bytes()
        # Torn inside a multi-byte character, as ensure_ascii=False allows.
        path.write_bytes(whole + '{"op": "remove", "workbook_name": "caf\u00e9'.encode()[:-1])
        assert [entry["workbook_name"] for entry in log.read()] == ["a", "b"]
        assert log.torn_tails == 1
        # The next entry starts on the line boundary, not glued to the torn bytes.
        log.append({"op": "remove", "workbook_name": "c"})
        assert path.read_bytes().startswith(whole)
        assert [entry["workbook_name"] for entry in MutationLog(path).read()] == ["a", "b", "c"]
        assert MutationLog(path).torn_tails == 0

    def test_torn_header_starts_the_log_afresh(self, tmp_path):
        path = tmp_path / "mutations.log"
        path.write_text('{"kind": "mutation-l')
        log = MutationLog(path)
        assert log.read() == [] and log.torn_tails == 1
        log.append({"op": "remove", "workbook_name": "a"})
        assert len(MutationLog(path)) == 1

    def test_unterminated_entry_that_decodes_is_kept_and_terminated(self, tmp_path):
        path = tmp_path / "mutations.log"
        log = MutationLog(path)
        log.append({"op": "remove", "workbook_name": "a"})
        path.write_bytes(path.read_bytes()[:-1])
        assert len(log) == 1 and log.torn_tails == 0
        log.append({"op": "remove", "workbook_name": "b"})
        assert [entry["workbook_name"] for entry in log.read()] == ["a", "b"]

    def test_corrupt_line_before_the_last_still_raises(self, tmp_path):
        path = tmp_path / "mutations.log"
        log = MutationLog(path)
        log.append({"op": "remove", "workbook_name": "a"})
        with path.open("a") as handle:
            handle.write('{"op": "remove", "workbook_na\n{"op": "remove", "workbook_name": "c"}')
        with pytest.raises(MutationLogError, match="line 3"):
            log.read()
        # So does a final line that is garbage but was written whole.
        log.clear()
        with path.open("a") as handle:
            handle.write('{"op": "remove", "workbook_na\n')
        with pytest.raises(MutationLogError, match="line 2"):
            log.read()

    def test_line_separators_inside_a_cell_do_not_split_an_entry(self, tmp_path):
        # ensure_ascii=False writes U+2028 / U+0085 raw; only "\n" ends a line.
        log = MutationLog(tmp_path / "mutations.log")
        from repro.persistence.log import edit_entry

        log.append(edit_entry("wb", "S", "A1", value="two\u2028lines\x85here"))
        (entry,) = log.read()
        assert entry["cell"]["value"] == "two\u2028lines\x85here"

    def test_workspace_with_a_torn_log_tail_loads_and_reports_it(self, trained_encoder, tmp_path):
        workspace, cases, config = _churned_workspace(trained_encoder)
        directory = tmp_path / "snap"
        workspace.save(directory)
        names = workspace.workbook_names
        workspace.remove_workbook(names[0])
        workspace.remove_workbook(names[1])
        path = mutation_log_path(directory)
        with path.open("a") as handle:
            handle.write('{"op": "remove", "workbook_na')
        restored = Workspace.load(directory, AutoFormula(trained_encoder, config))
        assert restored.counters()["persistence.log_torn_tail_total"] == 1
        assert restored.counters()["persistence.log_replayed_total"] == 2
        assert restored.workbook_names == workspace.workbook_names
        # Mutations after the restore land behind the two whole entries.
        restored.remove_workbook(names[2])
        again = Workspace.load(directory, AutoFormula(trained_encoder, config))
        assert again.counters()["persistence.log_torn_tail_total"] == 0
        assert again.workbook_names == names[3:]
        assert workspace.counters()["persistence.log_torn_tail_total"] == 0

    def test_entries_are_built_only_for_an_attached_log(
        self, trained_encoder, tmp_path, monkeypatch
    ):
        """Nobody reads an entry without a log, and an ``add`` entry is the
        whole workbook as dicts."""
        from repro.persistence import log as log_module

        calls = []

        def counting(workbook):
            calls.append(workbook.name)
            return workbook_to_dict(workbook)

        workbook_to_dict = log_module.workbook_to_dict
        monkeypatch.setattr(log_module, "workbook_to_dict", counting)
        churned = _churned_workspace(trained_encoder)[0]
        corpus = [workbook.copy() for workbook in churned.workbooks()]
        service = FormulaService(trained_encoder)
        workspace = service.create_workspace("lazy", workbooks=corpus[:-2])
        workspace.edit_cell(corpus[0].name, corpus[0].sheets[0].name, "A1", value=1.0)
        assert calls == []
        directory = tmp_path / "snap"
        workspace.save(directory)
        workspace.add_workbooks(corpus[-2:])
        assert calls == [workbook.name for workbook in corpus[-2:]]
        # Replaying the log must not re-encode what it replays.
        restored = service.load_workspace(directory, name="restored")
        assert len(restored) == len(corpus)
        assert len(calls) == 2


# ------------------------------------------------------- snapshot mechanics


class TestSnapshotFormat:
    def test_manifest_version_is_enforced(self, trained_encoder, tmp_path):
        workspace, __, config = _churned_workspace(trained_encoder)
        directory = tmp_path / "snap"
        workspace.save(directory)
        manifest = read_manifest(directory)
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotFormatError, match="format_version"):
            Workspace.load(directory, AutoFormula(trained_encoder, config))

    def test_missing_and_malformed_manifests_raise(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="no snapshot manifest"):
            read_manifest(tmp_path)
        (tmp_path / "manifest.json").write_text("{broken")
        with pytest.raises(SnapshotFormatError, match="unreadable"):
            read_manifest(tmp_path)

    def test_kind_mismatch_raises(self, trained_encoder, tmp_path):
        # No code writes this kind any more; a snapshot left on disk by an
        # older build must be refused by name, not misread as a workspace.
        (tmp_path / "manifest.json").write_text(
            json.dumps(
                {
                    "format_version": SNAPSHOT_FORMAT_VERSION,
                    "kind": "sharded_workspace",
                    "name": "old",
                    "n_shards": 2,
                }
            )
        )
        config = AutoFormulaConfig()
        with pytest.raises(SnapshotFormatError, match="'sharded_workspace'"):
            Workspace.load(tmp_path, AutoFormula(trained_encoder, config))
        service = FormulaService(trained_encoder, config)
        with pytest.raises(SnapshotFormatError, match="'sharded_workspace'"):
            service.load_workspace(tmp_path)
        assert "old" not in service

    def test_config_mismatch_raises(self, trained_encoder, tmp_path):
        workspace, __, config = _churned_workspace(trained_encoder)
        directory = tmp_path / "snap"
        workspace.save(directory)
        with pytest.raises(ValueError, match="granularity"):
            Workspace.load(
                directory, AutoFormula(trained_encoder, AutoFormulaConfig(granularity="coarse_only"))
            )

    def test_mmap_load_is_read_only_until_first_write(
        self, trained_encoder, tmp_path
    ):
        workspace, cases, config = _churned_workspace(trained_encoder)
        directory = tmp_path / "snap"
        workspace.save(directory)
        restored = Workspace.load(directory, AutoFormula(trained_encoder, config))
        matrix = restored.predictor.sheet_index._store.rows
        assert isinstance(matrix, np.memmap)
        assert not matrix.flags.writeable
        # Serving works off the map; mutation reallocates and still works.
        restored.recommend(
            RecommendationRequest(cases[0].target_sheet, cases[0].target_cell)
        )
        restored.remove_workbook(restored.workbook_names[0])
        assert_tombstone_accounting(restored.predictor)
        # Eager mode loads plain arrays.
        eager = Workspace.load(
            directory, AutoFormula(trained_encoder, config), mmap=False
        )
        assert not isinstance(eager.predictor.sheet_index._store.rows, np.memmap)


    def test_restored_keys_and_positions_are_python_ints(self, trained_encoder, tmp_path):
        """The key and position blocks are read block-wise from memory maps;
        what the indexes hand back as ``SearchResult.key`` must still be
        ``int`` / ``(int, int)``, also with tombstoned sheets in the
        snapshot and with a formula index that holds nothing."""
        workspace, cases, config = _churned_workspace(trained_encoder)
        plain = Workbook("no-formulas")
        sheet = plain.add_sheet("Values")
        for row in range(6):
            sheet.set((row, 0), float(row))
        workspace.add_workbook(plain)
        workspace.remove_workbook(workspace.workbook_names[0])
        live = workspace.predictor
        assert live.formula_index.n_tombstones and None in live._reference_sheets
        empty = Workspace("empty", AutoFormula(trained_encoder, config))
        empty.add_workbook(plain.copy())
        assert len(empty.predictor.formula_index) == 0
        for name, source in (("churned", workspace), ("empty", empty)):
            source.save(tmp_path / name)
            restored = Workspace.load(tmp_path / name, AutoFormula(trained_encoder, config)).predictor
            expected = source.predictor
            assert restored.sheet_index._keys == expected.sheet_index._keys
            assert restored.formula_index._keys == expected.formula_index._keys
            assert all(type(key) is int for key in restored.sheet_index._keys)
            assert all(
                type(key) is tuple and [type(part) for part in key] == [int, int]
                for key in restored.formula_index._keys
            )
            assert len(restored._reference_sheets) == len(expected._reference_sheets)
            for mine, theirs in zip(restored._reference_sheets, expected._reference_sheets):
                assert (mine is None) == (theirs is None)
                if mine is not None:
                    assert type(mine.sheet_row) is int and mine.sheet_row == theirs.sheet_row
                    assert mine.formula_rows.dtype == np.int64
                    assert np.array_equal(mine.formula_rows, theirs.formula_rows)
        response = Workspace.load(
            tmp_path / "churned", AutoFormula(trained_encoder, config)
        ).recommend(RecommendationRequest(cases[0].target_sheet, cases[0].target_cell))
        json.dumps(response.provenance)  # a NumPy integer in it would not encode


# ----------------------------------------------------------------- facade


class TestServiceFacade:
    def test_save_and_load_workspace_round_trip(self, trained_encoder, tmp_path):
        config = AutoFormulaConfig()
        service = FormulaService(trained_encoder, config)
        workload = generate_workload(11, CHURN_WORKLOAD)
        replay = replay_workload(
            workload, lambda tenant: service.create_workspace(tenant)
        )
        ((tenant, workspace),) = replay.workspaces.items()
        service.save_workspace(tenant, tmp_path / "snap")
        restored = service.load_workspace(tmp_path / "snap", name="reloaded")
        assert isinstance(restored, Workspace)
        assert service["reloaded"] is restored
        for case in workload.cases[tenant]:
            request = RecommendationRequest(case.target_sheet, case.target_cell)
            assert_responses_match(
                [workspace.recommend(request)],
                [restored.recommend(request)],
                context="facade reload",
            )

    def test_duplicate_name_rejected_on_load(self, trained_encoder, tmp_path):
        service = FormulaService(trained_encoder, AutoFormulaConfig())
        workspace = service.create_workspace("tenant")
        workbook = Workbook("wb")
        workbook.add_sheet("S").set("A1", 1.0)
        workspace.add_workbook(workbook)
        service.save_workspace("tenant", tmp_path / "snap")
        with pytest.raises(ValueError, match="already exists"):
            service.load_workspace(tmp_path / "snap")
