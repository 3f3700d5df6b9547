"""Workload-simulation property suite: the serving layer's invariants.

Drives the deterministic workload generator (``repro.testing``) against
workspaces and asserts the guarantees the service layer documents:
replay determinism, mutated-corpus/fresh-fit parity,
tombstone accounting after every mutation, live == fresh fit == restored
after edit streams (which leave no tombstones and move no workbook),
incremental == full-pass recalculation under edit streams, and
response-provenance consistency.
"""

import pytest

from repro import AutoFormula, AutoFormulaConfig, RecommendationRequest, Workspace
from repro.testing import (
    WorkloadConfig,
    assert_matches_fresh_fit,
    assert_no_tombstones,
    assert_response_wellformed,
    assert_responses_match,
    assert_tombstone_accounting,
    generate_workload,
    replay_workload,
)

#: The simulator seeds the acceptance invariants are verified across.
SIMULATOR_SEEDS = (11, 29, 47)

#: Small on purpose: the whole churn replays in a test.
SMALL_WORKLOAD = WorkloadConfig(
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

#: Edit-heavy variant: every acceptance seed draws several ``edit`` ops
#: followed by serving, so the edit → incremental-recalc → re-recommend
#: loop is exercised end to end.
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


def _signature(workload):
    """A comparable, object-identity-free rendering of an op stream."""
    return [
        (
            op.step,
            op.tenant,
            op.kind,
            op.workbook.name if op.workbook is not None else op.workbook_name,
            tuple(
                (case.sheet_name, case.target_cell.to_a1(), case.ground_truth)
                for case in op.cases
            ),
        )
        for op in workload.ops
    ]


class TestWorkloadDeterminism:
    def test_same_seed_same_stream(self):
        assert _signature(generate_workload(123, SMALL_WORKLOAD)) == _signature(
            generate_workload(123, SMALL_WORKLOAD)
        )

    def test_different_seeds_differ(self):
        signatures = {
            tuple(map(str, _signature(generate_workload(seed, SMALL_WORKLOAD))))
            for seed in range(4)
        }
        assert len(signatures) > 1

    def test_ops_are_always_applicable(self):
        # Longer stream, several tenants: adds never duplicate, removes
        # never miss, every case batch is non-empty unless the tenant
        # genuinely has no sampleable formulas.
        workload = generate_workload(5, WorkloadConfig(n_tenants=3, n_steps=40))
        indexed = {tenant: set() for tenant in workload.tenants}
        for op in workload.ops:
            if op.kind == "add":
                assert op.workbook.name not in indexed[op.tenant]
                indexed[op.tenant].add(op.workbook.name)
            elif op.kind == "remove":
                assert op.workbook_name in indexed[op.tenant]
                indexed[op.tenant].remove(op.workbook_name)
            elif op.kind == "edit":
                # Edits target an indexed workbook's existing numeric cell.
                assert op.workbook_name in indexed[op.tenant]
                pool = {wb.name: wb for wb in workload.pools[op.tenant]}
                sheet = pool[op.workbook_name].get_sheet(op.sheet_name)
                assert not sheet.get(op.address).has_formula
                assert isinstance(op.value, float)
            elif op.kind == "recommend":
                assert op.cases
            elif op.kind == "serve":
                # A burst is non-empty, its clusters are same-sheet, and
                # ``cases`` is exactly the flattened cluster stream.
                assert op.clusters
                for cluster in op.clusters:
                    assert len({(c.workbook_name, c.sheet_name) for c in cluster}) == 1
                assert op.cases == tuple(
                    case for cluster in op.clusters for case in cluster
                )

    def test_replay_is_deterministic(self, trained_encoder):
        workload = generate_workload(7, SMALL_WORKLOAD)

        def factory(tenant):
            return Workspace(tenant, AutoFormula(trained_encoder, AutoFormulaConfig()))

        first = replay_workload(workload, factory)
        second = replay_workload(workload, factory)
        for left, right in zip(first.outcomes, second.outcomes):
            assert_responses_match(
                left.responses, right.responses, context=f"step {left.step}"
            )
            assert left.evaluation == right.evaluation


class TestFreshFitParity:
    """After arbitrary churn, serving equals a fresh fit on the corpus."""

    def test_mutated_workspace_matches_fresh_fit(self, trained_encoder, make_config):
        workload = generate_workload(SIMULATOR_SEEDS[0], SMALL_WORKLOAD)
        config = make_config()

        def audit(op, workspace):
            if op.kind in ("add", "remove", "edit"):
                assert_tombstone_accounting(workspace.predictor)
                assert workspace.counters()["workspace.reindex_refit"] == 0

        replay = replay_workload(
            workload,
            lambda tenant: Workspace(tenant, AutoFormula(trained_encoder, config)),
            after_step=audit,
        )
        for tenant, workspace in replay.workspaces.items():
            if not len(workspace):
                continue
            assert_matches_fresh_fit(
                workspace,
                lambda: AutoFormula(trained_encoder, config),
                workload.cases[tenant],
                context=f"tenant={tenant}",
            )

    @pytest.mark.parametrize("make_config", [AutoFormulaConfig], ids=["exact"])
    @pytest.mark.parametrize("seed", SIMULATOR_SEEDS)
    def test_edit_stream_matches_fresh_fit_and_restore(
        self, trained_encoder, make_config, seed, tmp_path
    ):
        """Every edit re-indexes one sheet where it sits: the registry order
        only ever changes by an add or a remove, a stream without removes
        leaves no tombstone, and at the end live == fresh fit == a restore
        that replays the whole stream from the mutation log."""
        workload = generate_workload(seed, EDIT_WORKLOAD)
        config = make_config()
        removed_from = set()

        def workspace_for(tenant):
            workspace = Workspace(tenant, AutoFormula(trained_encoder, config))
            workspace.save(tmp_path / tenant)  # the whole stream lands in the log
            return workspace

        names_before = {}

        def audit(op, workspace):
            if op.kind in ("add", "remove", "edit"):
                assert_tombstone_accounting(workspace.predictor)
            if op.kind == "remove":
                removed_from.add(op.tenant)
            elif op.tenant not in removed_from:
                assert_no_tombstones(workspace.predictor)
            if op.kind == "edit":
                assert workspace.workbook_names == names_before[op.tenant]
                # Equal answers would hide an edit that fell back to a refit.
                assert workspace.counters()["workspace.reindex_refit"] == 0
            names_before[op.tenant] = workspace.workbook_names

        replay = replay_workload(workload, workspace_for, after_step=audit)
        assert replay.outcomes_of_kind("edit")
        for tenant, workspace in replay.workspaces.items():
            if not len(workspace):
                continue
            cases = workload.cases[tenant]
            assert_matches_fresh_fit(
                workspace,
                lambda: AutoFormula(trained_encoder, config),
                cases,
                context=f"edits seed={seed}",
            )
            restored = Workspace.load(tmp_path / tenant, AutoFormula(trained_encoder, config))
            assert restored.workbook_names == workspace.workbook_names
            requests = [
                RecommendationRequest(case.target_sheet, case.target_cell) for case in cases
            ]
            assert_responses_match(
                workspace.serve_batch(requests),
                restored.serve_batch(requests),
                context=f"restored seed={seed}",
            )


@pytest.mark.parametrize("seed", SIMULATOR_SEEDS)
class TestEditRecalcParity:
    """Edit streams: incremental recalc must equal a fresh full pass.

    The acceptance invariant of the formula engine, stated over the
    simulator: for every simulator seed × edit stream, the sheets served
    after engine-incremental recalculation are value-identical to a fresh
    full-pass evaluation of the final sheet state.
    """

    @staticmethod
    def _assert_full_pass_identical(sheet):
        from repro.formula import FormulaEngine

        fresh = sheet.copy()
        for __, cell in fresh.cells():
            if cell.has_formula:
                cell.value = None
        FormulaEngine(fresh).recalculate()
        for address, cell in sheet.cells():
            assert fresh.get(address).value == cell.value, (
                f"{sheet.name}!{address.to_a1()}: incremental {cell.value!r} "
                f"vs full pass {fresh.get(address).value!r}"
            )

    def test_incremental_recalc_matches_full_pass(self, trained_encoder, seed):
        workload = generate_workload(seed, EDIT_WORKLOAD)
        assert any(op.kind == "edit" for op in workload.ops), (
            "EDIT_WORKLOAD must draw edits for every acceptance seed"
        )
        replay = replay_workload(
            workload,
            lambda tenant: Workspace(tenant, AutoFormula(trained_encoder, AutoFormulaConfig())),
        )
        edits = [outcome for outcome in replay.outcomes if outcome.kind == "edit"]
        assert edits and all(outcome.recalc is not None for outcome in edits)
        for workspace in replay.workspaces.values():
            for workbook in workspace.workbooks():
                for sheet in workbook:
                    self._assert_full_pass_identical(sheet)


@pytest.mark.slow
class TestLongSimulationStress:
    """A longer multi-tenant run for the scheduled CI tier."""

    def test_long_churn_keeps_every_invariant(self, trained_encoder):
        workload = generate_workload(
            101,
            WorkloadConfig(
                n_tenants=2,
                n_steps=40,
                n_families=3,
                min_copies=2,
                max_copies=3,
                n_singletons=2,
                initial_workbooks=2,
                max_cases=6,
            ),
        )
        config = AutoFormulaConfig()

        def audit(op, workspace):
            if op.kind in ("add", "remove", "edit"):
                assert_tombstone_accounting(workspace.predictor)
                assert workspace.counters()["workspace.reindex_refit"] == 0

        replay = replay_workload(
            workload,
            lambda tenant: Workspace(tenant, AutoFormula(trained_encoder, config)),
            after_step=audit,
        )
        for tenant, workspace in replay.workspaces.items():
            # Provenance consistency on the final corpus state.
            for case in workload.cases[tenant]:
                response = workspace.recommend(
                    RecommendationRequest(case.target_sheet, case.target_cell)
                )
                assert_response_wellformed(response, workspace)
            if len(workspace):
                assert_matches_fresh_fit(
                    workspace,
                    lambda: AutoFormula(trained_encoder, config),
                    workload.cases[tenant],
                    context=f"stress tenant={tenant}",
                )


class TestInvariantCheckers:
    """The checkers themselves must catch what they claim to catch."""

    def test_tombstone_accounting_tracks_mutation(self, trained_encoder):
        workload = generate_workload(3, SMALL_WORKLOAD)
        tenant = workload.tenants[0]
        predictor = AutoFormula(trained_encoder, AutoFormulaConfig())
        pool = list(workload.pools[tenant])
        predictor.fit(pool[:2])
        assert_tombstone_accounting(predictor)
        predictor.add_workbooks(pool[2:3])
        assert_tombstone_accounting(predictor)
        predictor.remove_workbook(pool[0].name)
        assert_tombstone_accounting(predictor)

    def test_wellformedness_rejects_stale_provenance(self, trained_encoder):
        from repro.service import RecommendationRequest, RecommendationResponse

        workload = generate_workload(3, SMALL_WORKLOAD)
        tenant = workload.tenants[0]
        workspace = Workspace(tenant, AutoFormula(trained_encoder, AutoFormulaConfig()))
        workspace.add_workbooks(workload.pools[tenant][:2])
        case = workload.cases[tenant][0]
        forged = RecommendationResponse(
            request=RecommendationRequest(case.target_sheet, case.target_cell),
            workspace=tenant,
            method="Auto-Formula",
            formula="=SUM(A1:A2)",
            confidence=0.9,
            provenance={"reference_workbook": "ghost.xlsx"},
        )
        with pytest.raises(AssertionError, match="stale tombstoned hit"):
            assert_response_wellformed(forged, workspace)

    def test_responses_match_flags_divergence(self, trained_encoder):
        from repro.service import RecommendationRequest, RecommendationResponse

        workload = generate_workload(3, SMALL_WORKLOAD)
        tenant = workload.tenants[0]
        case = workload.cases[tenant][0]
        request = RecommendationRequest(case.target_sheet, case.target_cell)
        left = RecommendationResponse(
            request=request, workspace="a", method="m", formula="=A1", confidence=0.5
        )
        right = RecommendationResponse(
            request=request, workspace="b", method="m", formula="=A2", confidence=0.5
        )
        with pytest.raises(AssertionError, match="diverged"):
            assert_responses_match([left], [right])
