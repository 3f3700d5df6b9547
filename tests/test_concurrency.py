"""Concurrency smoke tests: serving under concurrent corpus mutation.

N threads hammer one workspace with mixed
recommend/mutate operations.  The suite asserts the serving layer's
concurrency contract: no operation ever raises, responses are always
well-formed, and once a removal has completed, no later-started serve
returns a recommendation grounded in the removed (tombstoned) workbook.
"""

import sys
import threading
from collections import Counter

import pytest

from repro import (
    AutoFormula,
    AutoFormulaConfig,
    CellAddress,
    RecommendationRequest,
    Workspace,
)
from repro.obs import Histogram
from repro.testing import WorkloadConfig, generate_workload

N_THREADS = 4
ROUNDS_PER_THREAD = 6

WORKLOAD = WorkloadConfig(
    n_tenants=1,
    n_steps=0,
    n_families=2,
    min_copies=2,
    max_copies=3,
    n_singletons=1,
    initial_workbooks=0,
    max_cases=4,
)


@pytest.fixture(scope="module")
def assets(trained_encoder):
    """A small corpus pool, its cases, and a predictor factory."""
    workload = generate_workload(17, WORKLOAD)
    tenant = workload.tenants[0]
    pool = list(workload.pools[tenant])
    cases = list(workload.cases[tenant])
    assert len(pool) >= 3 and cases
    config = AutoFormulaConfig()
    return pool, cases, (lambda: AutoFormula(trained_encoder, config))


def _hammer(workspace, pool, cases, churn_name):
    """Run serve threads against one mutator thread; return observations."""
    errors = []
    removed_event = threading.Event()
    post_removal_responses = []

    def server():
        try:
            for __ in range(ROUNDS_PER_THREAD):
                was_removed = removed_event.is_set()
                requests = [
                    RecommendationRequest(case.target_sheet, case.target_cell)
                    for case in cases
                ]
                responses = workspace.serve_batch(requests)
                for response in responses:
                    assert 0.0 <= response.confidence <= 1.0
                    assert (response.formula is None) == (
                        response.abstain_reason is not None
                    )
                if was_removed:
                    # Serve started strictly after the removal completed.
                    post_removal_responses.extend(responses)
        except BaseException as error:  # noqa: BLE001 - surfaced by the test
            errors.append(error)

    def mutator():
        try:
            # Churn a different workbook a few times, then permanently
            # remove `churn_name` and announce it.
            for __ in range(2):
                workspace.add_workbook(workspace.remove_workbook(pool[1].name))
            workspace.remove_workbook(churn_name)
            removed_event.set()
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=server) for __ in range(N_THREADS)]
    threads.append(threading.Thread(target=mutator))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "deadlocked thread"
    return errors, removed_event, post_removal_responses


def _assert_no_stale(post_removal_responses, churn_name, workspace):
    for response in post_removal_responses:
        if response.accepted:
            assert response.provenance.get("reference_workbook") != churn_name, (
                "serve started after removal still cites the tombstoned workbook"
            )
    # And a final, definitely-sequenced serve:
    assert churn_name not in workspace.workbook_names


class TestWorkspaceUnderConcurrency:
    def test_mixed_recommend_and_mutate_never_raises_or_goes_stale(self, assets):
        pool, cases, factory = assets
        workspace = Workspace("hammer", factory())
        workspace.add_workbooks([workbook.copy() for workbook in pool])
        churn_name = pool[0].name

        errors, removed_event, post = _hammer(workspace, pool, cases, churn_name)
        assert not errors, f"concurrent ops raised: {errors[:3]}"
        assert removed_event.is_set()
        _assert_no_stale(post, churn_name, workspace)

    def test_serving_still_consistent_after_concurrency(self, assets):
        pool, cases, factory = assets
        workspace = Workspace("after", factory())
        workspace.add_workbooks([workbook.copy() for workbook in pool])
        errors, __, ___ = _hammer(workspace, pool, cases, pool[0].name)
        assert not errors
        # The surviving corpus serves exactly like a fresh fit on it.
        from repro.testing import assert_matches_fresh_fit

        assert_matches_fresh_fit(workspace, factory, cases, context="post-hammer")


    def test_concurrent_serves_answer_identically(self, assets):
        pool, cases, factory = assets
        workspace = Workspace("parallel", factory())
        workspace.add_workbooks([workbook.copy() for workbook in pool])
        requests = [
            RecommendationRequest(case.target_sheet, case.target_cell)
            for case in cases
        ]
        reference = workspace.serve_batch(requests)
        collected = [None] * N_THREADS
        errors = []

        def serve(slot):
            try:
                collected[slot] = workspace.serve_batch(requests)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=serve, args=(slot,))
            for slot in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        from repro.testing import assert_responses_match

        for responses in collected:
            assert responses is not None
            assert_responses_match(reference, responses, context="concurrent serve")


    def test_racing_serves_over_one_cold_sheet_answer_as_serial_serves(self, assets):
        """Several workspaces over one encoder — what the server's executor
        runs side by side — ask overlapping cells of one *shared*, cold
        target sheet, so they race to build its reduced tensor and, in S3,
        its window-norm grid in the encoder's caches: every answer must
        equal the serial answer, and the entry they leave must equal one
        built alone."""
        pool, cases, factory = assets
        workspaces = [Workspace(f"store-{slot}", factory()) for slot in range(N_THREADS)]
        for workspace in workspaces:
            workspace.add_workbooks([workbook.copy() for workbook in pool])
        encoder = workspaces[0].predictor.encoder
        assert all(workspace.predictor.encoder is encoder for workspace in workspaces)
        case = cases[0]
        cells = [case.target_cell] + [
            CellAddress(max(case.target_cell.row + row, 0), max(case.target_cell.col + col, 0))
            for row, col in ((-1, 0), (1, 0), (0, -1), (0, 1), (-2, 0), (2, 1), (3, 0))
        ]
        # Serial answers come from a copy: the shared sheet stays cold.
        serial_sheet = case.target_sheet.copy()
        serial = workspaces[0].serve_batch(
            [RecommendationRequest(serial_sheet, cell) for cell in cells]
        )
        assert any(response.accepted for response in serial)

        n_threads = 3 * N_THREADS  # more workers than cores, three a workspace
        shared = case.target_sheet.copy()
        collected = [None] * n_threads
        errors = []
        gate = threading.Barrier(n_threads)

        def serve(slot):
            try:
                # Overlapping windows over the cells, a different one per thread.
                picks = [(slot + step) % len(cells) for step in range(5)]
                gate.wait(timeout=30)
                responses = workspaces[slot % N_THREADS].serve_batch(
                    [RecommendationRequest(shared, cells[pick]) for pick in picks]
                )
                collected[slot] = (picks, responses)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=serve, args=(slot,)) for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "deadlocked thread"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, f"concurrent serves raised: {errors[:3]}"
        from repro.testing import assert_responses_match

        for picks, responses in collected:
            assert_responses_match(
                [serial[pick] for pick in picks], responses, context="racing fills"
            )

        # What the racers cached is what one caller builds on its own.
        raced = encoder._reduced_cache.get(shared)
        assert raced is not None
        alone = type(encoder)(encoder.config, encoder.coarse_model, encoder.fine_model)
        built = alone._reduced_entry(shared)
        assert raced.tensor.tobytes() == built.tensor.tobytes()
        assert raced.window_sq_norms().tobytes() == built.window_sq_norms().tobytes()

    def test_racing_first_serves_of_a_restored_workspace_build_the_fit_blocks(
        self, assets, trained_encoder, tmp_path
    ):
        """A restored sheet's S3 block is built on its first use.  Racing
        first serves of the restored workspace take turns on its lock: the
        first builds the block and the rest read it.  Under the coarse-only
        ablation, whose forward rounds a row differently in another batch,
        answers must still be the live workspace's and the blocks a fresh
        fit's."""
        from repro.testing import assert_responses_match, assert_same_index_rows

        pool, cases, __ = assets
        config = AutoFormulaConfig(granularity="coarse_only")
        live = Workspace("live", AutoFormula(trained_encoder, config))
        live.add_workbooks([workbook.copy() for workbook in pool])
        requests = [RecommendationRequest(case.target_sheet, case.target_cell) for case in cases]
        serial = live.serve_batch(requests)
        assert any(response.accepted for response in serial)
        live.save(tmp_path)
        restored = Workspace.load(tmp_path, AutoFormula(trained_encoder, config))

        n_threads = 2 * N_THREADS
        collected, errors = [None] * n_threads, []
        gate = threading.Barrier(n_threads)

        def serve(slot):
            try:
                gate.wait(timeout=30)
                collected[slot] = restored.serve_batch(requests)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=serve, args=(slot,)) for slot in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "deadlocked thread"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, f"racing first serves raised: {errors[:3]}"
        for responses in collected:
            assert_responses_match(serial, responses, context="racing first serves")
        assert any(
            reference.regions is not None
            for reference in filter(None, restored.predictor._reference_sheets)
        )
        assert_same_index_rows(restored.predictor, live.predictor, "racing first serves")

    def test_in_place_edits_racing_serves_answer_from_one_corpus_state(self, assets):
        """An edit overwrites index rows that serves are reading.  One cell
        toggles between two values, so the corpus has exactly two states:
        every answer served during the race must be one state's answer in
        full, never a mix of a new S1 row with old S2 rows or an old
        S3 reference block."""
        from repro.testing import response_signature

        pool, cases, factory = assets
        requests = [
            RecommendationRequest(case.target_sheet, case.target_cell) for case in cases
        ]
        # One cited workbook alone, so no unedited sibling copy can take
        # over its answers.
        probe = Workspace("probe", factory())
        probe.add_workbooks([workbook.copy() for workbook in pool])
        cited = next(r for r in probe.serve_batch(requests) if r.accepted).provenance
        name, sheet_name = cited["reference_workbook"], cited["reference_sheet"]
        workspace = Workspace("edits", factory())
        workspace.add_workbooks([wb.copy() for wb in pool if wb.name == name])
        sheet = workspace.workbooks()[0].get_sheet(sheet_name)

        def answers():
            return [response_signature(r) for r in workspace.serve_batch(requests)]

        values = (123456.0, "a note")
        states = None
        for address, cell in list(sheet.cells()):
            if cell.has_formula or not isinstance(cell.value, (int, float)):
                continue
            per_value = []
            for value in values:
                workspace.edit_cell(name, sheet_name, address, value=value)
                per_value.append(answers())
            if per_value[0] != per_value[1]:
                states = per_value
                break
        assert states is not None, "no edit of the cited sheet moves an answer"

        n_servers, errors, served = 3 * N_THREADS, [], []
        done = threading.Event()

        def server():
            try:
                while not done.is_set():
                    served.append(answers())
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def editor():
            try:
                for round_ in range(40):
                    workspace.edit_cell(name, sheet_name, address, value=values[round_ % 2])
            except BaseException as error:  # noqa: BLE001
                errors.append(error)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=server) for __ in range(n_servers)]
            threads.append(threading.Thread(target=editor))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "deadlocked thread"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, f"concurrent ops raised: {errors[:3]}"
        assert served
        for batch in served:
            assert batch in states, "a serve saw a half re-indexed sheet"
        assert answers() == states[1]
        assert workspace.counters()["workspace.reindex_same"] >= 42


def _editable_cell(workspace):
    """``(workbook, sheet, address)`` of a plain numeric cell to edit."""
    for workbook in workspace.workbooks():
        for sheet in workbook:
            for address, cell in sheet.cells():
                if not cell.has_formula and isinstance(cell.value, (int, float)):
                    return workbook.name, sheet.name, address
    raise AssertionError("no plain numeric cell in the corpus")


class _HeldReindex:
    """Holds the predictor's ``reindex_sheet`` — the inside of an edit,
    with the workspace's lock taken — until :meth:`release`."""

    def __init__(self, predictor) -> None:
        self.entered = threading.Event()
        self._release = threading.Event()
        reindex_sheet = predictor.reindex_sheet

        def held(*args, **kwargs):
            self.entered.set()
            assert self._release.wait(60), "the test never released the edit"
            return reindex_sheet(*args, **kwargs)

        predictor.reindex_sheet = held

    def release(self) -> None:
        self._release.set()


def _in_thread(call):
    """Start ``call`` on a thread; return ``(thread, outcome)``, where
    ``outcome`` gets ``"value"`` or ``"error"`` once it returns."""
    outcome = {}

    def run():
        try:
            outcome["value"] = call()
        except BaseException as error:  # noqa: BLE001 - surfaced by the test
            outcome["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


class TestWorkspaceLock:
    """Each workspace holds one mutex: its serves, edits and scrapes take
    turns, an edit that raises lets it go, and workspaces never wait on
    each other."""

    def test_serves_and_edits_never_overlap(self, assets):
        pool, cases, factory = assets
        workspace = Workspace("turns", factory())
        workspace.add_workbooks([workbook.copy() for workbook in pool])
        name, sheet_name, address = _editable_cell(workspace)
        requests = [RecommendationRequest(case.target_sheet, case.target_cell) for case in cases]
        predictor = workspace.predictor
        state = {"inside": 0, "most": 0, "calls": Counter()}
        guard = threading.Lock()

        def counted(label, method):
            def call(*args, **kwargs):
                with guard:
                    state["inside"] += 1
                    state["most"] = max(state["most"], state["inside"])
                    state["calls"][label] += 1
                try:
                    return method(*args, **kwargs)
                finally:
                    with guard:
                        state["inside"] -= 1

            return call

        predictor.predict_sheets = counted("serve", predictor.predict_sheets)
        predictor.reindex_sheet = counted("edit", predictor.reindex_sheet)
        gate = threading.Barrier(N_THREADS + 1)

        def server():
            gate.wait(timeout=30)
            for __ in range(ROUNDS_PER_THREAD):
                workspace.serve_batch(requests)

        def editor():
            gate.wait(timeout=30)
            for round_ in range(2 * ROUNDS_PER_THREAD):
                workspace.edit_cell(name, sheet_name, address, value=float(round_))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            started = [_in_thread(server) for __ in range(N_THREADS)] + [_in_thread(editor)]
            for thread, __ in started:
                thread.join(timeout=120)
                assert not thread.is_alive(), "deadlocked thread"
        finally:
            sys.setswitchinterval(interval)
        assert [outcome for __, outcome in started if "error" in outcome] == []
        assert state["calls"]["serve"] and state["calls"]["edit"] == 2 * ROUNDS_PER_THREAD
        assert state["most"] == 1

    def test_an_edit_that_raises_lets_the_lock_go(self, assets):
        pool, cases, factory = assets
        workspace = Workspace("raises", factory())
        workspace.add_workbooks([workbook.copy() for workbook in pool])
        name, sheet_name, address = _editable_cell(workspace)
        request = RecommendationRequest(cases[0].target_sheet, cases[0].target_cell)
        before = workspace.recommend(request)
        predictor = workspace.predictor
        reindex_sheet = predictor.reindex_sheet

        def boom(*args, **kwargs):
            raise ValueError("boom")

        predictor.reindex_sheet = boom
        with pytest.raises(ValueError, match="boom"):
            workspace.edit_cell(name, sheet_name, address, value=7.0)
        predictor.reindex_sheet = reindex_sheet

        # The lock is free again: a serve and an edit from another thread
        # both finish.
        thread, outcome = _in_thread(
            lambda: (
                workspace.recommend(request),
                workspace.edit_cell(name, sheet_name, address, value=7.0),
            )
        )
        thread.join(timeout=60)
        assert not thread.is_alive(), "the lock stayed taken after the edit raised"
        assert "error" not in outcome, outcome
        assert outcome["value"][0].formula == before.formula

    def test_serves_and_memory_stats_wait_for_a_held_edit(self, assets):
        pool, cases, factory = assets
        workspace = Workspace("held", factory())
        workspace.add_workbooks([workbook.copy() for workbook in pool])
        name, sheet_name, address = _editable_cell(workspace)
        request = RecommendationRequest(cases[0].target_sheet, cases[0].target_cell)
        held = _HeldReindex(workspace.predictor)

        edit, edited = _in_thread(
            lambda: workspace.edit_cell(name, sheet_name, address, value=7.0)
        )
        try:
            assert held.entered.wait(60)
            waiters = [
                _in_thread(lambda: workspace.recommend(request)),
                _in_thread(workspace.memory_stats),
            ]
            for thread, outcome in waiters:
                thread.join(timeout=0.2)
                assert thread.is_alive() and not outcome, "ran inside a held edit"
        finally:
            held.release()
        for thread, outcome in [(edit, edited)] + waiters:
            thread.join(timeout=60)
            assert not thread.is_alive() and "value" in outcome, outcome
        assert waiters[1][1]["value"]["total_bytes"] > 0

    def test_a_held_edit_does_not_hold_up_another_workspace(self, assets):
        pool, cases, factory = assets
        editing, serving = Workspace("editing", factory()), Workspace("serving", factory())
        for workspace in (editing, serving):
            workspace.add_workbooks([workbook.copy() for workbook in pool])
        name, sheet_name, address = _editable_cell(editing)
        requests = [RecommendationRequest(case.target_sheet, case.target_cell) for case in cases]
        held = _HeldReindex(editing.predictor)

        edit, edited = _in_thread(lambda: editing.edit_cell(name, sheet_name, address, value=7.0))
        try:
            assert held.entered.wait(60)
            serve, served = _in_thread(lambda: serving.serve_batch(requests))
            serve.join(timeout=60)
            assert not serve.is_alive(), "a serve waited on another workspace's edit"
            assert edit.is_alive() and not edited
        finally:
            held.release()
        edit.join(timeout=60)
        assert not edit.is_alive() and "value" in edited, edited
        assert "value" in served, served
        assert any(response.accepted for response in served["value"])


class TestLatencyRecorderThreadSafety:
    def test_concurrent_records_all_counted(self):
        recorder = Histogram()
        per_thread = 500

        def record():
            for index in range(per_thread):
                recorder.observe(index * 1e-6)

        threads = [threading.Thread(target=record) for __ in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(recorder) == N_THREADS * per_thread
        summary = recorder.summary()
        assert summary["count"] == float(N_THREADS * per_thread)
        assert summary["max_seconds"] == pytest.approx((per_thread - 1) * 1e-6)
