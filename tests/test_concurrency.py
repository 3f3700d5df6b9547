"""Concurrency smoke tests: serving under concurrent corpus mutation.

N threads hammer one workspace with mixed
recommend/mutate operations.  The suite asserts the serving layer's
concurrency contract: no operation ever raises, responses are always
well-formed, and once a removal has completed, no later-started serve
returns a recommendation grounded in the removed (tombstoned) workbook.
"""

import sys
import threading

import numpy as np
import pytest

from repro import (
    AutoFormula,
    AutoFormulaConfig,
    CellAddress,
    RecommendationRequest,
    Workspace,
)
from repro.obs import Histogram
from repro.service import ReadWriteLock
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
            victim = pool[1]
            for __ in range(2):
                workspace.remove_workbook(victim.name)
                workspace.add_workbook(victim)
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
        workspace.add_workbooks(pool)
        churn_name = pool[0].name

        errors, removed_event, post = _hammer(workspace, pool, cases, churn_name)
        assert not errors, f"concurrent ops raised: {errors[:3]}"
        assert removed_event.is_set()
        _assert_no_stale(post, churn_name, workspace)

    def test_serving_still_consistent_after_concurrency(self, assets):
        pool, cases, factory = assets
        workspace = Workspace("after", factory())
        workspace.add_workbooks(pool)
        errors, __, ___ = _hammer(workspace, pool, cases, pool[0].name)
        assert not errors
        # The surviving corpus serves exactly like a fresh fit on it.
        from repro.testing import assert_matches_fresh_fit

        assert_matches_fresh_fit(workspace, factory, cases, context="post-hammer")


    def test_concurrent_serves_answer_identically(self, assets):
        pool, cases, factory = assets
        workspace = Workspace("parallel", factory())
        workspace.add_workbooks(pool)
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


    def test_cold_region_store_filled_by_racing_serves(self, assets):
        """N threads ask overlapping cells of one *shared* target sheet whose
        region store is cold, so their S3 fills race: every answer must equal
        the serial answer and the store must come out consistent."""
        pool, cases, factory = assets
        workspace = Workspace("store", factory())
        workspace.add_workbooks(pool)
        case = cases[0]
        cells = [case.target_cell] + [
            CellAddress(max(case.target_cell.row + row, 0), max(case.target_cell.col + col, 0))
            for row, col in ((-1, 0), (1, 0), (0, -1), (0, 1), (-2, 0), (2, 1), (3, 0))
        ]
        # Serial answers come from a copy: the shared sheet's store stays cold.
        serial_sheet = case.target_sheet.copy()
        serial = workspace.serve_batch(
            [RecommendationRequest(serial_sheet, cell) for cell in cells]
        )
        assert any(response.accepted for response in serial)

        n_threads = 3 * N_THREADS  # more workers than cores
        shared = case.target_sheet.copy()
        collected = [None] * n_threads
        errors = []
        gate = threading.Barrier(n_threads)

        def serve(slot):
            try:
                # Overlapping windows over the cells, a different one per thread.
                picks = [(slot + step) % len(cells) for step in range(5)]
                gate.wait(timeout=30)
                responses = workspace.serve_batch(
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

        # Every assigned slot is a distinct row below the fill mark, holding
        # exactly the embedding of its cell.
        predictor = workspace.predictor
        store = predictor._target_cache.get(shared)
        assert store is not None and len(store) > 0
        rows, cols = np.nonzero(store._slots >= 0)
        slots = store._slots[rows, cols]
        assert sorted(slots.tolist()) == list(range(len(store)))
        expected = predictor._region_vectors(
            shared, [CellAddress(int(row), int(col)) for row, col in zip(rows, cols)]
        )
        assert np.array_equal(store.rows(slots)[0], expected)


    def test_in_place_edits_racing_serves_answer_from_one_corpus_state(self, assets):
        """An edit overwrites index rows that serves are reading.  One cell
        toggles between two values, so the corpus has exactly two states:
        every answer served during the race must be one state's answer in
        full, never a mix of a new S1 row with old S2 rows or an old
        reference store."""
        from repro.testing import response_signature

        pool, cases, factory = assets
        requests = [
            RecommendationRequest(case.target_sheet, case.target_cell) for case in cases
        ]
        # One cited workbook alone, so no unedited sibling copy can take
        # over its answers.
        probe = Workspace("probe", factory())
        probe.add_workbooks(pool)
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


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        state = {"readers": 0, "max_readers": 0, "writer_overlap": False}
        gate = threading.Barrier(3)

        def reader():
            gate.wait(timeout=30)
            with lock.read_lock():
                state["readers"] += 1
                state["max_readers"] = max(state["max_readers"], state["readers"])
                threading.Event().wait(0.05)
                state["readers"] -= 1

        def writer():
            gate.wait(timeout=30)
            with lock.write_lock():
                if state["readers"]:
                    state["writer_overlap"] = True

        threads = [threading.Thread(target=reader) for __ in range(2)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not state["writer_overlap"]

    def test_release_without_acquire_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_write_lock_context_manager_releases_on_error(self):
        lock = ReadWriteLock()
        with pytest.raises(ValueError):
            with lock.write_lock():
                raise ValueError("boom")
        # Lock must be free again:
        with lock.write_lock():
            pass


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
