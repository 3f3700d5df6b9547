"""Concurrency smoke tests: serving under concurrent corpus mutation.

N threads hammer one workspace with mixed
recommend/mutate operations.  The suite asserts the serving layer's
concurrency contract: no operation ever raises, responses are always
well-formed, and once a removal has completed, no later-started serve
returns a recommendation grounded in the removed (tombstoned) workbook.
"""

import threading

import pytest

from repro import (
    AutoFormula,
    AutoFormulaConfig,
    RecommendationRequest,
    Workspace,
)
from repro.evaluation.latency import LatencyRecorder
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
        recorder = LatencyRecorder()
        per_thread = 500

        def record():
            for index in range(per_thread):
                recorder.record(index * 1e-6)

        threads = [threading.Thread(target=record) for __ in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(recorder) == N_THREADS * per_thread
        summary = recorder.summary()
        assert summary["count"] == float(N_THREADS * per_thread)
        assert summary["max_seconds"] == pytest.approx((per_thread - 1) * 1e-6)
