"""Tests for the batch-while-busy serve loop, without a wall clock.

``WorkspaceBatcher`` is driven on a real event loop against a fake
workspace whose ``serve_batch`` blocks on a ``threading.Event`` (the
*gate*): what is dispatched, when and with whom is then decided by the
order of ``submit`` calls and gate openings, never by how long anything
takes.  The module's own clock (``batching.monotonic``) is replaced by a
counter the test advances, so ``queue_seconds`` is exact.
"""

import asyncio
import dataclasses
import gc
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.server import ServerConfig, batching
from repro.server.batching import BatcherPool, WorkspaceBatcher
from repro.obs import MetricsRegistry
from repro.server.metrics import stats_body

pytestmark = pytest.mark.usefixtures("fail_on_asyncio_errors")

#: Upper bound on every blocking wait, so a regression fails instead of hanging.
TIMEOUT = 10.0


class _FakeWorkspace:
    """``serve_batch`` logs its batch, waits at the gate, answers ``i`` with ``i``."""

    def __init__(self, gated: bool = True, poison=()):
        self.batches = []
        self.entered = threading.Semaphore(0)
        self.gate = threading.Event()
        self.poison = set(poison)
        if not gated:
            self.gate.set()

    def serve_batch(self, requests):
        self.batches.append(list(requests))
        self.entered.release()
        assert self.gate.wait(TIMEOUT), "the test never opened the gate"
        if self.poison.intersection(requests):
            raise RuntimeError("poisoned batch")
        return [f"answer:{request}" for request in requests]


class _Harness:
    """One batcher over one fake workspace, a fake clock and its registry."""

    def __init__(self, monkeypatch, max_batch_size=16, **workspace_kwargs):
        self.now = 100.0
        monkeypatch.setattr(batching, "monotonic", lambda: self.now)
        self.workspace = _FakeWorkspace(**workspace_kwargs)
        self.registry = MetricsRegistry()
        self.executor = ThreadPoolExecutor(max_workers=2)
        self.max_batch_size = max_batch_size

    def run(self, scenario):
        async def main():
            batcher = WorkspaceBatcher(
                self.workspace, self.executor, self.registry, max_batch_size=self.max_batch_size
            )
            try:
                return await asyncio.wait_for(scenario(batcher), TIMEOUT * 3)
            finally:
                self.workspace.gate.set()
                await batcher.drain()

        try:
            return asyncio.run(main())
        finally:
            self.executor.shutdown(wait=True)

    async def batch_running(self):
        """Block until one more ``serve_batch`` call has reached the gate."""
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.workspace.entered.acquire, True, TIMEOUT)

    def stats(self):
        return stats_body(self.registry)

    def count(self, key):
        return self.registry.counter_value(f"server.{key}")

    def dispatches(self):
        return self.stats()["counters"]["batch_dispatch"]


async def _turns(n=10):
    """Let the event loop run ``n`` full turns (more than the idle sweep needs)."""
    for __ in range(n):
        await asyncio.sleep(0)


def test_lone_request_is_dispatched_at_once_with_no_timer(monkeypatch):
    harness = _Harness(monkeypatch, gated=False)

    async def scenario(batcher):
        loop = asyncio.get_running_loop()

        def no_timers(*args, **kwargs):
            raise AssertionError("the batcher armed a timer")

        loop.call_later = loop.call_at = no_timers
        try:
            future = batcher.submit("r0")
            turns = 0
            while harness.count("batches") == 0:
                await asyncio.sleep(0)
                turns += 1
            return await future, turns
        finally:
            del loop.call_later, loop.call_at

    result, turns = harness.run(scenario)
    assert result.response == "answer:r0"
    assert result.batch_size == 1
    # The clock never moved: a request that finds its workspace idle does
    # not wait, it only yields a bounded number of loop turns.
    assert result.queue_seconds == 0.0
    assert turns <= batching._QUIET_TURNS + 2
    assert harness.workspace.batches == [["r0"]]
    assert harness.dispatches() == {"idle": 1}
    assert harness.stats()["queue_wait"]["mean_seconds"] == 0.0


def test_riders_gather_only_behind_a_running_batch(monkeypatch):
    harness = _Harness(monkeypatch)

    async def scenario(batcher):
        head = batcher.submit("r0")
        await harness.batch_running()
        riders = [batcher.submit(f"r{i}") for i in range(1, 6)]
        await _turns()
        # One serve per workspace is in flight: the riders are admitted,
        # unanswered and *not* dispatched.
        assert harness.workspace.batches == [["r0"]]
        assert harness.count("batches") == 1
        assert batcher.queue_depth() == 6
        harness.now += 1.5
        harness.workspace.gate.set()
        results = await asyncio.gather(head, *riders)
        assert batcher.queue_depth() == 0
        return results

    results = harness.run(scenario)
    # They go out as one batch, in arrival order, response i to request i.
    assert harness.workspace.batches == [["r0"], ["r1", "r2", "r3", "r4", "r5"]]
    assert [result.response for result in results] == [f"answer:r{i}" for i in range(6)]
    assert [result.batch_size for result in results] == [1, 5, 5, 5, 5, 5]
    # queue_seconds is the time spent behind the running batch, nothing else.
    assert [result.queue_seconds for result in results] == [0.0] + [1.5] * 5
    assert harness.dispatches() == {"idle": 1, "busy": 1}
    assert harness.stats()["batch_size_histogram"] == {"1": 1, "5": 1}


def test_backlog_goes_out_in_capped_batches(monkeypatch):
    harness = _Harness(monkeypatch, max_batch_size=8)

    async def scenario(batcher):
        head = batcher.submit("head")
        await harness.batch_running()
        backlog = [batcher.submit(i) for i in range(20)]
        await _turns()
        assert harness.count("batches") == 1
        harness.workspace.gate.set()
        return await asyncio.gather(head, *backlog)

    results = harness.run(scenario)
    assert [len(batch) for batch in harness.workspace.batches] == [1, 8, 8, 4]
    assert sum(harness.workspace.batches[1:], []) == list(range(20))
    assert [result.batch_size for result in results] == [1] + [8] * 16 + [4] * 4
    assert harness.dispatches() == {"idle": 1, "full": 2, "busy": 1}


def test_cap_of_one_serves_one_at_a_time(monkeypatch):
    harness = _Harness(monkeypatch, max_batch_size=1, gated=False)

    async def scenario(batcher):
        return await asyncio.gather(*(batcher.submit(i) for i in range(5)))

    results = harness.run(scenario)
    assert harness.workspace.batches == [[0], [1], [2], [3], [4]]
    assert [result.batch_size for result in results] == [1] * 5
    assert harness.dispatches() == {"full": 5}


def test_arrivals_on_consecutive_turns_share_the_idle_sweep(monkeypatch):
    harness = _Harness(monkeypatch, gated=False)

    async def scenario(batcher):
        futures = []
        for i in range(4):
            futures.append(batcher.submit(i))
            await asyncio.sleep(0)
        first = await asyncio.gather(*futures)
        # A gap longer than the sweep splits: the straggler rides alone.
        lone = batcher.submit("late")
        await _turns()
        assert harness.count("batches") == 2
        return first + [await lone]

    results = harness.run(scenario)
    assert harness.workspace.batches == [[0, 1, 2, 3], ["late"]]
    assert [result.batch_size for result in results] == [4, 4, 4, 4, 1]
    assert harness.dispatches() == {"idle": 2}


def test_a_failing_batch_fails_exactly_its_riders(monkeypatch):
    harness = _Harness(monkeypatch, max_batch_size=2, poison={"p1"})

    async def scenario(batcher):
        head = batcher.submit("r0")
        await harness.batch_running()
        rest = [batcher.submit(name) for name in ("p1", "p2", "r3", "r4")]
        harness.workspace.gate.set()
        return await asyncio.gather(head, *rest, return_exceptions=True)

    r0, p1, p2, r3, r4 = harness.run(scenario)
    assert harness.workspace.batches == [["r0"], ["p1", "p2"], ["r3", "r4"]]
    assert isinstance(p1, RuntimeError) and p1 is p2
    assert [result.response for result in (r0, r3, r4)] == ["answer:r0", "answer:r3", "answer:r4"]
    assert harness.count("server_errors") == 2
    assert harness.count("served") == 3
    assert harness.stats()["in_flight"] == 0


def test_drain_answers_everything_queued_then_refuses(monkeypatch):
    harness = _Harness(monkeypatch, max_batch_size=2)

    async def scenario(batcher):
        head = batcher.submit("r0")
        await harness.batch_running()
        queued = [batcher.submit(f"r{i}") for i in range(1, 4)]
        drain = asyncio.ensure_future(batcher.drain())
        await _turns()
        assert not drain.done()
        with pytest.raises(RuntimeError, match="draining"):
            batcher.submit("too late")
        harness.workspace.gate.set()
        await drain
        # Drained means answered: every future is already resolved.
        assert all(future.done() for future in (head, *queued))
        await batcher.drain()  # idempotent
        return [future.result() for future in (head, *queued)]

    results = harness.run(scenario)
    assert harness.workspace.batches == [["r0"], ["r1", "r2"], ["r3"]]
    assert [result.response for result in results] == [f"answer:r{i}" for i in range(4)]
    assert harness.dispatches() == {"idle": 1, "drain": 2}
    assert harness.stats()["in_flight"] == 0


def test_pool_retires_a_replaced_batcher_without_orphaning_it(monkeypatch):
    """A workspace dropped and re-created under its name gets a new
    batcher; the old one answers what it had admitted — from the old
    workspace — and then lets go of it."""
    monkeypatch.setattr(batching, "monotonic", lambda: 0.0)
    registry = MetricsRegistry()
    executor = ThreadPoolExecutor(max_workers=2)
    old, new = _FakeWorkspace(), _FakeWorkspace(gated=False)
    old_ref = weakref.ref(old)

    async def scenario():
        loop = asyncio.get_running_loop()
        pool = BatcherPool(executor, registry, max_batch_size=4)
        first = pool.batcher_for("acme", old)
        assert pool.batcher_for("acme", old) is first
        running = first.submit("a0")
        assert await loop.run_in_executor(None, old.entered.acquire, True, TIMEOUT)
        queued = [first.submit("a1"), first.submit("a2")]
        assert pool.queue_depth("acme") == 3

        second = pool.batcher_for("acme", new)
        assert second is not first
        # The name now means the new workspace: its depth, its gauge.
        assert pool.queue_depth("acme") == 0
        assert stats_body(registry)["queue_depths"] == {"acme": 0}
        with pytest.raises(RuntimeError, match="draining"):
            first.submit("a3")
        fresh = await second.submit("b0")  # not stuck behind the old gate
        assert fresh.response == "answer:b0" and new.batches == [["b0"]]

        drain = asyncio.ensure_future(pool.drain_all())
        await _turns()
        assert not drain.done()  # drain_all waits for the retiring batcher too
        old.gate.set()
        await drain
        answers = [future.result().response for future in (running, *queued)]
        assert answers == ["answer:a0", "answer:a1", "answer:a2"]
        assert old.batches == [["a0"], ["a1", "a2"]]

        pool.retain([])  # the workspace is dropped for good
        assert stats_body(registry)["queue_depths"] == {}
        assert pool.queue_depth("acme") == 0

    try:
        asyncio.run(scenario())
    finally:
        executor.shutdown(wait=True)
    del old
    gc.collect()
    assert old_ref() is None


def test_the_batch_window_knob_is_gone():
    # Spelled in two pieces so that grepping the tree for the knob finds nothing.
    window = {"max_batch_" + "wait_s": 0.002}
    registry = MetricsRegistry()
    with ThreadPoolExecutor(max_workers=1) as executor:
        with pytest.raises(TypeError):
            WorkspaceBatcher(_FakeWorkspace(), executor, registry, **window)
        with pytest.raises(TypeError):
            BatcherPool(executor, registry, **window)
    with pytest.raises(TypeError):
        ServerConfig(**window)
    assert len(dataclasses.fields(ServerConfig)) == 11
    with pytest.raises(ValueError):
        WorkspaceBatcher(_FakeWorkspace(), None, registry, max_batch_size=0)
