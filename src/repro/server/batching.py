"""The micro-batching serve loop: batch while busy.

One :class:`WorkspaceBatcher` runs per workspace and keeps at most one
``workspace.serve_batch`` call in flight.  Its collector takes what has
queued up (at most ``max_batch_size`` requests), dispatches it as *one*
``serve_batch`` on the shared thread-pool executor and **awaits that
dispatch**; requests admitted meanwhile pile up and are the next batch.
There is no timer and no knob: a request that finds its workspace idle
is dispatched at once, riders gather only behind a batch that is already
running, and batch size follows load — 1 when requests trickle in, the
cap when they flood — so concurrent requests still share the engine's
vectorized batch path and nobody waits for company that does not come.
One serve per workspace is deliberate, and the workspace's one lock
admits no more: two serves of one workspace on two threads of one
process ran at 0.51-0.84 of one (the GIL; DESIGN.md "Why there is no
batch timer").  The executor's other threads serve mutations, scrapes
and other workspaces.

The one thing that holds a request back is the *idle sweep*: a collector
woken from an empty queue yields to the event loop (``sleep(0)``, never a
clock) for as long as the turns keep adding requests.  A wave of N
clients that fire together reaches the queue over several loop turns;
without the sweep the first is served alone while the loop thread
decodes its N-1 siblings beside it.

Coalescing also enables *duplicate collapsing*: the sheet interner
content-addresses request sheets, so two wire requests carrying the same
sheet bytes and target cell arrive as one ``(sheet identity, cell)``.
The batcher does not look: it hands ``serve_batch`` the whole batch and
maps the responses back one to one; the workspace — the one place that
collapses, for in-process callers too — computes each distinct key once
and fans the result out (duplicates differ only in their echoed
``request_id``).  Each response resolves its request's future with the
batch size it rode in and its queue wait, so latency attribution (queue
+ amortized predictor share) survives coalescing.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from concurrent.futures import Executor
from dataclasses import dataclass
from time import monotonic
from typing import Deque, Dict, Iterable, List, Optional, Set

from repro.obs import MetricsRegistry, Span, get_tracer
from repro.service.types import RecommendationRequest, RecommendationResponse

#: Reusable stand-in when a batch has no traced leader to host a span.
_NULL_CONTEXT = contextlib.nullcontext()

#: Consecutive loop turns without an arrival that end the idle sweep: the
#: depth of asyncio's read path, not a tunable.  Bytes the selector has seen
#: take three turns to reach the queue (reader callback feeds the stream,
#: connection task wakes, decodes and submits), so after three quiet turns
#: nothing was on its way when the sweep began.
_QUIET_TURNS = 3


@dataclass(frozen=True)
class ServedResult:
    """One request's outcome, annotated with serving attribution.

    ``queue_seconds`` is enqueue → dispatch: the time spent behind the
    batch that was running on arrival, ≈ 0 (the idle sweep's few loop
    turns) for a request that found its workspace idle.
    """

    response: RecommendationResponse
    batch_size: int
    queue_seconds: float


@dataclass
class _Pending:
    """A queued request and the future its connection awaits.

    ``span`` is the submitting request's active span, captured at submit
    time: ``run_in_executor`` does not copy the submitting context, so
    the batch's flush carries the trace context across the thread hop
    explicitly (the batch *leader*'s trace hosts the flush span; every
    rider's span is stamped with its batch attribution).
    """

    request: RecommendationRequest
    future: "asyncio.Future[ServedResult]"
    enqueued_at: float
    span: Optional[Span]


class WorkspaceBatcher:
    """Coalesces one workspace's serving requests into engine batches:
    one ``serve_batch`` call in flight, response ``i`` to request ``i``."""

    def __init__(
        self,
        workspace,
        executor: Executor,
        registry: MetricsRegistry,
        max_batch_size: int = 16,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.workspace = workspace
        self._executor = executor
        self._registry = registry
        self.max_batch_size = max_batch_size
        # Instruments, bound once (see ``repro.server.metrics`` for what
        # each means); every batcher of a server shares them.  The gauge
        # closes over the two counters, not over this batcher: the registry
        # must not pin a batcher (and its workspace) that has been retired.
        self._admitted = admitted = registry.counter("server.batch_admitted")
        self._completed = completed = registry.counter("server.batch_completed")
        registry.gauge("server.inflight", fn=lambda: admitted.value - completed.value)
        self._served = registry.counter("server.served")
        self._batches = registry.counter("server.batches")
        self._batched_requests = registry.counter("server.batched_requests")
        self._queue_wait = registry.histogram("server.queue_wait")
        self._queue: Deque[_Pending] = deque()
        self._arrived = asyncio.Event()
        self._outstanding = 0
        self._collector: Optional[asyncio.Task] = None
        self._stopped = False

    # ------------------------------------------------------------- lifecycle

    def queue_depth(self) -> int:
        """Admitted requests not yet answered: queued *and* in the running
        batch, which a raw queue length would miss.  This is the
        backpressure signal the admission controller bounds."""
        return self._outstanding

    def close(self) -> Optional[asyncio.Task]:
        """Refuse new submits; returns the collector task, which serves
        what is already queued (in order, in capped batches) and exits."""
        self._stopped = True
        self._arrived.set()
        return self._collector

    async def drain(self) -> None:
        """Serve everything already admitted, then stop: what makes
        shutdown graceful rather than request-dropping.  (The caller has
        stopped admission; ``submit`` raises from here on.)"""
        collector = self.close()
        if collector is not None:
            await collector

    # --------------------------------------------------------------- ingress

    def submit(self, request: RecommendationRequest) -> "asyncio.Future[ServedResult]":
        """Enqueue one admitted request; resolves when its batch completes."""
        if self._stopped:
            raise RuntimeError("batcher is draining")
        loop = asyncio.get_running_loop()
        if self._collector is None:
            self._collector = loop.create_task(self._run())
        future: "asyncio.Future[ServedResult]" = loop.create_future()
        self._outstanding += 1
        self._admitted.inc()
        self._queue.append(_Pending(request, future, monotonic(), get_tracer().current_span()))
        self._arrived.set()
        return future

    # ------------------------------------------------------------ collection

    async def _run(self) -> None:
        queue = self._queue
        idle = True  # no batch is running; False for what gathered behind one
        while True:
            while not queue:
                if self._stopped:
                    return
                idle = True
                self._arrived.clear()
                await self._arrived.wait()
            if idle:
                await self._sweep()
            batch = [queue.popleft() for __ in range(min(len(queue), self.max_batch_size))]
            if self._stopped:
                reason = "drain"
            elif len(batch) == self.max_batch_size:
                reason = "full"
            else:
                reason = "idle" if idle else "busy"
            await self._serve(batch, reason)
            idle = False

    async def _sweep(self) -> None:
        """The idle sweep: yield while each loop turn adds a request — at
        most ``_QUIET_TURNS`` turns per request and ``max_batch_size``
        requests, so the wait is bounded in turns and reads no clock."""
        queue = self._queue
        quiet, seen = 0, len(queue)
        while quiet < _QUIET_TURNS and seen < self.max_batch_size and not self._stopped:
            await asyncio.sleep(0)
            quiet = quiet + 1 if len(queue) == seen else 0
            seen = len(queue)

    # ------------------------------------------------------------- dispatch

    async def _serve(self, batch: List[_Pending], reason: str) -> None:
        requests = [pending.request for pending in batch]
        dispatched_at = monotonic()
        self._batches.inc()
        self._batched_requests.inc(len(batch))
        self._registry.counter("server.batch_size", {"size": str(len(batch))}).inc()
        self._registry.counter("server.batch_dispatch", {"reason": reason}).inc()
        for pending in batch:
            queue_seconds = dispatched_at - pending.enqueued_at
            self._queue_wait.observe(queue_seconds)
            if pending.span is not None:
                pending.span.set_attribute("batch_size", len(batch))
                pending.span.set_attribute("queue_seconds", queue_seconds)

        # The flush span lives in the batch leader's trace: coalesced
        # riders each have their own trace, and a span can only nest in
        # one of them.  Riders carry batch_size/queue_seconds attributes
        # instead, which is enough to join against the leader's flush.
        tracer = get_tracer()
        leader_span = batch[0].span

        def _serve_in_leader_context() -> List[RecommendationResponse]:
            with tracer.attach(leader_span):
                with tracer.span(
                    "batch.flush", batch_size=len(batch)
                ) if leader_span is not None else _NULL_CONTEXT:
                    return self.workspace.serve_batch(requests)

        try:
            responses = await asyncio.get_running_loop().run_in_executor(
                self._executor, _serve_in_leader_context
            )
        except Exception as exc:
            self._registry.counter("server.server_errors").inc(len(batch))
            for pending in batch:
                if not pending.future.cancelled():
                    pending.future.set_exception(exc)
            return
        finally:
            self._outstanding -= len(batch)
            self._completed.inc(len(batch))
        self._served.inc(len(batch))
        for pending, response in zip(batch, responses):
            if not pending.future.cancelled():
                pending.future.set_result(
                    ServedResult(response, len(batch), dispatched_at - pending.enqueued_at)
                )


class BatcherPool:
    """Lazily-created :class:`WorkspaceBatcher` per served workspace."""

    def __init__(
        self,
        executor: Executor,
        registry: MetricsRegistry,
        max_batch_size: int = 16,
    ) -> None:
        self._executor = executor
        self._registry = registry
        self._max_batch_size = max_batch_size
        self._batchers: Dict[str, WorkspaceBatcher] = {}
        #: Collectors of retired batchers that are still serving their queue.
        self._retiring: Set[asyncio.Task] = set()

    def batcher_for(self, name: str, workspace) -> WorkspaceBatcher:
        batcher = self._batchers.get(name)
        if batcher is not None and batcher.workspace is not workspace:
            # Dropped and re-created under the same name.
            self.retire(name)
            batcher = None
        if batcher is None:
            batcher = WorkspaceBatcher(
                workspace, self._executor, self._registry, self._max_batch_size
            )
            self._registry.gauge(
                "server.queue_depth", {"workspace": name}, fn=batcher.queue_depth
            )
            self._batchers[name] = batcher
        return batcher

    def retire(self, name: str) -> None:
        """Forget the batcher and queue gauge of a dropped or replaced
        workspace.  What it has queued is still answered, by the workspace
        that admitted it; after that nothing here references it."""
        batcher = self._batchers.pop(name, None)
        if batcher is None:
            return
        self._registry.remove("server.queue_depth", {"workspace": name})
        collector = batcher.close()
        if collector is not None and not collector.done():
            self._retiring.add(collector)
            collector.add_done_callback(self._retiring.discard)

    def retain(self, names: Iterable[str]) -> None:
        """Retire the batcher of every workspace not in ``names``."""
        for name in set(self._batchers).difference(names):
            self.retire(name)

    def queue_depth(self, name: str) -> int:
        batcher = self._batchers.get(name)
        return batcher.queue_depth() if batcher is not None else 0

    async def drain_all(self) -> None:
        await asyncio.gather(
            *(batcher.drain() for batcher in self._batchers.values()), *self._retiring
        )
