"""The micro-batching serve loop: coalesce, dispatch, attribute.

One :class:`WorkspaceBatcher` runs per workspace.  Requests admitted by
the admission controller are appended to the workspace's ingress queue;
the batcher's collector task takes the first request, then keeps
collecting until either ``max_batch_size`` requests are in hand or
``max_batch_wait_s`` has elapsed since the batch opened, and dispatches
the whole batch as *one* ``workspace.serve_batch`` call on the shared
thread-pool executor.  Concurrently arriving requests for one workspace
therefore ride the engine's vectorized batch path (shared featurization
and retrieval) instead of paying per-request serving N times.

Dispatch does not block collection: each flush runs as its own task, so
while one batch executes in the pool the collector is already filling
the next (the workspace read-lock admits any number of concurrent
serves).  ``max_batch_size=1`` degenerates to one-request-at-a-time
serving — the benchmark baseline — with everything else unchanged.

Coalescing also enables *duplicate collapsing*: the sheet interner
content-addresses request sheets, so two wire requests carrying the same
sheet bytes and target cell arrive as one ``(sheet identity, cell)``.
The batcher does not look: it hands ``serve_batch`` the whole batch and
maps the responses back one to one, and the workspace — the one place
that collapses, for in-process callers too — computes each distinct key
once and fans the result out (classic request coalescing, as in
cache-stampede protection).  Duplicates differ only in their echoed
``request_id``.

Each response is resolved onto its request's future together with the
batch size it rode in and its queue wait, so latency attribution
(queue + amortized predictor share) survives coalescing.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import get_tracer
from repro.obs.tracing import Span
from repro.server.metrics import (
    ADMITTED_TO_BATCHER,
    COMPLETED_BY_BATCHER,
    SERVED,
    SERVER_ERRORS,
    ServerMetrics,
)
from repro.service.types import RecommendationRequest, RecommendationResponse

#: Queue sentinel that tells a collector task to finish and exit.
_STOP = object()

#: Reusable stand-in when a batch has no traced leader to host a span.
_NULL_CONTEXT = contextlib.nullcontext()


@dataclass(frozen=True)
class ServedResult:
    """One request's outcome, annotated with serving attribution."""

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
    enqueued_at: float = field(default_factory=time.monotonic)
    span: Optional[Span] = None


class WorkspaceBatcher:
    """Coalesces one workspace's serving requests into engine batches:
    one ``serve_batch`` call per batch, response ``i`` to request ``i``."""

    def __init__(
        self,
        workspace,
        executor: Executor,
        metrics: ServerMetrics,
        max_batch_size: int = 16,
        max_batch_wait_s: float = 0.002,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_batch_wait_s < 0:
            raise ValueError("max_batch_wait_s must be non-negative")
        self.workspace = workspace
        self._executor = executor
        self._metrics = metrics
        self.max_batch_size = max_batch_size
        self.max_batch_wait_s = max_batch_wait_s
        self._queue: "asyncio.Queue[object]" = asyncio.Queue()
        self._inflight: set = set()
        self._outstanding = 0
        self._collector: Optional[asyncio.Task] = None
        self._stopped = False

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Start the collector task (idempotent)."""
        if self._collector is None:
            self._collector = asyncio.get_running_loop().create_task(self._run())

    def queue_depth(self) -> int:
        """Admitted requests not yet answered (queued + in-flight).

        This — not the raw queue size — is the backpressure signal the
        admission controller bounds: the collector pops the queue the
        moment it opens a batch, so raw queue size would read ~0 even
        with the executor saturated and batches stacked up behind it.
        """
        return self._outstanding

    async def drain(self) -> None:
        """Finish everything queued, then stop the collector.

        The caller must have stopped admission first; anything enqueued
        before the drain is still served, which is what makes shutdown
        graceful rather than request-dropping.
        """
        if self._stopped:
            return
        self._stopped = True
        self._queue.put_nowait(_STOP)
        if self._collector is not None:
            await self._collector
        if self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    # --------------------------------------------------------------- ingress

    def submit(self, request: RecommendationRequest) -> "asyncio.Future[ServedResult]":
        """Enqueue one admitted request; resolves when its batch completes."""
        if self._stopped:
            raise RuntimeError("batcher is draining")
        future: "asyncio.Future[ServedResult]" = asyncio.get_running_loop().create_future()
        self._outstanding += 1
        self._metrics.count(ADMITTED_TO_BATCHER)
        self._queue.put_nowait(
            _Pending(
                request=request,
                future=future,
                span=get_tracer().current_span(),
            )
        )
        return future

    # ------------------------------------------------------------ collection

    async def _run(self) -> None:
        while True:
            head = await self._queue.get()
            if head is _STOP:
                return
            batch = [head]
            stop_seen = await self._fill(batch)
            self._flush(batch)
            if stop_seen:
                return

    async def _fill(self, batch: List[_Pending]) -> bool:
        """Collect up to the batch cap within the coalescing window.

        Returns whether the stop sentinel was consumed while collecting
        (the current batch is still flushed — drain never drops work).
        """
        if self.max_batch_size == 1:
            return False
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_batch_wait_s
        while len(batch) < self.max_batch_size:
            remaining = deadline - loop.time()
            if remaining <= 0:
                # Window closed: sweep whatever is already queued, no wait.
                while len(batch) < self.max_batch_size and not self._queue.empty():
                    item = self._queue.get_nowait()
                    if item is _STOP:
                        return True
                    batch.append(item)
                return False
            try:
                item = await asyncio.wait_for(self._queue.get(), remaining)
            except asyncio.TimeoutError:
                return False
            if item is _STOP:
                return True
            batch.append(item)
        return False

    # ------------------------------------------------------------- dispatch

    def _flush(self, batch: List[_Pending]) -> None:
        task = asyncio.get_running_loop().create_task(self._execute(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _execute(self, batch: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        requests = [pending.request for pending in batch]
        dispatched_at = time.monotonic()
        self._metrics.observe_batch(len(batch))
        for pending in batch:
            queue_seconds = dispatched_at - pending.enqueued_at
            self._metrics.observe_queue_wait(queue_seconds)
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
            responses = await loop.run_in_executor(
                self._executor, _serve_in_leader_context
            )
        except Exception as exc:
            self._metrics.count(SERVER_ERRORS, len(batch))
            for pending in batch:
                if not pending.future.cancelled():
                    pending.future.set_exception(exc)
            return
        finally:
            self._outstanding -= len(batch)
            self._metrics.count(COMPLETED_BY_BATCHER, len(batch))
        self._metrics.count(SERVED, len(batch))
        for pending, response in zip(batch, responses):
            if pending.future.cancelled():
                continue
            pending.future.set_result(
                ServedResult(
                    response=response,
                    batch_size=len(batch),
                    queue_seconds=dispatched_at - pending.enqueued_at,
                )
            )


class BatcherPool:
    """Lazily-created :class:`WorkspaceBatcher` per served workspace."""

    def __init__(
        self,
        executor: Executor,
        metrics: ServerMetrics,
        max_batch_size: int = 16,
        max_batch_wait_s: float = 0.002,
    ) -> None:
        self._executor = executor
        self._metrics = metrics
        self._max_batch_size = max_batch_size
        self._max_batch_wait_s = max_batch_wait_s
        self._batchers: Dict[str, WorkspaceBatcher] = {}

    def batcher_for(self, name: str, workspace) -> WorkspaceBatcher:
        batcher = self._batchers.get(name)
        if batcher is None or batcher.workspace is not workspace:
            batcher = WorkspaceBatcher(
                workspace,
                self._executor,
                self._metrics,
                max_batch_size=self._max_batch_size,
                max_batch_wait_s=self._max_batch_wait_s,
            )
            batcher.start()
            self._metrics.register_queue_gauge(name, batcher.queue_depth)
            self._batchers[name] = batcher
        return batcher

    def queue_depth(self, name: str) -> int:
        batcher = self._batchers.get(name)
        return batcher.queue_depth() if batcher is not None else 0

    async def drain_all(self) -> None:
        await asyncio.gather(*(batcher.drain() for batcher in self._batchers.values()))
