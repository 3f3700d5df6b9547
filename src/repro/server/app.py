"""The asyncio JSON-over-HTTP front-end of :class:`FormulaService`.

A deliberately small HTTP/1.1 server built directly on ``asyncio``
streams (stdlib only, keep-alive, ``Content-Length`` bodies) exposing
the serving layer over the wire:

==========  =========================================      ==============
method      path                                           meaning
==========  =========================================      ==============
GET         ``/health``                                    liveness + drain state
GET         ``/stats``                                     the full metrics snapshot
GET         ``/metrics``                                   Prometheus text exposition
GET         ``/traces``                                    recent + slow trace trees
POST        ``/v1/workspaces/{ws}/recommend``              one request or a batch
POST        ``/v1/workspaces/{ws}/edit-cell``              live single-cell edit
POST        ``/v1/workspaces/{ws}/workbooks``              add (index) workbooks
DELETE      ``/v1/workspaces/{ws}/workbooks/{name}``       remove a workbook
==========  =========================================      ==============

Every dispatched request runs under an ``http.request`` root span of the
process-global tracer (:mod:`repro.obs`): an incoming ``X-Trace-Id``
header seeds the trace id (so upstream callers and this server share
one trace), the response always echoes ``X-Trace-Id`` back, and 4xx/5xx
bodies carry ``trace_id`` so client-side failures are joinable against
the server-side trace.

Serving requests flow admission control → per-workspace micro-batcher →
``serve_batch`` on a thread-pool executor, one batch per workspace at a
time and no batch timer (see ``repro.server.batching``); mutations run
directly on the executor, serialized against serving by the workspace's
own lock.  Rejections carry ``Retry-After``.  The ``/stats`` and
``/metrics`` bodies are built on the executor too, because they read each
workspace's ``memory_stats`` under that lock: the event-loop thread never
waits for a workspace, so a scrape during a long edit holds up only
itself.

:func:`start_server_in_background` runs the whole event loop on a daemon
thread and hands back a :class:`ServerHandle` — the shape tests, examples
and benchmarks use: start, talk over real sockets, ``shutdown()`` (which
drains gracefully: queued requests finish, new ones get 503).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache import stats as cache_stats
from repro.obs import MetricsRegistry, get_tracer
from repro.server.admission import AdmissionConfig, AdmissionController
from repro.server.batching import BatcherPool
from repro.server.metrics import stats_body
from repro.server.schemas import (
    EditCellRequest,
    SchemaError,
    SheetInterner,
    decode_recommend_payload,
    decode_workbooks_payload,
    encode_error,
    encode_recalc_report,
    encode_response,
)
from repro.service.facade import FormulaService

#: Seconds a connection may take to deliver a request once its first byte
#: has arrived (head and body), and may sit idle between two requests.  A
#: stalled request is answered 408, an idle connection closed without a
#: response; both are counted as ``server.read_timeouts``.  Without it one
#: client that sends half a request line pins a connection and its handler
#: task forever.
READ_TIMEOUT_S = 30.0

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServerConfig:
    """Everything tunable about the serving front-end."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``ServerHandle.port``).
    port: int = 0
    #: Coalescing cap: requests per ``serve_batch`` dispatch (1 = off).
    #: There is no coalescing window: a batch gathers only behind the one
    #: that is running (``repro.server.batching``).
    max_batch_size: int = 16
    #: Admission policy (queue bound, per-tenant rate limit, drain hint).
    admission: AdmissionConfig = AdmissionConfig()
    #: Thread-pool width: one serve per workspace at a time, plus mutations.
    executor_workers: int = 4
    #: Interned-sheet cache entries (content-addressed request sheets).
    sheet_cache_entries: int = 256
    #: Hard cap on request bodies (a workbook corpus can be sizeable).
    max_body_bytes: int = 32 * 1024 * 1024
    #: Budget :meth:`FormulaServer.stop` allows the drain before closing.
    drain_timeout_s: float = 10.0
    #: Enable request tracing (the process-global ``repro.obs`` tracer is
    #: configured from these knobs at server construction).
    tracing_enabled: bool = True
    #: Fraction of traces admitted to the sampled ring (systematic 1-in-N;
    #: slow traces are always captured regardless).
    trace_sample_rate: float = 1.0
    #: Root spans at least this slow land in the always-capture slow log
    #: (0 disables slow capture).
    slow_trace_threshold_s: float = 0.25


@dataclass(frozen=True)
class _HttpRequest:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes
    keep_alive: bool


class _HttpError(Exception):
    """Protocol-level failure answered without reaching a route handler."""

    def __init__(self, status: int, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.status = status
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class _RawBody:
    """A non-JSON response body (the Prometheus text exposition)."""

    text: str
    content_type: str = "text/plain; charset=utf-8"


class FormulaServer:
    """Serves one :class:`FormulaService` over JSON/HTTP (see module doc)."""

    def __init__(self, service: FormulaService, config: Optional[ServerConfig] = None) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self.registry = MetricsRegistry()
        self._accepted = self.registry.counter("server.accepted")
        self.tracer = get_tracer().configure(
            enabled=self.config.tracing_enabled,
            sample_rate=self.config.trace_sample_rate,
            slow_threshold_s=self.config.slow_trace_threshold_s,
        )
        self.admission = AdmissionController(self.config.admission)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_workers, thread_name_prefix="repro-serve"
        )
        self._batchers = BatcherPool(
            self._executor,
            self.registry,
            max_batch_size=self.config.max_batch_size,
        )
        self._interner = SheetInterner(self.config.sheet_cache_entries)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._started_at = time.monotonic()

    # -------------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listening socket and begin accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_at = time.monotonic()

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: refuse new work, finish queued work, close.

        With ``drain=False`` queued requests are abandoned along with
        their connections (crash-stop semantics, for tests).
        """
        self.admission.start_drain()
        if drain:
            try:
                await asyncio.wait_for(
                    self._batchers.drain_all(), timeout=self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            # Handlers whose batch just completed still need a few loop
            # passes to write their responses before transports close.
            await asyncio.sleep(0.05)
        # Kept-alive connections idle in a read; close their transports so
        # the handler tasks unwind before the loop goes away.
        for writer in list(self._connections):
            writer.close()
        for __ in range(100):
            if not self._connections:
                break
            await asyncio.sleep(0.01)
        self._executor.shutdown(wait=drain)

    # ------------------------------------------------------------- connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    self.registry.counter("server.rejected_frames", {"reason": exc.reason}).inc()
                    await self._write_response(
                        writer, exc.status, encode_error(exc.reason, exc.detail), {}, False
                    )
                    break
                if request is None:
                    break
                status, body, headers = await self._dispatch(request)
                await self._write_response(writer, status, body, headers, request.keep_alive)
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_HttpRequest]:
        """The connection's next request, or ``None`` once there is none:
        the client closed the connection, or left it idle for
        :data:`READ_TIMEOUT_S`.  A request that takes longer than that to
        arrive is a 408."""
        try:
            async with asyncio.timeout(READ_TIMEOUT_S):
                first = await reader.readexactly(1)
        except asyncio.IncompleteReadError:
            return None  # clean EOF between keep-alive requests
        except TimeoutError:
            self.registry.counter("server.read_timeouts").inc()
            return None
        try:
            async with asyncio.timeout(READ_TIMEOUT_S):
                return await self._read_rest(first, reader)
        except TimeoutError:
            self.registry.counter("server.read_timeouts").inc()
            raise _HttpError(
                408, "request_timeout", f"request not received within {READ_TIMEOUT_S:g} s"
            )

    async def _read_rest(self, first: bytes, reader: asyncio.StreamReader) -> _HttpRequest:
        """The request whose first byte is ``first``."""
        try:
            header_blob = first + await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "bad_request", "truncated request head")
        except asyncio.LimitOverrunError:
            raise _HttpError(400, "bad_request", "request head too large")
        try:
            head = header_blob.decode("latin-1")
            request_line, *header_lines = head.split("\r\n")
            method, path, version = request_line.split(" ", 2)
        except ValueError:
            raise _HttpError(400, "bad_request", "malformed request line")
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            content_length = int(length_text)
        except ValueError:
            raise _HttpError(400, "bad_request", f"bad Content-Length {length_text!r}")
        if content_length < 0:
            raise _HttpError(400, "bad_request", "negative Content-Length")
        if content_length > self.config.max_body_bytes:
            raise _HttpError(413, "payload_too_large", f"body exceeds {self.config.max_body_bytes} bytes")
        body = await reader.readexactly(content_length) if content_length else b""
        keep_alive = headers.get("connection", "").lower() != "close" and version != "HTTP/1.0"
        return _HttpRequest(
            method=method.upper(), path=path, headers=headers, body=body, keep_alive=keep_alive
        )

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Dict[str, object],
        headers: Dict[str, str],
        keep_alive: bool,
    ) -> None:
        if isinstance(body, _RawBody):
            payload = body.text.encode("utf-8")
            content_type = body.content_type
        else:
            payload = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        reason = _STATUS_REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload)
        await writer.drain()

    # ---------------------------------------------------------------- routing

    async def _dispatch(
        self, request: _HttpRequest
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """Trace wrapper around :meth:`_route`.

        Opens the ``http.request`` root span (seeded from an incoming
        ``X-Trace-Id``, if any), stamps endpoint/status attributes, echoes
        the trace id on the response and into 4xx/5xx bodies.
        """
        trace_header = request.headers.get("x-trace-id") or None
        with self.tracer.span(
            "http.request",
            trace_id=trace_header,
            method=request.method,
            path=request.path,
        ) as span:
            status, body, headers = await self._route(request, span)
            span.set_attribute("status", status)
            trace = span.trace
            if trace is not None:
                headers = dict(headers)
                headers.setdefault("X-Trace-Id", trace.trace_id)
                if status >= 400 and isinstance(body, dict):
                    body.setdefault("trace_id", trace.trace_id)
            return status, body, headers

    async def _route(
        self, request: _HttpRequest, span
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        started = time.perf_counter()
        endpoint = "unknown"
        try:
            segments = [segment for segment in request.path.split("?")[0].split("/") if segment]
            if segments == ["health"] and request.method == "GET":
                endpoint = "health"
                return 200, self._health_body(), {}
            if segments == ["stats"] and request.method == "GET":
                endpoint = "stats"
                return 200, await self._scrape(self._stats_body), {}
            if segments == ["metrics"] and request.method == "GET":
                endpoint = "metrics"
                return 200, await self._scrape(self._metrics_body), {}
            if segments == ["traces"] and request.method == "GET":
                endpoint = "traces"
                return 200, self._traces_body(), {}
            if len(segments) >= 3 and segments[0] == "v1" and segments[1] == "workspaces":
                workspace_name = segments[2]
                tail = segments[3:]
                if tail == ["recommend"] and request.method == "POST":
                    endpoint = "recommend"
                    return await self._handle_recommend(workspace_name, request)
                if tail == ["edit-cell"] and request.method == "POST":
                    endpoint = "edit_cell"
                    return await self._handle_edit_cell(workspace_name, request)
                if tail == ["workbooks"] and request.method == "POST":
                    endpoint = "add_workbooks"
                    return await self._handle_add_workbooks(workspace_name, request)
                if len(tail) == 2 and tail[0] == "workbooks" and request.method == "DELETE":
                    endpoint = "remove_workbook"
                    return await self._handle_remove_workbook(workspace_name, tail[1])
            return 404, encode_error("not_found", f"no route for {request.method} {request.path}"), {}
        except SchemaError as exc:
            return 400, encode_error("schema_error", str(exc)), {}
        except KeyError as exc:
            return 404, encode_error("not_found", f"unknown resource: {exc}"), {}
        except ValueError as exc:
            return 400, encode_error("invalid_request", str(exc)), {}
        except Exception as exc:  # pragma: no cover - defensive 500 path
            self.registry.counter("server.server_errors").inc()
            return 500, encode_error("internal_error", f"{type(exc).__name__}: {exc}"), {}
        finally:
            span.set_attribute("endpoint", endpoint)
            self.registry.histogram("server.endpoint", {"endpoint": endpoint}).observe(
                time.perf_counter() - started
            )

    def _parse_json(self, request: _HttpRequest) -> object:
        if not request.body:
            raise SchemaError("request body is required")
        try:
            return json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaError(f"body is not valid JSON: {exc}") from exc
        except RecursionError:
            raise SchemaError("body is not valid JSON: nested too deeply") from None

    def _workspace(self, name: str):
        try:
            return self.service.workspace(name)
        except KeyError:
            self._batchers.retire(name)  # dropped since it was last served
            raise KeyError(f"workspace {name!r}")

    # --------------------------------------------------------------- handlers

    async def _handle_recommend(
        self, workspace_name: str, request: _HttpRequest
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        workspace = self._workspace(workspace_name)
        requests, single = decode_recommend_payload(self._parse_json(request), self._interner)
        rejection = self.admission.admit(
            workspace_name, self._batchers.queue_depth(workspace_name), n=len(requests)
        )
        if rejection is not None:
            self.registry.counter(f"server.rejected_{rejection.reason}").inc(len(requests))
            return (
                rejection.status,
                encode_error(rejection.reason, retry_after=rejection.retry_after_seconds),
                {"Retry-After": f"{max(rejection.retry_after_seconds, 0.0):.3f}"},
            )
        self._accepted.inc(len(requests))
        batcher = self._batchers.batcher_for(workspace_name, workspace)
        futures = [batcher.submit(req) for req in requests]
        results = await asyncio.gather(*futures)
        encoded = [
            encode_response(result.response, result.batch_size, result.queue_seconds)
            for result in results
        ]
        if single:
            return 200, encoded[0], {}
        return 200, {"responses": encoded}, {}

    async def _handle_edit_cell(
        self, workspace_name: str, request: _HttpRequest
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        workspace = self._workspace(workspace_name)
        edit = EditCellRequest.from_wire(self._parse_json(request))
        loop = asyncio.get_running_loop()

        def apply_edit():
            if edit.formula is not None:
                return workspace.edit_cell(edit.workbook, edit.sheet, edit.cell, formula=edit.formula)
            return workspace.edit_cell(edit.workbook, edit.sheet, edit.cell, value=edit.value)

        report = await loop.run_in_executor(self._executor, apply_edit)
        return 200, {"workspace": workspace_name, "recalc": encode_recalc_report(report)}, {}

    async def _handle_add_workbooks(
        self, workspace_name: str, request: _HttpRequest
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        workspace = self._workspace(workspace_name)
        workbooks = decode_workbooks_payload(self._parse_json(request))
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(self._executor, workspace.add_workbooks, workbooks)
        except ValueError as exc:
            # Duplicate workbook names are a conflict, not a malformed body.
            return 409, encode_error("conflict", str(exc)), {}
        return (
            200,
            {
                "workspace": workspace_name,
                "added": [workbook.name for workbook in workbooks],
                "indexed_workbooks": len(workspace),
            },
            {},
        )

    async def _handle_remove_workbook(
        self, workspace_name: str, workbook_name: str
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        workspace = self._workspace(workspace_name)
        loop = asyncio.get_running_loop()

        def remove():
            try:
                workspace.remove_workbook(workbook_name)
                return True
            except KeyError:
                return False

        removed = await loop.run_in_executor(self._executor, remove)
        if not removed:
            return 404, encode_error("not_found", f"workbook {workbook_name!r} is not indexed"), {}
        return (
            200,
            {
                "workspace": workspace_name,
                "removed": workbook_name,
                "indexed_workbooks": len(workspace),
            },
            {},
        )

    # ------------------------------------------------------------- read-onlys

    def _health_body(self) -> Dict[str, object]:
        return {
            "status": "draining" if self.admission.draining else "ok",
            "uptime_seconds": time.monotonic() - self._started_at,
            "workspaces": self.service.workspace_names(),
        }

    async def _scrape(self, build):
        """``build(names)`` on the executor, for the service's workspaces.

        Workspaces appear and disappear through the service API, which
        the server does not see, so both scrape endpoints (``/stats`` and
        ``/metrics``) first let go of the batcher of every workspace that
        is gone — here, on the loop thread that owns the batchers — and
        then bring the instruments in line (:meth:`_sync_workspaces`).
        """
        names = self.service.workspace_names()
        self._batchers.retain(names)
        return await asyncio.get_running_loop().run_in_executor(self._executor, build, names)

    def _sync_workspaces(self, names: List[str]) -> Dict[str, Dict[str, object]]:
        """Register the instruments of the workspaces ``names`` and prune
        those of any other: registration by name is idempotent and
        rebinds to the current workspace object.

        Returns each workspace's ``memory_stats()``, read once for this
        scrape under the workspace's lock: the ``workspace.index_bytes``
        gauge is bound to that reading, and ``/stats`` reports it whole."""
        registry = self.registry
        workspace_of = self.service.workspace
        memory = {name: workspace_of(name).memory_stats() for name in names}
        for name in names:
            labels = {"workspace": name}
            registry.gauge(
                "workspace.index_bytes",
                labels,
                fn=lambda total=memory[name]["total_bytes"]: total,
            )
            registry.histogram("workspace.latency", labels, existing=workspace_of(name).latency)
            # Counters look the workspace up by name: they read whatever is
            # mounted under it now, and pin no workspace object.
            registry.mirror(lambda name=name: workspace_of(name).counters(), labels)
        registry.prune("workspace", names)
        caches = cache_stats()
        for cache in caches:
            registry.mirror(
                lambda cache=cache: {
                    f"cache_{field}": count for field, count in cache_stats()[cache].items()
                },
                {"cache": cache},
            )
        registry.prune("cache", caches)
        return memory

    def _metrics_body(self, names: List[str]) -> _RawBody:
        self._sync_workspaces(names)
        return _RawBody(
            self.registry.render_prometheus(), "text/plain; version=0.0.4; charset=utf-8"
        )

    def _stats_body(self, names: List[str]) -> Dict[str, object]:
        memory = self._sync_workspaces(names)
        body = stats_body(self.registry)
        body["index_memory"] = memory
        body["tracing"] = self.tracer.stats()
        body["caches"] = cache_stats()
        body["sheet_cache"] = {
            "entries": len(self._interner),
            "hits": self._interner.hits,
            "misses": self._interner.misses,
        }
        body["config"] = {
            "max_batch_size": self.config.max_batch_size,
            "queue_limit": self.config.admission.queue_limit,
            "rate_limit_per_tenant": self.config.admission.rate_limit_per_tenant,
        }
        return body

    def _traces_body(self) -> Dict[str, object]:
        """Recent (sampled) and slow traces as JSON trees plus config."""
        return {
            "recent": self.tracer.recent_traces(),
            "slow": self.tracer.slow_traces(),
            "stats": self.tracer.stats(),
        }


# ------------------------------------------------------------------ threaded


class ServerHandle:
    """A running server on a background event-loop thread.

    Context-manager friendly::

        with start_server_in_background(service) as handle:
            client = FormulaClient("127.0.0.1", handle.port)
            ...
        # exiting drains gracefully and joins the thread
    """

    def __init__(self, server: FormulaServer, loop: asyncio.AbstractEventLoop, thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def shutdown(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Drain (optionally), close the server, stop the loop, join."""
        if self._stopped:
            return
        self._stopped = True
        asyncio.run_coroutine_threadsafe(self.server.stop(drain=drain), self._loop).result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def start_server_in_background(
    service: FormulaService, config: Optional[ServerConfig] = None
) -> ServerHandle:
    """Start a :class:`FormulaServer` on a daemon thread; returns its handle.

    Blocks until the listening socket is bound, so ``handle.port`` is
    immediately valid (bind failures re-raise here, on the caller).
    """
    server = FormulaServer(service, config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: List[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surface bind errors to the caller
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-server", daemon=True)
    thread.start()
    started.wait()
    if failure:
        raise failure[0]
    return ServerHandle(server, loop, thread)
