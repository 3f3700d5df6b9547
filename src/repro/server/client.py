"""Clients for the serving front-end: blocking, async, and a swarm driver.

:class:`FormulaClient` is the ergonomic blocking client (stdlib
``http.client``, keep-alive) used by examples and tests.
:class:`AsyncFormulaClient` speaks the same protocol over ``asyncio``
streams; :func:`run_client_swarm` drives N of them concurrently against
one endpoint and reports wall-clock, per-request latencies and status
codes — the measurement harness behind the coalesced-vs-sequential
serving benchmark (``benchmarks/test_fig_serving.py``) and the CI smoke
test.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import summarize
from repro.sheet.io import sheet_to_dict, workbook_to_dict
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

SheetLike = Union[Sheet, Dict[str, object]]


def _sheet_payload(sheet: SheetLike) -> Dict[str, object]:
    return sheet_to_dict(sheet) if isinstance(sheet, Sheet) else sheet


class ServerError(RuntimeError):
    """A non-2xx answer from the server, with its decoded error body."""

    def __init__(self, status: int, body: Dict[str, object], retry_after: Optional[float] = None) -> None:
        super().__init__(f"HTTP {status}: {body.get('error', 'unknown')}")
        self.status = status
        self.body = body
        self.retry_after = retry_after
        self.trace_id: Optional[str] = body.get("trace_id")  # type: ignore[assignment]


class FormulaClient:
    """Blocking JSON/HTTP client for one server (keep-alive connection)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None

    # ----------------------------------------------------------------- plumbing

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "FormulaClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        trace_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, str], Dict[str, object]]:
        """One round trip; returns (status, headers, decoded JSON body)."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        if trace_id is not None:
            headers["X-Trace-Id"] = trace_id
        connection = self._connect()
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (http.client.HTTPException, ConnectionError, OSError):
            # The server may have closed a kept-alive connection (drain,
            # restart); retry once on a fresh one before giving up.
            self.close()
            connection = self._connect()
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        decoded = json.loads(raw.decode("utf-8")) if raw else {}
        return response.status, dict(response.getheaders()), decoded

    def _checked(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        trace_id: Optional[str] = None,
    ):
        status, headers, decoded = self.request(method, path, body, trace_id=trace_id)
        if status != 200:
            retry_after = headers.get("Retry-After")
            raise ServerError(status, decoded, float(retry_after) if retry_after else None)
        return decoded

    # ---------------------------------------------------------------- endpoints

    def health(self) -> Dict[str, object]:
        return self._checked("GET", "/health")

    def stats(self) -> Dict[str, object]:
        return self._checked("GET", "/stats")

    def traces(self) -> Dict[str, object]:
        """Recent + slow trace trees and tracer stats (``GET /traces``)."""
        return self._checked("GET", "/traces")

    def metrics_text(self) -> str:
        """The Prometheus exposition body (``GET /metrics``), as text."""
        connection = self._connect()
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            raw = response.read()
        except (http.client.HTTPException, ConnectionError, OSError):
            self.close()
            connection = self._connect()
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            raw = response.read()
        if response.status != 200:
            raise ServerError(response.status, {"error": raw.decode("utf-8", "replace")})
        return raw.decode("utf-8")

    def recommend(
        self,
        workspace: str,
        sheet: SheetLike,
        cell: str,
        request_id: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, object]:
        body: Dict[str, object] = {"sheet": _sheet_payload(sheet), "cell": cell}
        if request_id is not None:
            body["request_id"] = request_id
        return self._checked(
            "POST", f"/v1/workspaces/{workspace}/recommend", body, trace_id=trace_id
        )

    def recommend_batch(
        self, workspace: str, items: Sequence[Tuple[SheetLike, str]]
    ) -> List[Dict[str, object]]:
        body = {
            "requests": [
                {"sheet": _sheet_payload(sheet), "cell": cell} for sheet, cell in items
            ]
        }
        return self._checked("POST", f"/v1/workspaces/{workspace}/recommend", body)["responses"]

    def edit_cell(
        self,
        workspace: str,
        workbook: str,
        sheet: str,
        cell: str,
        value: object = None,
        formula: Optional[str] = None,
    ) -> Dict[str, object]:
        body: Dict[str, object] = {"workbook": workbook, "sheet": sheet, "cell": cell}
        if formula is not None:
            body["formula"] = formula
        else:
            body["value"] = value
        return self._checked("POST", f"/v1/workspaces/{workspace}/edit-cell", body)

    def add_workbooks(self, workspace: str, workbooks: Sequence[Workbook]) -> Dict[str, object]:
        body = {"workbooks": [workbook_to_dict(workbook) for workbook in workbooks]}
        return self._checked("POST", f"/v1/workspaces/{workspace}/workbooks", body)

    def remove_workbook(self, workspace: str, workbook_name: str) -> Dict[str, object]:
        return self._checked(
            "DELETE", f"/v1/workspaces/{workspace}/workbooks/{workbook_name}"
        )


# --------------------------------------------------------------------- async


class AsyncFormulaClient:
    """Minimal async HTTP/1.1 client over one keep-alive connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "AsyncFormulaClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        body_bytes: Optional[bytes] = None,
        trace_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, str], Dict[str, object]]:
        """One round trip.  ``body_bytes`` sends pre-encoded JSON verbatim —
        callers issuing many requests over the same payload (the swarm
        driver) serialize once instead of per request."""
        await self.connect()
        assert self._reader is not None and self._writer is not None
        if body_bytes is not None:
            payload = body_bytes
        else:
            payload = b"" if body is None else json.dumps(body).encode("utf-8")
        trace_header = f"X-Trace-Id: {trace_id}\r\n" if trace_id is not None else ""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{trace_header}"
            "Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + payload)
        await self._writer.drain()

        status_line = (await self._reader.readline()).decode("latin-1")
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.split(" ", 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = (await self._reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        decoded = json.loads(raw.decode("utf-8")) if raw else {}
        return status, headers, decoded

    async def recommend(
        self,
        workspace: str,
        sheet: SheetLike,
        cell: str,
        request_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, object]]:
        body: Dict[str, object] = {"sheet": _sheet_payload(sheet), "cell": cell}
        if request_id is not None:
            body["request_id"] = request_id
        status, __, decoded = await self.request(
            "POST", f"/v1/workspaces/{workspace}/recommend", body
        )
        return status, decoded


# --------------------------------------------------------------------- swarm


@dataclass
class SwarmResult:
    """What a client swarm observed end to end."""

    wall_seconds: float
    statuses: List[int] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    responses: List[Dict[str, object]] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return len(self.statuses)

    @property
    def n_ok(self) -> int:
        return sum(1 for status in self.statuses if status == 200)

    @property
    def requests_per_second(self) -> float:
        return self.n_requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_summary(self) -> Dict[str, float]:
        """count/p50/p95/p99/max over the client-observed latencies: exact
        percentiles of the finished list, by the server's own estimator."""
        latencies = self.latencies
        return summarize(latencies, len(latencies), sum(latencies), max(latencies, default=0.0))


async def run_swarm(
    host: str,
    port: int,
    workspace: str,
    tasks: Sequence[Tuple[Dict[str, object], str]],
    concurrency: int = 8,
) -> SwarmResult:
    """Fire ``tasks`` (sheet payload, cell) through ``concurrency`` workers.

    Every worker owns one keep-alive connection and walks its share of the
    task list sequentially, so at any instant up to ``concurrency``
    requests are in flight — the arrival pattern the micro-batcher is
    built to coalesce.  Latency is measured per request, client-side.
    """
    if concurrency <= 0:
        raise ValueError("concurrency must be positive")
    result = SwarmResult(wall_seconds=0.0)
    lock = asyncio.Lock()
    path = f"/v1/workspaces/{workspace}/recommend"
    # Serialize every request body up front, outside the timed window: a
    # real client encodes a payload once and reuses the bytes, and the
    # benchmark should measure the server, not the harness's json.dumps.
    bodies = [
        json.dumps(
            {"sheet": sheet_payload, "cell": cell, "request_id": str(position)}
        ).encode("utf-8")
        for position, (sheet_payload, cell) in enumerate(tasks)
    ]

    async def worker(worker_index: int) -> None:
        client = AsyncFormulaClient(host, port)
        try:
            for position in range(worker_index, len(tasks), concurrency):
                begin = time.perf_counter()
                status, __, body = await client.request(
                    "POST", path, body_bytes=bodies[position]
                )
                elapsed = time.perf_counter() - begin
                async with lock:
                    result.statuses.append(status)
                    result.latencies.append(elapsed)
                    result.responses.append(body)
        finally:
            await client.close()

    started = time.perf_counter()
    await asyncio.gather(*(worker(index) for index in range(min(concurrency, len(tasks)))))
    result.wall_seconds = time.perf_counter() - started
    return result


def run_client_swarm(
    host: str,
    port: int,
    workspace: str,
    tasks: Sequence[Tuple[Dict[str, object], str]],
    concurrency: int = 8,
) -> SwarmResult:
    """Blocking wrapper around :func:`run_swarm` (runs its own loop)."""
    return asyncio.run(run_swarm(host, port, workspace, tasks, concurrency=concurrency))
