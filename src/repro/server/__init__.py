"""The network serving front-end: ``FormulaService`` over JSON/HTTP.

A stdlib-only (``asyncio``) subsystem that puts the in-process serving
layer behind a wire protocol, following the api / schemas / middleware /
services layering of production serving systems:

* ``repro.server.app`` — the HTTP/1.1 protocol layer and routing
  (:class:`FormulaServer`, :class:`ServerConfig`,
  :func:`start_server_in_background`);
* ``repro.server.schemas`` — typed wire schemas and the content-addressed
  :class:`~repro.server.schemas.SheetInterner` that lets identical request
  sheets coalesce;
* ``repro.server.batching`` — the per-workspace micro-batching serve loop
  that turns concurrently arriving requests into one vectorized
  ``serve_batch`` call;
* ``repro.server.admission`` — per-tenant token-bucket rate limiting,
  bounded ingress queues with load shedding, graceful drain;
* ``repro.server.metrics`` — what the server counts (every instrument
  lives in the server's one ``repro.obs.MetricsRegistry``, bumped by the
  code that sees the event) and ``stats_body``, the ``/stats`` view of it;
* ``repro.server.client`` — blocking and async clients plus the
  concurrent swarm driver used by benchmarks and CI smoke tests.

See ``DESIGN.md`` ("Network serving") for protocol and policy details.
"""

from repro.server.admission import AdmissionConfig, AdmissionController, Rejection, TokenBucket
from repro.server.app import (
    FormulaServer,
    ServerConfig,
    ServerHandle,
    start_server_in_background,
)
from repro.server.batching import BatcherPool, ServedResult, WorkspaceBatcher
from repro.server.client import (
    AsyncFormulaClient,
    FormulaClient,
    ServerError,
    SwarmResult,
    run_client_swarm,
    run_swarm,
)
from repro.server.schemas import SchemaError, SheetInterner

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AsyncFormulaClient",
    "BatcherPool",
    "FormulaClient",
    "FormulaServer",
    "Rejection",
    "SchemaError",
    "ServedResult",
    "ServerConfig",
    "ServerError",
    "ServerHandle",
    "SheetInterner",
    "SwarmResult",
    "TokenBucket",
    "WorkspaceBatcher",
    "run_client_swarm",
    "run_swarm",
    "start_server_in_background",
]
