"""Measurement kit of the perf benchmark: environment fingerprint, the
machine-speed canary, op logs with blocked statistics, and the in-memory
span recorder with its class-level timing shims.

Nothing here knows a workload; ``perf_workloads.py`` drives the program
and records into these structures, ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Share of a timed phase's units that is run but not measured.
WARMUP_SHARE = 0.10
#: A timed phase is cut into this many equal blocks of units.
N_BLOCKS = 5
#: A per-block statistic needs this many samples in every block; with
#: fewer the statistic is taken once over the pooled samples.
MIN_BLOCK_SAMPLES = {"p50": 20, "p95": 100, "p99": 500, "rate": 3, "median": 3}

# ------------------------------------------------------------ environment


def fingerprint() -> dict:
    """What a reader needs to tell machine drift from code change."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": {
            name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "loadavg": list(os.getloadavg()),
    }


#: The machine speed every reported time is normalized to: a time measured
#: while the canary read ``c`` ms is reported times ``CANARY_REFERENCE_MS / c``.
CANARY_REFERENCE_MS = 3.5

_rng = np.random.default_rng(12345)
_MATRIX = _rng.standard_normal((192, 192)).astype(np.float32)
_VECTORS = [_rng.standard_normal(64).astype(np.float32) for __ in range(64)]
_STREAM = _rng.standard_normal(2_000_000).astype(np.float32)
_STREAM_OUT = np.empty_like(_STREAM)


def _canary_blas() -> None:
    block = _MATRIX
    for __ in range(10):
        block = block @ _MATRIX
        block /= np.abs(block).max()
    total = 0
    for index in range(40_000):
        total += (index * index) % 7


def _canary_objects() -> None:
    groups = {}
    for index in range(12_000):
        groups.setdefault((index % 97, str(index % 13)), []).append(index)
    sorted(groups, key=lambda key: (key[1], -key[0]))


def _canary_small_arrays() -> None:
    total = 0.0
    for index in range(1_000):
        left, right = _VECTORS[index % 64], _VECTORS[(index * 7) % 64]
        total += float(np.dot(left, right))
        total += float(np.concatenate([left[:8], right[:8]]).max())


def _canary_stream() -> None:
    for __ in range(2):
        np.multiply(_STREAM, 1.0001, out=_STREAM_OUT)


_CANARY_PARTS = (_canary_blas, _canary_objects, _canary_small_arrays, _canary_stream)


def canary_ms() -> float:
    """The machine's speed right now: geometric mean of the times of four
    fixed kernels (BLAS + integer loop, Python objects, many small NumPy
    calls, memory streaming; ~3.5 ms each).

    The mix is what the program does; one kernel alone tracked an
    unchanged ``recommend`` loop half as well (README.md).  The kernels
    never change and call nothing of the program, so a change to the
    program cannot move them.
    """
    logs = 0.0
    for part in _CANARY_PARTS:
        start = time.perf_counter()
        part()
        logs += math.log(time.perf_counter() - start)
    return math.exp(logs / len(_CANARY_PARTS)) * 1e3


def speed_factor(*canaries: float) -> float:
    """What to multiply a time by that was measured between these canaries."""
    return CANARY_REFERENCE_MS / statistics.fmean(canaries)


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------- ops and statistics


class OpLog:
    """Client-side record of every op a phase issued.

    A *unit* is the smallest piece of a workload's stream that repeats (a
    request, a batch, a session, a churn cycle); blocks are made of whole
    units.  An op is ``[kind, seconds, n_ok, n_failed, factor]``: a call
    carrying ``n`` requests (a ``serve_batch`` of 16) gives ``n`` latency
    samples of the call's wall time; failed requests count in ``n_failed``
    and give none.

    The host's speed moves by +-15 % within seconds (see README.md), so
    whoever records brackets short stretches of ops with the canary and
    stores the stretch's speed factor on its ops; every statistic is
    taken over ``seconds * factor``.
    """

    def __init__(self, callers: int = 1) -> None:
        self.callers = callers
        self.units = []  # (start, [ops])
        self.matched = 0
        self.asked = 0

    def unit(self, start: float, ops: list) -> None:
        self.units.append((start, ops))

    def normalize(self, first: int, factor: float) -> None:
        """Give every op of the units recorded since index ``first`` this
        speed factor, unless its recorder already gave it a closer one."""
        for __, ops in self.units[first:]:
            for op in ops:
                if op[4] is None:
                    op[4] = factor

    def op_count(self):
        attempted = failed = 0
        for __, ops in self.units:
            for __, __, n_ok, n_failed, __ in ops:
                attempted += n_ok + n_failed
                failed += n_failed
        return attempted, failed

    def blocks(self, n_blocks: int = N_BLOCKS):
        """Measured units in ``n_blocks`` equal contiguous groups (start
        order); the warm-up share and the remainder are dropped up front."""
        units = sorted(self.units, key=lambda unit: unit[0])
        per_block = int(len(units) * (1.0 - WARMUP_SHARE)) // n_blocks
        if per_block == 0:
            return [units] if units else []
        measured = units[len(units) - per_block * n_blocks :]
        return [measured[i * per_block : (i + 1) * per_block] for i in range(n_blocks)]


def _percentile(ordered: list, fraction: float) -> float:
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def _ops(block, kind: str = ""):
    """``(normalized seconds, n_ok)`` of a block's ops (of one kind)."""
    return [
        (seconds * (factor or 1.0), n_ok)
        for __, ops in block
        for op_kind, seconds, n_ok, __, factor in ops
        if not kind or op_kind == kind
    ]


def _count(block, kind: str, stat: str) -> int:
    if stat == "throughput":
        # Every request of a recommend call is an op; any other call (an
        # ingest group, an edit, a save) is one op.
        return sum(
            n_ok if op_kind == "recommend" else min(n_ok, 1)
            for __, ops in block
            for op_kind, __, n_ok, __, __ in ops
        )
    if stat in ("rate", "median"):
        return sum(1 for __, n_ok in _ops(block, kind) if n_ok)
    return sum(n_ok for __, n_ok in _ops(block, kind))


def _stat(block, kind: str, stat: str, callers: int):
    """One statistic of one block, or ``None`` without samples."""
    if stat == "throughput":
        busy = sum(seconds for seconds, __ in _ops(block))
        done = _count(block, kind, stat)
        return callers * done / busy if busy > 0 and done else None
    if stat == "rate":  # median over calls of items carried per second
        rates = [n_ok / seconds for seconds, n_ok in _ops(block, kind) if n_ok and seconds > 0]
        return statistics.median(rates) if rates else None
    samples = sorted(seconds for seconds, n_ok in _ops(block, kind) for __ in range(n_ok))
    if not samples:
        return None
    if stat == "median":
        return statistics.median(samples)
    return _percentile(samples, {"p50": 0.50, "p95": 0.95, "p99": 0.99}[stat])


def blocked(log: OpLog, kind: str, stat: str, scale: float = 1.0):
    """Median over blocks of a per-block statistic, with its spread.

    Returns ``{"value", "spread": [q1, q3] | None, "n", "blocks"}`` or
    ``None`` when the log holds no sample of ``kind``.  When a block would
    hold fewer samples than the statistic needs, the statistic is taken
    once over all measured units (``blocks == 1``, no spread).
    """
    blocks = log.blocks()
    counts = [_count(block, kind, stat) for block in blocks]
    if not sum(counts):
        return None
    if len(blocks) > 1 and min(counts) < MIN_BLOCK_SAMPLES.get(stat, 1):
        blocks = [[unit for block in blocks for unit in block]]
    values = [_stat(block, kind, stat, log.callers) for block in blocks]
    values = [value * scale for value in values if value is not None]
    if not values:
        return None
    spread = None
    if len(values) >= 2:
        quartiles = statistics.quantiles(values, n=4)
        spread = [quartiles[0], quartiles[2]]
    return {
        "value": statistics.median(values),
        "spread": spread,
        "n": sum(counts),
        "blocks": len(values),
    }


def rel_spread(entry) -> float:
    """Interquartile distance of the blocks as a share of the median."""
    if not entry or not entry.get("spread") or not entry["value"]:
        return 0.0
    return (entry["spread"][1] - entry["spread"][0]) / abs(entry["value"])


# ------------------------------------------------------------------ spans


class Recorder:
    """In-memory spans: ``(id, name, start, end, parent id, request id)``.

    Parents are tracked per thread (a span's parent is the span open on
    the same thread when it started); ``request`` tags every span opened
    while a harness op is in flight on that thread.  Spans are appended
    when they end, which is atomic under the interpreter lock, so
    executor threads of the server child can record without a mutex.
    """

    def __init__(self) -> None:
        self.spans = []
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    # -- recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[3]
        frame = (next(self._ids), name, parent[0] if parent else 0, request, time.perf_counter())
        stack.append(frame)
        return frame

    def end(self, frame) -> float:
        end = time.perf_counter()
        self._stack().pop()
        span_id, name, parent, request, start = frame
        self.spans.append((span_id, name, start, end, parent, request))
        return end

    def finished(self, name: str, start: float, end: float, request=None) -> None:
        """Record a span timed by the caller (ops of interleaved asyncio
        tasks cannot use the per-thread open-span stack)."""
        self.spans.append((next(self._ids), name, start, end, 0, request))

    def span(self, name: str, request=None):
        return _SpanContext(self, name, request)

    def count(self, name: str, amount: float = 1.0) -> None:
        # Unlocked read-modify-write: counts are only taken on one thread
        # per process at a time in practice (the serving thread), and a
        # lost update would cost one increment of a descriptive counter.
        self.counts[name] = self.counts.get(name, 0.0) + amount

    # -- shims

    def shim(self, owner, attribute: str, name: str, counter=None) -> None:
        """Time every call of ``owner.attribute`` as a span called ``name``.

        ``counter(args, kwargs, result)`` may return ``{count name: amount}``
        recorded beside the span.  Installed on the class, so every
        instance — existing or future — is covered; :meth:`uninstall`
        puts the originals back.
        """
        original = owner.__dict__[attribute]
        function = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original
        recorder = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            frame = recorder.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.end(frame)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    recorder.count(key, amount)
            return result

        wrapped = type(original)(timed) if isinstance(original, (classmethod, staticmethod)) else timed
        setattr(owner, attribute, wrapped)
        self._undo.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- analysis

    def table(self) -> dict:
        """Per span name: calls, total time, self time (all in seconds).

        Self time is a span's duration minus the part its children cover;
        children run on the parent's thread, so they never overlap and
        the covered part is the sum of their durations.
        """
        spans = self.spans
        covered = {}
        for __, __, start, end, parent, __ in spans:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
        rows = {}
        for span_id, name, start, end, __, __ in spans:
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += max((end - start) - covered.get(span_id, 0.0), 0.0)
        return rows


class _SpanContext:
    __slots__ = ("recorder", "name", "request", "frame")

    def __init__(self, recorder, name, request) -> None:
        self.recorder, self.name, self.request = recorder, name, request

    def __enter__(self):
        self.frame = self.recorder.begin(self.name, self.request)
        return self

    def __exit__(self, *exc_info) -> None:
        self.recorder.end(self.frame)


def layer_summary(spans, counts) -> dict:
    """Raw per-layer aggregates (seconds and counts) of one process.

    Nested shims of one layer (``search`` over ``search_batch``, a
    ``Sequential`` over its layers) are counted once, at the outermost
    span.  ``*_serve_s`` are restricted to spans with a ``service.serve``
    ancestor, i.e. to recommend traffic; ``staged_predict_s`` further to
    the harness's own serves of the staged pass.
    """
    by_id = {span[0]: span for span in spans}
    memo = {"service.serve": {}, "staged.serve": {}}

    def under(span_id: int, ancestor: str) -> bool:
        known = memo[ancestor].get(span_id)
        if known is None:
            span = by_id.get(span_id)
            known = span is not None and (span[1] == ancestor or under(span[4], ancestor))
            memo[ancestor][span_id] = known
        return known

    out = {key: 0.0 for key in (
        "serve_s", "predict_s", "staged_predict_s", "featurize_serve_s", "forward_serve_s", "forward_serve_calls",
        "search_serve_s", "sheet_hits_calls", "sheet_vector_misses", "edit_calls", "edit_s",
        "reindex_s", "recalc_s", "ann_add_calls", "ann_add_s", "ann_remove_calls",
        "ann_remove_s", "log_append_calls", "log_append_s", "covered_s", "client_s",
    )}
    for span_id, name, start, end, parent, __ in spans:
        seconds = end - start
        parent_span = by_id.get(parent)
        parent_name = parent_span[1] if parent_span else ""
        if name.startswith("client."):
            out["client_s"] += seconds
        elif name.startswith("service.") and (
            parent_span is None or parent_name.startswith("client.")
        ):
            # The first span inside the program: the part of an op's time
            # that is attributed to a layer at all.
            out["covered_s"] += seconds
        if name == parent_name:
            continue
        if name == "service.serve":
            out["serve_s"] += seconds
        elif name == "service.edit":
            out["edit_calls"] += 1
            out["edit_s"] += seconds
        elif name in ("core.remove_workbook", "core.add_workbooks") and parent_name == "service.edit":
            out["reindex_s"] += seconds
        elif name == "formula.recalc":
            out["recalc_s"] += seconds
        elif name == "ann.add":
            out["ann_add_calls"] += 1
            out["ann_add_s"] += seconds
        elif name == "ann.remove":
            out["ann_remove_calls"] += 1
            out["ann_remove_s"] += seconds
        elif name == "persistence.log_append":
            out["log_append_calls"] += 1
            out["log_append_s"] += seconds
        elif under(parent, "service.serve"):
            if name == "core.predict_batch":
                out["predict_s"] += seconds
                if under(parent, "staged.serve"):
                    out["staged_predict_s"] += seconds
            elif name == "core.sheet_hits":
                out["sheet_hits_calls"] += 1
            elif name == "features.featurize_sheet":
                out["sheet_vector_misses"] += 1
                out["featurize_serve_s"] += seconds
            elif name == "features.featurize":
                out["featurize_serve_s"] += seconds
            elif name == "models.forward":
                out["forward_serve_calls"] += 1
                out["forward_serve_s"] += seconds
            elif name == "ann.search":
                out["search_serve_s"] += seconds
    for key in ("service.requests", "service.cells_predicted", "ann.rows_scored", "formula.recalc_cells"):
        out[key] = float(counts.get(key, 0.0))
    return out


def install_layer_shims(recorder: Recorder) -> None:
    """Class-level timing shims on the public methods of each layer.

    Imported lazily so that importing this module never imports the
    program.  Only names that exist are shimmed: a later change that
    removes a method loses that layer's span, not the benchmark.
    """
    from repro.ann.base import VectorIndex
    from repro.core.pipeline import AutoFormula
    from repro.features.window import WindowFeaturizer
    from repro.formula.engine import FormulaEngine
    from repro.nn import layers as nn_layers
    from repro.nn.sequential import Sequential
    from repro.persistence.log import MutationLog
    from repro.service.workspace import Workspace

    def install(owner, attribute, name, counter=None):
        if attribute in owner.__dict__:
            recorder.shim(owner, attribute, name, counter)

    def rows_scored(args, kwargs, result):
        index, queries = args[0], np.asarray(args[1])
        positions = kwargs.get("positions", args[3] if len(args) > 3 else None)
        pool = len(positions) if positions is not None else len(index)
        return {"ann.rows_scored": float(max(queries.shape[0] if queries.ndim == 2 else 1, 1) * pool)}

    install(Workspace, "serve_batch", "service.serve",
            lambda args, kwargs, result: {"service.requests": float(len(result))})
    install(Workspace, "edit_cell", "service.edit",
            lambda args, kwargs, result: {"formula.recalc_cells": float(result.total)})
    install(Workspace, "add_workbooks", "service.add")
    install(Workspace, "remove_workbook", "service.remove")
    install(Workspace, "save", "service.save")
    install(Workspace, "load", "service.load")
    install(AutoFormula, "predict_batch", "core.predict_batch",
            lambda args, kwargs, result: {"service.cells_predicted": float(len(result))})
    install(AutoFormula, "sheet_hits", "core.sheet_hits")
    install(AutoFormula, "fit", "core.fit")
    install(AutoFormula, "add_workbooks", "core.add_workbooks")
    install(AutoFormula, "remove_workbook", "core.remove_workbook")
    install(WindowFeaturizer, "featurize_sheet", "features.featurize_sheet")
    for attribute in ("featurize_regions", "padded_sheet_tensor"):
        install(WindowFeaturizer, attribute, "features.featurize")
    install(Sequential, "forward", "models.forward")
    for layer in vars(nn_layers).values():
        if isinstance(layer, type) and issubclass(layer, nn_layers.Layer) and layer is not nn_layers.Layer:
            install(layer, "forward", "models.forward")
    install(VectorIndex, "search_batch", "ann.search", rows_scored)
    install(VectorIndex, "search", "ann.search")
    install(VectorIndex, "add_batch", "ann.add")
    install(VectorIndex, "remove_batch", "ann.remove")
    install(FormulaEngine, "recalculate", "formula.recalc")
    install(MutationLog, "append", "persistence.log_append")


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def finite(value: float) -> float:
    if value is None or not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not a finite number")
    return float(value)


def log(message: str) -> None:
    """Progress goes to stderr: stdout's last line is the result."""
    print(message, file=sys.stderr, flush=True)
