"""The four workloads of the perf benchmark (see README.md for the why).

Every workload builds its own world from constants — the corpus preset,
its scale and the encoder seeds never change with ``--seed``; the seed
drives only request order, Zipf draws, edit targets and which pool
workbooks churn.  The program is driven through public ``repro.*`` names
with default configuration throughout.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perf_harness import OUT_DIR, ROOT, OpLog, canary_ms, log, speed_factor

from repro import (
    FormulaService,
    RecommendationRequest,
    build_enterprise_corpus,
    build_training_universe,
    generate_training_pairs,
    train_models,
)
from repro.evaluation import prepare_corpus_evaluation
from repro.evaluation.metrics import formulas_match
from repro.formula.template import normalize_formula
from repro.models import ModelConfig, SheetEncoder, TrainingConfig
from repro.persistence import load_arrays, load_corpus, read_manifest, save_arrays, save_corpus
from repro.server.client import AsyncFormulaClient
from repro.server.schemas import SheetInterner, decode_recommend_payload, encode_response
from repro.server import ServerConfig
from repro.sheet.io import sheet_to_dict

HERE = Path(__file__).resolve().parent
WORKSPACE = "bench"
RECOMMEND_PATH = f"/v1/workspaces/{WORKSPACE}/recommend"
EDIT_PATH = f"/v1/workspaces/{WORKSPACE}/edit-cell"
#: One churn cycle: ingest ``CYCLE_ADDS`` pool workbooks in groups of
#: ``ADD_GROUP``, edit ``CYCLE_EDITS`` value cells of resident workbooks,
#: remove what was added, probe, save, then load + first serve.
CYCLE_ADDS, ADD_GROUP, CYCLE_EDITS, CYCLE_PROBES = 20, 4, 30, 16
#: ``--quick`` (the smoke test): corpus scale and a cycle of a tenth.
QUICK_SCALE, QUICK_CYCLE = 0.5, (4, 6, 4)
#: After the timed phase of a workload whose stream has no edits an
#: untraced run edits ``TAIL_EDITS`` cells (``edit_p50_ms`` is reported on
#: every workload), and a traced run of a workload that is not the churn
#: itself runs ``TAIL_CYCLES`` churn cycles, so the per-layer table has the
#: write path at every corpus size.
TAIL_CYCLES = 3
TAIL_EDITS = CYCLE_EDITS * 4
#: Seed of the write script (edit order and values), the same on every run.
SCRIPT_SEED = 20240521


def train_encoder() -> SheetEncoder:
    universe = build_training_universe(n_families=8, copies_per_family=3, n_singletons=6, seed=7)
    pairs = generate_training_pairs(universe, seed=0)
    encoder, __ = train_models(pairs, ModelConfig(), TrainingConfig(epochs=8, seed=0))
    return encoder


def build_evaluation(preset: str, scale: float):
    """Timestamp split of a preset corpus: reference workbooks, held-out
    test workbooks and the test cases sampled from them."""
    corpus = build_enterprise_corpus(preset, scale=scale)
    return prepare_corpus_evaluation(corpus, "timestamp", 0.15)


def value_slots(workbooks) -> list:
    """(workbook, sheet, cell) of every plain number on a sheet that has
    formulas: overwriting one always feeds the incremental recalculation."""
    slots = []
    for workbook in workbooks:
        for sheet in workbook:
            if not sheet.n_formulas():
                continue
            for address, cell in sheet.cells():
                if cell.has_formula or isinstance(cell.value, bool):
                    continue
                if isinstance(cell.value, (int, float)):
                    slots.append((workbook.name, sheet.name, address.to_a1()))
    return slots


def fixed_sample(items: list, size: int) -> list:
    """The same ``size`` items on every run and every seed."""
    chosen = np.random.default_rng(SCRIPT_SEED).choice(len(items), size=min(size, len(items)), replace=False)
    return [items[int(i)] for i in chosen]


def answer(response):
    return (response.formula, float(response.confidence))


class Workload:
    """Set-up, timed phase, write tail and answer checks of one workload."""

    name = ""
    why = ""
    preset, scale = "", 1.0
    callers = 1
    #: What the timed stream writes: nothing, ``"edits"`` or ``"all"``.
    writes = ""
    #: Probes of the first this-many recorded cycles count in ``match_share``
    #: (``None``: all of them).
    scored_cycles = None

    def __init__(self, seed: int, quick: bool = False, encoder=None) -> None:
        self.quick = quick
        self.rng = np.random.default_rng(seed)
        self.encoder = encoder
        #: Set by a traced run once its untraced reference phase is over.
        self.recorder = None
        self.times = {}
        self.checks = {"attempted": 0, "failed": 0}
        self._requests = itertools.count(1)
        self._scratch = OUT_DIR / f"tmp-{os.getpid()}-{self.name}"
        self._match_cache = {}
        self.scale = QUICK_SCALE if quick else self.scale
        self.cycle = QUICK_CYCLE if quick else (CYCLE_ADDS, CYCLE_EDITS, CYCLE_PROBES)

    # ----------------------------------------------------------------- set-up

    def setup(self) -> None:
        """Everything before the first measured op; timed by the caller."""
        start = time.perf_counter()
        if self.encoder is None:
            self.encoder = train_encoder()
        self.times["train_s"] = time.perf_counter() - start
        self.evaluation = build_evaluation(self.preset, self.scale)
        self.service = FormulaService(self.encoder)
        self.build()

    def fit(self, workbooks):
        start = time.perf_counter()
        workspace = self.service.create_workspace(WORKSPACE, workbooks=workbooks)
        self.times["fit_s"] = time.perf_counter() - start
        self.times["fit_workbooks"] = len(workbooks)
        return workspace

    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self._scratch, ignore_errors=True)

    # ---------------------------------------------------------------- helpers

    def call(self, kind: str, function, *args, **kwargs):
        """Run one op; returns ``(result, start, end)``.  In a traced run
        the op is also the root span of its request."""
        recorder = self.recorder
        if recorder is None:
            start = time.perf_counter()
            result = function(*args, **kwargs)
            return result, start, time.perf_counter()
        frame = recorder.begin("client." + kind, request=next(self._requests))
        try:
            result = function(*args, **kwargs)
        finally:
            end = recorder.end(frame)
        return result, frame[4], end

    def check(self, ok: bool, what: str) -> bool:
        self.checks["attempted"] += 1
        if not ok:
            self.checks["failed"] += 1
            log(f"[{self.name}] check failed: {what}")
        return ok

    def score(self, oplog: OpLog, key, formula, truth: str) -> None:
        """Count one primary ask against its ground truth."""
        matched = self._match_cache.get((key, formula))
        if matched is None:
            matched = bool(formula) and formulas_match(formula, truth)
            self._match_cache[(key, formula)] = matched
        oplog.asked += 1
        oplog.matched += matched

    def case_requests(self, cases):
        order = self.rng.permutation(len(cases))
        cases = [cases[int(i)] for i in order]
        requests = [RecommendationRequest(case.target_sheet, case.target_cell) for case in cases]
        return requests, [case.ground_truth for case in cases]

    # --------------------------------------------------------- the write path

    def prepare_churn(self, resident, pool, probes, edits: int, seeded: bool = False) -> None:
        """The write path's inputs.  *Which* workbooks churn and *which*
        cells are edited is the same on every seed — their sizes decide
        what an op costs — and so are the edits' order and values: the
        probes' answers depend on which edits have landed.  The seed
        (``seeded``, the churn workload) orders the pool; a tail is the
        same script on every run."""
        self.pool = list(pool)
        self.edit_targets = fixed_sample(value_slots(resident), edits)
        if seeded:
            self.pool = [self.pool[int(i)] for i in self.rng.permutation(len(self.pool))]
        self.probes = probes
        self._script_rng = np.random.default_rng(SCRIPT_SEED)
        self._pool_at = self._edit_at = self._probe_at = self._cycles = 0

    def edit_phase(self, workspace, count: int) -> list:
        """The next ``count`` edits of the write script, as ops."""
        ops = []
        for __ in range(count):
            workbook, sheet, cell = self.edit_targets[self._edit_at % len(self.edit_targets)]
            self._edit_at += 1
            value = float(np.round(self._script_rng.uniform(1.0, 10_000.0), 2))
            __, start, end = self.call("edit", workspace.edit_cell, workbook, sheet, cell, value=value)
            ops.append(["edit", end - start, 1, 0, None])
        return ops

    def edit_tail(self, workspace, oplog) -> None:
        """``TAIL_EDITS`` edits, a cycle's worth between two canaries."""
        n_edits = self.cycle[1]
        for __ in range(1 if self.quick else TAIL_EDITS // n_edits):
            start, before = time.perf_counter(), canary_ms()
            ops = self.edit_phase(workspace, n_edits)
            factor = speed_factor(before, canary_ms())
            for op in ops:
                op[4] = factor
            oplog.unit(start, ops)

    def churn_cycle(self, workspace, oplog, record: bool = True) -> None:
        """One add → edit → remove → probe → save → restore cycle.

        Its phases take from 1 ms to 0.5 s, so the canary runs between
        them and every op carries the speed factor of its own phase.
        """
        ops, cycle_start = [], time.perf_counter()
        mark = [canary_ms(), 0]

        def phase_done() -> None:
            after = canary_ms()
            for op in ops[mark[1] :]:
                op[4] = speed_factor(mark[0], after)
            mark[:] = [after, len(ops)]

        n_adds, n_edits, n_probes = self.cycle
        adds = min(n_adds, len(self.pool))
        chosen = [self.pool[(self._pool_at + i) % len(self.pool)] for i in range(adds)]
        self._pool_at = (self._pool_at + adds) % len(self.pool)
        for at in range(0, adds, ADD_GROUP):
            group = chosen[at : at + ADD_GROUP]
            __, start, end = self.call("add", workspace.add_workbooks, group)
            ops.append(["add", end - start, len(group), 0, None])
        phase_done()
        ops.extend(self.edit_phase(workspace, n_edits))
        phase_done()
        for workbook in chosen:
            __, start, end = self.call("remove", workspace.remove_workbook, workbook.name)
            ops.append(["remove", end - start, 1, 0, None])
        # Probes come after the removes: the corpus they see does not
        # depend on the seed's pool order, and it carries tombstones.
        for __ in range(n_probes):
            request, truth = self.probes[self._probe_at % len(self.probes)]
            self._probe_at += 1
            response, start, end = self.call("recommend", workspace.recommend, request)
            ops.append(["recommend", end - start, 1, 0, None])
            if record and (self.scored_cycles is None or self._cycles < self.scored_cycles):
                self.score(oplog, ("probe", id(request)), response.formula, truth)
        live = answer(response)
        directory = self.snapshot_dir = self._scratch / "snapshot"

        def restore():
            restored = FormulaService(self.encoder).load_workspace(directory)
            return restored.recommend(request)

        shutil.rmtree(directory, ignore_errors=True)
        # A save or a restore is one sample: neither the collector's state
        # (the restore is bimodal, 100 vs 170 ms, on when a full collection
        # falls) nor write-back of earlier snapshots must decide it.
        os.sync()
        gc.collect()
        phase_done()
        __, start, end = self.call("save", workspace.save, directory)
        ops.append(["save", end - start, 1, 0, None])
        gc.collect()
        phase_done()
        response, start, end = self.call("restore", restore)
        same = self.check(answer(response) == live, "restored answer differs from live answer")
        ops.append(["restore", end - start, int(same), int(not same), None])
        phase_done()
        if record:
            oplog.unit(cycle_start, ops)
            self._cycles += 1

    # ------------------------------------------------------------ traced runs

    def staged_groups(self) -> list:
        """``[(sheet, [cells])]``: a sample of this workload's recommend
        requests, grouped the way ``serve_batch`` would group them."""
        return [(request.sheet, [request.cell]) for request in self.requests[:200]]

    def staged_pass(self) -> dict:
        """Serve a sample of requests, then drive the public staged API on
        the same requests; the answers must agree.  Returns the number of
        requests served."""
        recorder, workspace = self.recorder, self.workspace
        predictor = workspace.predictor
        threshold = predictor.config.acceptance_threshold
        groups = self.staged_groups()[: 24 if self.quick else None]
        served = []
        for sheet, cells in groups:
            with recorder.span("staged.serve"):
                responses = workspace.serve_batch(
                    [RecommendationRequest(sheet, cell) for cell in cells]
                )
            served.append([response.formula for response in responses])
        for (sheet, cells), expected in zip(groups, served):
            with recorder.span("core.s1_embed"):
                query = predictor.sheet_query_vector(sheet)
            with recorder.span("core.s1_search"):
                sheet_ids = [int(hit.key) for hit in predictor.sheet_hits(sheet, query_vector=query)]
            formulas = [None] * len(cells)
            if sheet_ids:
                with recorder.span("core.s2_embed"):
                    vectors = predictor.region_query_vectors(sheet, cells)
                with recorder.span("core.s2_search"):
                    scored = predictor.predict_batch_scored(
                        sheet, cells, sheet_ids, target_vectors=vectors, adapt=False
                    )
                winners = [
                    (position, (cells[position], sheet_ids[item.sheet_rank], item.formula_index, item.distance))
                    for position, item in enumerate(scored)
                    if item is not None and item.distance <= threshold
                ]
                with recorder.span("core.s3_adapt"):
                    adapted = predictor.adapt_batch(sheet, [item for __, item in winners])
                for (position, __), prediction in zip(winners, adapted):
                    formulas[position] = prediction.formula if prediction is not None else None
            self.check(formulas == expected, "staged-API answers differ from serve_batch answers")
        return {"requests": sum(len(cells) for __, cells in groups)}

    def persistence_replay(self) -> dict:
        """Time the snapshot's parts through the public persistence calls."""
        recorder, workspace = self.recorder, self.workspace
        directory = self._scratch / "replay"
        shutil.rmtree(directory, ignore_errors=True)
        __, arrays = workspace.predictor.snapshot_state()
        with recorder.span("persistence.save_corpus"):
            save_corpus(directory, workspace.workbooks())
        with recorder.span("persistence.save_arrays"):
            save_arrays(directory, arrays)
        manifest = read_manifest(self.snapshot_dir)
        with recorder.span("persistence.load"):
            load_corpus(self.snapshot_dir, manifest.get("workbooks", []))
            load_arrays(self.snapshot_dir, manifest.get("arrays", []))
        size = sum(path.stat().st_size for path in self.snapshot_dir.rglob("*") if path.is_file())
        return {"snapshot_mb": size / 1e6}


# ------------------------------------------------------------ inproc_distinct


class InprocDistinct(Workload):
    name = "inproc_distinct"
    why = (
        "every request has its own target sheet (working set >> the 8-entry caches): "
        "pays featurization, both forwards and S3; caches and index search do least here"
    )
    preset, scale = "PGE", 4

    def build(self) -> None:
        evaluation = self.evaluation
        self.workspace = self.fit(evaluation.reference_workbooks)
        self.requests, self.truths = self.case_requests(evaluation.cases)
        # One untimed pass fills lazy state and fixes the answers every
        # later pass over the same case must repeat.
        self.expected = [answer(self.workspace.recommend(request)) for request in self.requests]
        self.position = 0
        self.prepare_churn(
            evaluation.reference_workbooks,
            evaluation.test_workbooks,
            list(zip(self.requests, self.truths)),
            edits=TAIL_EDITS,
        )

    def run(self, seconds: float, oplog: OpLog) -> None:
        workspace, requests, total = self.workspace, self.requests, len(self.requests)
        deadline = time.perf_counter() + seconds
        position = self.position
        while time.perf_counter() < deadline:
            at = position % total
            response, start, end = self.call("recommend", workspace.recommend, requests[at])
            ok = answer(response) == self.expected[at]
            oplog.unit(start, [["recommend", end - start, int(ok), int(not ok), None]])
            self.score(oplog, at, response.formula, self.truths[at])
            position += 1
        self.position = position


# ----------------------------------------------------------------- inproc_hot


class InprocHot(Workload):
    name = "inproc_hot"
    why = (
        "8 hot target sheets exactly fill the caches, Zipf-drawn cells repeat inside "
        "batches of 16 on the largest corpus: time goes to grouping, S1/S2 search and S3"
    )
    preset, scale = "Enron", 3
    hot_sheets, batch_size, n_batches, zipf = 8, 16, 256, 1.5

    def build(self) -> None:
        evaluation = self.evaluation
        self.workspace = self.fit(evaluation.reference_workbooks)
        candidates = [
            sheet for workbook in evaluation.test_workbooks for sheet in workbook if sheet.n_formulas()
        ]
        candidates.sort(key=lambda sheet: -sheet.n_formulas())  # stable: corpus order breaks ties
        self.sheets = [sheet.copy() for sheet in candidates[: self.hot_sheets]]
        self.cells = [[address for address, __ in sheet.formula_cells()] for sheet in self.sheets]
        self.truth = {
            (index, address): normalize_formula(cell.formula)
            for index, sheet in enumerate(self.sheets)
            for address, cell in sheet.formula_cells()
        }
        rng = self.rng
        self.batches = []
        for __ in range(self.n_batches):
            batch = []
            for __ in range(self.batch_size):
                sheet = int(rng.integers(len(self.sheets)))
                cell = min(int(rng.zipf(self.zipf)) - 1, len(self.cells[sheet]) - 1)
                batch.append((sheet, self.cells[sheet][cell]))
            self.batches.append(batch)
        # One request at a time fixes the answers batches must reproduce.
        self.expected = {
            key: answer(self.workspace.recommend(RecommendationRequest(self.sheets[key[0]], key[1])))
            for key in dict.fromkeys(key for batch in self.batches for key in batch)
        }
        self.position = 0
        case_requests, truths = self.case_requests(evaluation.cases)
        self.prepare_churn(
            evaluation.reference_workbooks,
            evaluation.test_workbooks,
            list(zip(case_requests, truths)),
            edits=TAIL_EDITS,
        )

    def _requests_of(self, batch):
        return [RecommendationRequest(self.sheets[sheet], cell) for sheet, cell in batch]

    def run(self, seconds: float, oplog: OpLog, workspace=None) -> None:
        workspace = workspace or self.workspace
        deadline = time.perf_counter() + seconds
        position = self.position
        while time.perf_counter() < deadline:
            batch = self.batches[position % len(self.batches)]
            responses, start, end = self.call(
                "recommend", workspace.serve_batch, self._requests_of(batch)
            )
            ok = sum(answer(response) == self.expected[key] for key, response in zip(batch, responses))
            oplog.unit(start, [["recommend", end - start, ok, len(batch) - ok, None]])
            for key, response in zip(batch, responses):
                self.score(oplog, key, response.formula, self.truth[key])
            position += 1
        self.position = position

    def staged_groups(self) -> list:
        groups = []
        for batch in self.batches[:32]:
            by_sheet = {}
            for sheet, cell in batch:
                cells = by_sheet.setdefault(sheet, [])
                if cell not in cells:
                    cells.append(cell)
            groups.extend((self.sheets[sheet], cells) for sheet, cells in by_sheet.items())
        return groups

    def sharded_ratio(self, seconds: float):
        """req/s of this stream through 2 thread shards ÷ unsharded."""
        create = getattr(self.service, "create_sharded_workspace", None)
        if create is None:
            return None
        sharded = create("bench-k2", n_shards=2, workbooks=self.evaluation.reference_workbooks)
        # Short alternating turns, so that both sides see the same machine.
        logs = (OpLog(), OpLog())
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for workspace, oplog in zip((self.workspace, sharded), logs):
                self.run(0.25, oplog, workspace=workspace)
        rates = []
        for oplog in logs:
            attempted, failed = oplog.op_count()
            self.check(failed == 0, "sharded answers differ from unsharded answers")
            rates.append(attempted / sum(op[1] for __, ops in oplog.units for op in ops))
        self.service.drop_workspace("bench-k2")
        return rates[1] / rates[0]


# -------------------------------------------------------------- http_sessions


class HttpSessions(Workload):
    name = "http_sessions"
    why = (
        "the only one that crosses the socket (server in its own process, 2 keep-alive "
        "connections, >256 distinct payloads): decode, interning, batch wait, executor hop, "
        "encode; edits run beside reads"
    )
    preset, scale = "PGE", 8
    callers = 2
    writes = "edits"
    session_cells = 4
    prefix_sessions = 24
    payloads = 288
    edit_targets_on_wire = 256

    def build(self) -> None:
        evaluation = self.evaluation
        encoder_dir = self._scratch / "encoder"
        self.encoder.save(encoder_dir)
        self.server = ServerChild(encoder_dir, self.preset, self.scale)
        # The twin: the same corpus in this process, for checking the
        # wire's answers, the staged pass and the write tail.
        self.workspace = self.fit(evaluation.reference_workbooks)
        # The same 288 payloads (> the interner's 256 entries) on every
        # seed, in seeded order: a run covers the set about once.
        requests, truths = self.case_requests(evaluation.cases[: self.payloads])
        self.truths = truths
        self.sessions = []
        for request in requests:
            sheet = request.sheet
            others = [address for address, __ in sheet.formula_cells() if address != request.cell]
            cells = [request.cell] + [
                others[i % len(others)] if others else request.cell
                for i in range(self.session_cells - 1)
            ]
            payload = sheet_to_dict(sheet)
            self.sessions.append(
                [
                    json.dumps({"sheet": payload, "cell": cell.to_a1()}).encode("utf-8")
                    for cell in cells
                ]
            )
        self.requests = requests
        slots = fixed_sample(value_slots(evaluation.reference_workbooks), self.edit_targets_on_wire)
        self.edits = [
            json.dumps(
                {
                    "workbook": workbook,
                    "sheet": sheet,
                    "cell": cell,
                    "value": float(np.round(self.rng.uniform(1.0, 10_000.0), 2)),
                }
            ).encode("utf-8")
            for workbook, sheet, cell in (slots[int(i)] for i in self.rng.permutation(len(slots)))
        ]
        self.position = 0
        self.edit_position = 0
        self.prepare_churn(
            evaluation.reference_workbooks,
            evaluation.test_workbooks,
            list(zip(requests, truths)),
            edits=TAIL_EDITS,
        )
        self.port = self.server.wait_ready()
        asyncio.run(self._read_only_prefix())

    async def _read_only_prefix(self) -> None:
        """Before the first edit the wire must answer exactly as the twin."""
        client = AsyncFormulaClient("127.0.0.1", self.port)
        try:
            for at in range(min(self.prefix_sessions, len(self.sessions))):
                status, __, body = await client.request(
                    "POST", RECOMMEND_PATH, body_bytes=self.sessions[at][0]
                )
                twin = answer(self.workspace.recommend(self.requests[at]))
                wire = (body.get("formula"), float(body.get("confidence", -1.0)))
                self.check(status == 200 and wire == twin, "wire answer differs from the twin workspace")
        finally:
            await client.close()

    def run(self, seconds: float, oplog: OpLog) -> None:
        oplog.callers = self.callers
        asyncio.run(self._drive(seconds, oplog))

    async def _drive(self, seconds: float, oplog: OpLog) -> None:
        deadline = time.perf_counter() + seconds

        async def one(client, kind, path, body):
            start = time.perf_counter()
            status, __, decoded = await client.request("POST", path, body_bytes=body)
            end = time.perf_counter()
            if self.recorder is not None:
                self.recorder.finished("client." + kind, start, end, next(self._requests))
            return status, decoded, start, end

        async def connection() -> None:
            client = AsyncFormulaClient("127.0.0.1", self.port)
            try:
                while time.perf_counter() < deadline:
                    at = self.position % len(self.sessions)
                    self.position += 1
                    ops, session_start = [], time.perf_counter()
                    for index, body in enumerate(self.sessions[at]):
                        status, decoded, start, end = await one(client, "recommend", RECOMMEND_PATH, body)
                        ok = status == 200
                        ops.append(["recommend", end - start, int(ok), int(not ok), None])
                        if index == 0 and ok:
                            self.score(oplog, at, decoded.get("formula"), self.truths[at])
                    body = self.edits[self.edit_position % len(self.edits)]
                    self.edit_position += 1
                    status, __, start, end = await one(client, "edit", EDIT_PATH, body)
                    ok = status == 200
                    ops.append(["edit", end - start, int(ok), int(not ok), None])
                    oplog.unit(session_start, ops)
            finally:
                await client.close()

        await asyncio.gather(*(connection() for __ in range(self.callers)))

    def wire_replay(self) -> dict:
        """Replay real request bodies through the wire codec, in this
        process: decode (JSON parse + schema + interning) and encode."""
        recorder = self.recorder
        interner = SheetInterner(ServerConfig().sheet_cache_entries)
        for bodies in self.sessions:
            for body in bodies:
                with recorder.span("server.decode"):
                    requests, __ = decode_recommend_payload(json.loads(body.decode("utf-8")), interner)
            with recorder.span("replay.serve"):
                response = self.workspace.recommend(requests[0])
            with recorder.span("server.encode"):
                json.dumps(encode_response(response, 1, 0.0)).encode("utf-8")
        return {"intern_hit_share": interner.hits / max(interner.hits + interner.misses, 1)}

    def stats(self) -> dict:
        async def fetch():
            client = AsyncFormulaClient("127.0.0.1", self.port)
            try:
                __, __, body = await client.request("GET", "/stats")
                return body
            finally:
                await client.close()

        return asyncio.run(fetch())

    def close(self) -> None:
        server = getattr(self, "server", None)
        try:
            self.server_report = server.stop() if server is not None else {}
        finally:
            super().close()


class ServerChild:
    """The server in its own process (``server_child.py``), spoken to over
    its stdin/stdout: it prints its port, takes ``trace``/``stop`` lines,
    and answers ``stop`` with its peak RSS and layer spans."""

    def __init__(self, encoder_dir: Path, preset: str, scale: float) -> None:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py"), str(encoder_dir), preset, str(scale)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=environment,
        )

    def _read(self, timeout: float) -> dict:
        ready, __, __ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else b""
        if not line:
            self.kill()
            raise RuntimeError("the server child did not answer")
        return json.loads(line.decode("utf-8"))

    def _send(self, command: str) -> None:
        self.process.stdin.write(command.encode("utf-8") + b"\n")
        self.process.stdin.flush()

    def wait_ready(self) -> int:
        return int(self._read(120.0)["port"])

    def trace(self) -> None:
        self._send("trace")
        self._read(30.0)

    def stop(self) -> dict:
        if self.process.poll() is not None:
            return {}
        try:
            self._send("stop")
            report = self._read(60.0)
            self.process.wait(timeout=30.0)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass


# --------------------------------------------------------------- corpus_churn


class CorpusChurn(Workload):
    name = "corpus_churn"
    why = (
        "the write path with almost no recommend traffic: ingest, edits, tombstones, "
        "compaction, re-index, recalculation, snapshot save and restore"
    )
    preset, scale = "TI", 6
    writes = "all"
    # Two passes over the 48 probes, on corpus states every run reaches:
    # how many cycles fit a run must not move ``match_share``.
    scored_cycles = 6

    def build(self) -> None:
        evaluation = self.evaluation
        reference = evaluation.reference_workbooks
        resident, pool = reference[: len(reference) // 2], reference[len(reference) // 2 :]
        self.workspace = self.fit(resident)
        self.requests, __ = self.case_requests(evaluation.cases)
        # The probes are the same 48 asks on every seed, in corpus order, so
        # every three cycles ask the same mix: which cases are asked must
        # not move the probes' latency.
        probes = [
            (RecommendationRequest(case.target_sheet, case.target_cell), case.ground_truth)
            for case in evaluation.cases[: 3 * CYCLE_PROBES]
        ]
        self.prepare_churn(resident, pool, probes, edits=240, seeded=True)
        self.churn_cycle(self.workspace, None, record=False)

    def run(self, seconds: float, oplog: OpLog) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.churn_cycle(self.workspace, oplog)


WORKLOADS = {
    workload.name: workload for workload in (InprocDistinct, InprocHot, HttpSessions, CorpusChurn)
}
