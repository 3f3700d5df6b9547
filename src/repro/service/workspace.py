"""A :class:`Workspace`: one organization's mutable, served corpus."""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.pipeline import AutoFormula
from repro.persistence.log import (
    MutationLog,
    add_entry,
    apply_mutation,
    edit_entry,
    remove_entry,
)
from repro.persistence.snapshot import (
    MUTATION_LOG_NAME,
    SnapshotFormatError,
    encode_workbook,
    load_arrays,
    load_corpus_records,
    mutation_log_path,
    read_manifest,
    save_arrays,
    save_corpus,
    save_generation,
    sheet_resolver,
    write_manifest,
)
from repro.evaluation.runner import EvaluationRun, run_method_on_cases
from repro.obs import Counter, Histogram, get_tracer
from repro.formula.engine import FormulaEngine, RecalcReport
from repro.extensions import autofill, error_detection
from repro.service.types import (
    AbstainReason,
    RecommendationRequest,
    RecommendationResponse,
)
from repro.sheet.addressing import CellAddress
from repro.sheet.cell import Cell, decode_cell_value
from repro.sheet.sheet import AddressLike, Sheet, SheetEdit, _to_address
from repro.sheet.workbook import Workbook


#: The metric names a workspace counts itself (see :meth:`Workspace.counters`).
_COUNTED = (
    "workspace.reindex_same",
    "workspace.reindex_changed",
    "workspace.serve_collapsed_duplicates",
    "persistence.log_replayed_total",
    "persistence.log_torn_tail_total",
    "persistence.orphan_generations_total",
    "persistence.sheets_deferred_total",
    "persistence.sheets_decoded_total",
)

#: What a held workbook's kept corpus line was encoded from: each sheet
#: with its version then.
_Stamp = Tuple[Tuple[Sheet, int], ...]


def _stamp(workbook: Workbook) -> _Stamp:
    return tuple((sheet, sheet.version) for sheet in workbook)


def _same_stamp(kept: _Stamp, now: _Stamp) -> bool:
    """Whether the sheets are the same objects at the same versions."""
    return len(kept) == len(now) and all(
        sheet is other and version == other_version
        for (sheet, version), (other, other_version) in zip(kept, now)
    )


def require_one_edit_operand(value, formula) -> None:
    """An edit must say what to write; a defaulted-``None`` value would
    silently blank the cell.  Deliberate blanking is ``value=""``."""
    if value is None and formula is None:
        raise ValueError(
            "edit_cell needs value=... or formula=...; to blank a cell "
            'explicitly, pass value=""'
        )
    if value is not None and formula is not None:
        raise ValueError("edit_cell takes either value= or formula=, not both")


class Workspace:
    """One tenant's indexed corpus behind the typed serving API.

    A workspace owns an :class:`~repro.core.pipeline.AutoFormula` and the
    set of workbooks it indexes, keyed by workbook name; the predictor is
    indexed from construction (an empty corpus at first).  Corpus mutation
    goes through :meth:`add_workbooks` / :meth:`remove_workbook` /
    :meth:`edit_cell`, each of which changes the predictor's indexes in
    place, so the workspace stays consistent with its workbook set and
    predictions are identical to a fresh fit on the equivalent corpus: the
    workbooks in the order they were added, which an edit never changes.
    The workspace is its workbooks' one writer: it seals each workbook it
    holds, so a write made around it (``sheet.set``, ``add_sheet``, ...)
    raises :class:`~repro.sheet.sheet.SealedError` instead of putting the
    sheets, the index and the mutation log out of step.

    Serving goes through :meth:`recommend` / :meth:`serve_batch`, which
    answer with frozen :class:`RecommendationResponse` objects and record
    per-request latency on :attr:`latency`.  The evaluation harness and the
    paper's extension applications (value auto-fill, formula error
    detection, which read the predictor's own indexes) are
    reachable as workspace methods so one corpus handle drives every
    workload.

    The workspace is thread-safe: every method that reads or writes the
    corpus or the index — serves, mutations, ``save``, ``memory_stats``
    and the adapters — holds the workspace's one mutex, so a serve never
    observes a half-mutated index.  Two serves of one workspace take turns
    (the server keeps one in flight per workspace anyway); what threads
    still share is the encoder's caches, each behind its own mutex, when
    several workspaces serve on one encoder.
    """

    def __init__(self, name: str, predictor: AutoFormula) -> None:
        self.name = name
        self._predictor = predictor
        self._workbooks: Dict[str, Workbook] = {}
        #: Held by every serve, mutation, save and adapter call.
        self._lock = threading.Lock()
        #: Per-request serving latencies (amortized for batched requests).
        self.latency = Histogram()
        #: Per-sheet recalculation engines, built lazily by :meth:`edit_cell`
        #: and kept across edits so repeated edits to one sheet stay
        #: O(dirty subgraph).  Keyed by (workbook name, sheet name); an
        #: entry is dropped when its workbook leaves the corpus.
        self._engines: Dict[Tuple[str, str], FormulaEngine] = {}
        #: What :meth:`counters` reports of this layer, by metric name.
        #: Instruments, because ``counters()`` reads them without the lock.
        self._counts = {name: Counter() for name in _COUNTED}
        #: Durability state (see :mod:`repro.persistence`): ``save()``
        #: attaches a mutation log and subsequent corpus mutations append
        #: to it; ``load()`` replays the log's tail, then attaches it.
        self._mutation_log: Optional[MutationLog] = None
        #: The encode memo: each held workbook's corpus line, with the
        #: stamp it was encoded at (see :meth:`_corpus_line`).
        self._lines: Dict[str, Tuple[_Stamp, bytes]] = {}

    # ----------------------------------------------------------------- corpus

    @property
    def predictor(self) -> AutoFormula:
        """The wrapped prediction method."""
        return self._predictor

    @property
    def workbook_names(self) -> List[str]:
        """Names of the indexed workbooks, in the order they were added."""
        return list(self._workbooks)

    def workbooks(self) -> List[Workbook]:
        """The indexed workbooks, in the order they were added (an edit
        never moves one; a removed and re-added workbook goes last).  They
        are sealed: read them, or edit them through :meth:`edit_cell`."""
        return list(self._workbooks.values())

    def __len__(self) -> int:
        return len(self._workbooks)

    def __contains__(self, workbook_name: str) -> bool:
        return workbook_name in self._workbooks

    def add_workbooks(self, workbooks: Iterable[Workbook]) -> None:
        """Index additional workbooks, appended after the indexed ones,
        and seal them (see :class:`Workspace`).

        The workbooks are registered only after the predictor's add
        succeeds, so an embedding failure leaves the workspace's workbook
        set consistent with what the predictor actually indexed.  A
        workbook another workspace holds is sealed and raises
        ``ValueError``: add a :meth:`~repro.sheet.workbook.Workbook.copy`.
        """
        workbooks = list(workbooks)
        if not workbooks:
            return
        with self._lock:
            seen = set(self._workbooks)
            for workbook in workbooks:
                if not isinstance(workbook, Workbook):
                    # Bare sheets would be indexed under the predictor-side label
                    # "<sheet>" but registered here under the sheet's own name,
                    # making them irremovable; the workspace corpus is
                    # workbook-keyed, so wrap sheets in a Workbook first.
                    raise TypeError(
                        f"workspaces index Workbook objects, got {type(workbook).__name__}; "
                        "wrap bare sheets in a Workbook"
                    )
                if workbook.name in seen:
                    raise ValueError(f"workbook {workbook.name!r} is already indexed")
                if workbook._sealed:
                    raise ValueError(
                        f"workbook {workbook.name!r} belongs to another workspace; add a copy()"
                    )
                seen.add(workbook.name)
            self._predictor.add_workbooks(workbooks)
            for workbook in workbooks:
                workbook._seal(True)
                self._workbooks[workbook.name] = workbook
                if self._mutation_log is not None:
                    self._mutation_log.append_encoded(add_entry(self._corpus_line(workbook)))

    def add_workbook(self, workbook: Workbook) -> None:
        """Index one additional workbook (see :meth:`add_workbooks`)."""
        self.add_workbooks([workbook])

    def remove_workbook(self, workbook_name: str) -> Workbook:
        """Drop a workbook from the corpus and return it, unsealed.

        Raises ``KeyError`` if the workbook is not indexed.  The
        predictor tombstones the workbook's sheets out of its indexes; as
        with :meth:`add_workbooks`, the workbook stays registered if that
        fails.
        """
        with self._lock:
            if workbook_name not in self._workbooks:
                raise KeyError(workbook_name)
            # A registered workbook with zero sheets never reached the
            # predictor's indexes, so there is nothing to remove there.
            if len(self._workbooks[workbook_name]):
                self._predictor.remove_workbook(workbook_name)
            workbook = self._workbooks.pop(workbook_name)
            workbook._seal(False)
            self._lines.pop(workbook_name, None)
            for key in [key for key in self._engines if key[0] == workbook_name]:
                del self._engines[key]
            self._log(remove_entry, workbook_name)
            return workbook

    def edit_cell(
        self,
        workbook_name: str,
        sheet_name: str,
        address: AddressLike,
        value=None,
        formula: Optional[str] = None,
    ) -> RecalcReport:
        """Edit one cell of an indexed sheet and re-serve the updated corpus.

        The live-editing workload: the cell is written through the sheet's
        cached :class:`~repro.formula.engine.FormulaEngine` (pass ``value``
        for a plain value, ``formula`` for a formula; a value means what it
        means in a workbook payload, see
        :func:`~repro.sheet.cell.decode_cell_value`), dependent formulas
        are recalculated incrementally — O(dirty subgraph), not O(all
        formulas) — and the edited *sheet* is re-indexed over the index rows
        it already owns (:meth:`AutoFormula.reindex_sheet
        <repro.core.pipeline.AutoFormula.reindex_sheet>`), so subsequent
        recommendations see the new content.  The workbook keeps its place
        in the corpus order and its sibling sheets are not touched; answers
        equal a fresh fit on :meth:`workbooks`.  Returns the engine's
        :class:`~repro.formula.engine.RecalcReport`.

        The re-index is told what the edit changed
        (:class:`~repro.sheet.sheet.SheetEdit`: the version and extent
        before it, the written cell and the cells the recalculation
        changed), so it recomputes the S2 rows and the S3 block whole but
        re-featurizes only those cells of a cached feature tensor and keeps
        the S1 row when none of them lies in the sheet window; both reuses
        are byte-identical to recomputing (see
        :meth:`AutoFormula.reindex_sheet
        <repro.core.pipeline.AutoFormula.reindex_sheet>`).

        Raises ``KeyError`` if the workbook is not indexed or has no sheet
        called ``sheet_name``, and ``ValueError`` unless exactly one of
        ``value`` / ``formula`` is provided or for a value no cell can
        hold, before any lock is taken.  An edit is all or nothing: the
        sheet's cells and extent are checkpointed first, and if the write,
        the recalculation or the re-index raises they are put back (the
        sheet's version moves on), the sheet's engine is dropped and the
        error propagates; the re-index runs every forward before its first
        write, so the index and the log are as they were too.
        """
        require_one_edit_operand(value, formula)
        value = Cell(decode_cell_value(value)).value  # a value no cell holds raises
        with get_tracer().span(
            "workspace.edit_cell",
            workspace=self.name,
            workbook=workbook_name,
            sheet=sheet_name,
        ), self._lock:
            if workbook_name not in self._workbooks:
                raise KeyError(workbook_name)
            sheet = self._workbooks[workbook_name].get_sheet(sheet_name)
            engine = self._engine(workbook_name, sheet)
            checkpoint = sheet._checkpoint()
            before = (sheet.version, sheet.n_rows, sheet.n_cols)
            try:
                if formula is not None:
                    engine.set_formula(address, formula)
                else:
                    engine.set_value(address, value)
                report = engine.recalculate()
                changed = frozenset((_to_address(address), *engine.last_changed))
                self._reindex_sheet(sheet, engine.trees(), SheetEdit(*before, changed))
            except BaseException:
                # The sheet goes back to what the index and the log know,
                # and the engine, whose graph saw the edit, goes.
                sheet._restore(checkpoint)
                del self._engines[(workbook_name, sheet.name)]
                raise
            self._log(edit_entry, workbook_name, sheet_name, address, value=value, formula=formula)
            return report

    def _engine(self, workbook_name: str, sheet: Sheet) -> FormulaEngine:
        """The sheet's cached recalculation engine, rebuilt when it no
        longer points at this exact sheet object."""
        key = (workbook_name, sheet.name)
        engine = self._engines.get(key)
        if engine is None or engine.sheet is not sheet:
            engine = self._engines[key] = FormulaEngine(sheet)
        return engine

    def _reindex_sheet(
        self, sheet: Sheet, trees: Mapping[CellAddress, object], edit: SheetEdit
    ) -> None:
        with get_tracer().span("workspace.reindex_sheet") as span:
            outcome = self._predictor.reindex_sheet(sheet, trees, edit)
            for key, attribute in outcome.items():
                span.set_attribute(key, attribute)
        shape = "changed" if outcome["formulas_changed"] else "same"
        self._counts[f"workspace.reindex_{shape}"].inc()

    # ------------------------------------------------------------- durability

    def _log(self, build_entry, *args, **kwargs) -> None:
        """Append one mutation entry, if a log is attached (post save/load).

        The entry is built here, not by the caller: nobody reads it
        without a log.
        """
        if self._mutation_log is not None:
            self._mutation_log.append(build_entry(*args, **kwargs))

    def _corpus_line(self, workbook: Workbook) -> bytes:
        """A held workbook's corpus line, encoded once until it changes.

        The workspace is its workbooks' one writer, and every write it
        makes moves a sheet's ``version``: a kept line is reused while the
        workbook's sheets are the same objects at the same versions, and
        re-encoded otherwise.  (Name and ``last_modified`` are fixed at
        construction, and a sealed workbook takes no new sheet.)
        """
        stamp = _stamp(workbook)
        kept = self._lines.get(workbook.name)
        if kept is not None and _same_stamp(kept[0], stamp):
            return kept[1]
        line = encode_workbook(workbook)
        self._lines[workbook.name] = (stamp, line)
        return line

    def save(self, directory: Union[str, Path]) -> Path:
        """Snapshot this workspace to ``directory`` and attach its mutation log.

        Writes a new generation of the snapshot at ``directory`` — the
        corpus as ``corpus.jsonl``, the predictor's raw index state
        (contiguous float32 matrices, tombstone flags, stable-id maps) as
        ``arrays.bin`` and a versioned manifest, each fsynced, and an empty
        mutation log — and then makes it current by flipping ``CURRENT``
        onto it; the layout and the crash rule are
        :mod:`repro.persistence.snapshot`'s.  A crash at any point leaves
        either this generation or the previous one whole and current.
        Older generations are then deleted; any that ``CURRENT`` did not
        name (left by an interrupted save) are counted as
        ``persistence.orphan_generations_total``.

        A workbook's line is encoded only if the workbook changed since it
        was last encoded (:meth:`_corpus_line`): a save re-encodes the
        workbooks edited or added since the previous one.  The new
        generation's log starts empty — its snapshot covers every entry
        of the old one, which goes with the old generation — and the
        workspace logs subsequent add/remove/edit calls to it, so a later
        :meth:`load` restores snapshot + tail.
        """
        directory = Path(directory)
        with get_tracer().span(
            "snapshot.save", workspace=self.name, directory=str(directory)
        ), self._lock:
            state, arrays = self._predictor.snapshot_state()
            workbooks = self.workbooks()

            def write(generation: Path) -> None:
                names = save_corpus(generation, workbooks, encode=self._corpus_line)
                table = save_arrays(generation, arrays)
                write_manifest(
                    generation,
                    {
                        "kind": "workspace",
                        "name": self.name,
                        "workbooks": names,
                        "fitted": True,  # what an older build read; always true
                        "predictor_state": state,
                        "arrays": table,
                    },
                )
                MutationLog(generation / MUTATION_LOG_NAME).clear()

            generation, orphans = save_generation(directory, write)
            self._mutation_log = MutationLog(generation / MUTATION_LOG_NAME)
            self._counts["persistence.orphan_generations_total"].inc(orphans)
        return directory

    @classmethod
    def load(
        cls,
        directory: Union[str, Path],
        predictor: AutoFormula,
        name: Optional[str] = None,
        mmap: bool = True,
    ) -> "Workspace":
        """Restore a workspace saved by :meth:`save`.

        Reads the generation ``CURRENT`` names (or a format-1 snapshot,
        which has none).  The corpus is rebuilt from ``corpus.jsonl``, whose
        lines seed the encode memo: every line is parsed and checked here,
        but each sheet decodes its cells and extent from its line on its
        first read, under a lock, so a restore pays for the sheets it reads
        and a save reuses the lines of the rest byte for byte
        (:func:`~repro.persistence.snapshot.load_corpus_records`; the
        ``persistence.sheets_deferred_total`` / ``sheets_decoded_total``
        counters).  A cell record that fails to decode then raises
        :class:`~repro.sheet.io.WorkbookFormatError` naming the line, from
        that first read.  The predictor adopts the stored
        index state — memory-mapped read-only by default (``mmap=False``
        reads eager in-memory copies), which every write path upgrades by
        reallocating before mutating.  The generation's mutation-log tail
        is then replayed through the public mutation API, before the log
        is attached (so nothing is appended back to the log it came from):
        what is returned describes and serves the current corpus, and a
        tail that cannot be replayed fails the load, not the first
        request.  Restored answers are bit-identical to a fresh fit on the
        equivalent corpus.

        ``predictor`` must be a fresh, configuration-compatible predictor
        (same granularity as the saved one; a snapshot of an approximate
        index kind is refused); mismatches raise ``ValueError``.
        """
        directory = Path(directory)
        with get_tracer().span(
            "snapshot.load", directory=str(directory), mmap=mmap
        ) as span:
            return cls._load_traced(directory, predictor, name, mmap, span)

    @classmethod
    def _load_traced(
        cls,
        directory: Path,
        predictor: AutoFormula,
        name: Optional[str],
        mmap: bool,
        span,
    ) -> "Workspace":
        manifest = read_manifest(directory)
        if manifest.get("kind") != "workspace":
            raise SnapshotFormatError(
                f"snapshot at {directory} holds a {manifest.get('kind')!r}, "
                "not a workspace"
            )
        workspace = cls(str(name or manifest.get("name") or "restored"), predictor)
        counts = workspace._counts
        records = load_corpus_records(
            directory, manifest.get("workbooks", []), counts["persistence.sheets_decoded_total"]
        )
        workbooks = [workbook for workbook, __ in records]
        arrays = load_arrays(directory, manifest.get("arrays", []), mmap=mmap)
        predictor.restore_snapshot_state(
            manifest.get("predictor_state", {}), arrays, sheet_resolver(workbooks)
        )
        for workbook, line in records:
            workbook._seal(True)
            workspace._workbooks[workbook.name] = workbook
            if line is not None:
                workspace._lines[workbook.name] = (_stamp(workbook), line)
                counts["persistence.sheets_deferred_total"].inc(len(workbook))
        log = MutationLog(mutation_log_path(directory))
        entries = log.read()
        for entry in entries:
            apply_mutation(workspace, entry)
        workspace._mutation_log = log
        counts["persistence.log_replayed_total"].inc(len(entries))
        counts["persistence.log_torn_tail_total"].inc(log.torn_tails)
        span.set_attribute("n_workbooks", len(workbooks))
        span.set_attribute("replayed_log_entries", len(entries))
        span.set_attribute("torn_log_tails", log.torn_tails)
        return workspace

    # ---------------------------------------------------------------- serving

    def recommend(self, request: RecommendationRequest) -> RecommendationResponse:
        """Serve one request (see :meth:`serve_batch`)."""
        return self.serve_batch([request])[0]

    def serve_batch(
        self, requests: Sequence[RecommendationRequest]
    ) -> List[RecommendationResponse]:
        """Serve a mixed stream of requests, in request order.

        Requests are grouped by target sheet and the whole batch goes
        through one call of the predictor's :meth:`predict_sheets
        <repro.core.interface.FormulaPredictor.predict_sheets>` (for
        Auto-Formula, one pass of S1, S2 and S3 for all the sheets), so a
        batch returns exactly what sequential single-request serving would
        while sharing featurization and retrieval.  Duplicate
        ``(sheet, cell)`` requests are collapsed, for every predictor and
        only here: a prediction is a pure function of (corpus, sheet, cell),
        so each distinct cell of a group is predicted once and the result
        fanned out to every requester, each keeping its own ``request``
        echo (:meth:`counters` counts them).  Each response's
        ``latency_seconds`` is its amortized share of the batch's wall
        clock, recorded on :attr:`latency`.
        """
        requests = list(requests)
        if not requests:
            return []
        with get_tracer().span(
            "workspace.serve", workspace=self.name, n_requests=len(requests)
        ) as span, self._lock:
            return self._serve_batch_locked(requests, span)

    def _serve_batch_locked(
        self, requests: List[RecommendationRequest], span
    ) -> List[RecommendationResponse]:
        if not self._workbooks:
            # Empty-corpus abstains never reach the predictor; recording
            # their ~0 wall clock would skew the latency distribution, so
            # they are answered without a latency sample.
            return [self._abstain(request, AbstainReason.EMPTY_CORPUS) for request in requests]

        # Group request positions by target-sheet identity, preserving the
        # first-seen order of sheets and the request order within a group;
        # within a group, distinct cells in first-occurrence order, and the
        # slot of each request's cell.
        groups: Dict[int, Tuple[Sheet, Dict[CellAddress, int], List[Tuple[int, int]]]] = {}
        for position, request in enumerate(requests):
            group = groups.get(id(request.sheet))
            if group is None:
                group = groups[id(request.sheet)] = (request.sheet, {}, [])
            __, slot_of, slots = group
            slots.append((position, slot_of.setdefault(request.cell, len(slot_of))))
        batches = [(sheet, list(slot_of)) for sheet, slot_of, __ in groups.values()]
        start = time.perf_counter()
        predictions = self._predictor.predict_sheets(batches)
        per_request = (time.perf_counter() - start) / len(requests)
        if len(predictions) != len(batches) or any(
            len(predicted) != len(cells) for predicted, (__, cells) in zip(predictions, batches)
        ):
            raise RuntimeError(
                f"{self._predictor.name}.predict_sheets violated its contract: "
                f"{[len(predicted) for predicted in predictions]} predictions for "
                f"{[len(cells) for __, cells in batches]} cells"
            )

        responses: List[Optional[RecommendationResponse]] = [None] * len(requests)
        for predicted, (__, __, slots) in zip(predictions, groups.values()):
            for position, slot in slots:
                prediction = predicted[slot]
                self.latency.observe(per_request)
                request = requests[position]
                if prediction is None:
                    responses[position] = self._abstain(
                        request, AbstainReason.NO_CONFIDENT_MATCH, per_request
                    )
                else:
                    responses[position] = RecommendationResponse(
                        request=request,
                        workspace=self.name,
                        method=self._predictor.name,
                        formula=prediction.formula,
                        confidence=prediction.confidence,
                        provenance=dict(prediction.details),
                        latency_seconds=per_request,
                    )
        n_collapsed = len(requests) - sum(len(cells) for __, cells in batches)
        span.set_attribute("n_collapsed", n_collapsed)
        if n_collapsed:
            self._counts["workspace.serve_collapsed_duplicates"].inc(n_collapsed)
        # Every slot is filled: the groups partition range(len(requests))
        # and each group produced exactly one response per position.
        return responses  # type: ignore[return-value]

    def _abstain(
        self,
        request: RecommendationRequest,
        reason: AbstainReason,
        latency_seconds: float = 0.0,
    ) -> RecommendationResponse:
        return RecommendationResponse(
            request=request,
            workspace=self.name,
            method=self._predictor.name,
            formula=None,
            confidence=0.0,
            abstain_reason=reason,
            latency_seconds=latency_seconds,
        )

    # ---------------------------------------------------------- observability

    def counters(self) -> Dict[str, int]:
        """Every count this workspace and the layers under it keep, flat,
        keyed by full metric name; the server mirrors each key it finds as
        the gauge ``<key>{workspace=...}``.  This layer's own:

        * ``workspace.reindex_same`` / ``_changed`` — edits that re-indexed
          their sheet with its formula list unchanged (rows overwritten in
          place) / changed (the sheet's formula rows replaced);
        * ``workspace.serve_collapsed_duplicates`` — requests answered from
          another request's prediction in the same ``serve_batch`` call;
        * ``persistence.log_replayed_total`` / ``log_torn_tail_total`` —
          mutation-log entries :meth:`load` replayed, and half-written
          final lines (what a crash during an append leaves) it dropped;
        * ``persistence.orphan_generations_total`` — snapshot generations
          :meth:`save` found that ``CURRENT`` did not name (what an
          interrupted save leaves) and deleted;
        * ``persistence.sheets_deferred_total`` / ``sheets_decoded_total``
          — sheets :meth:`load` restored with their cells still encoded,
          and those of them whose cells a first read has decoded since.

        Beside them: the predictor's
        (:meth:`~repro.core.pipeline.AutoFormula.counters`).
        """
        counts = {name: counter.value for name, counter in self._counts.items()}
        counts.update(self._predictor.counters())
        return counts

    def memory_stats(self) -> Dict[str, object]:
        """Index memory footprint of the predictor (JSON-ready, see
        :meth:`repro.core.pipeline.AutoFormula.memory_stats`)."""
        with self._lock:
            return self._predictor.memory_stats()

    # --------------------------------------------------------------- adapters

    def evaluate(self, cases: Sequence, corpus_name: str = "") -> EvaluationRun:
        """Run the evaluation harness on this workspace's predictor."""
        with self._lock:
            return run_method_on_cases(
                self._predictor,
                self.workbooks(),
                cases,
                corpus_name=corpus_name or self.name,
                fit=False,
            )

    def suggest_value(
        self, sheet: Sheet, cell: CellAddress
    ) -> Optional[autofill.AutoFillSuggestion]:
        """Suggest a *value* for an empty cell (content auto-filling, see
        :func:`repro.extensions.suggest_value`) from the indexed corpus."""
        with self._lock:
            return autofill.suggest_value(self._predictor, sheet, cell)

    def audit_sheet(self, sheet: Sheet) -> List[error_detection.FormulaAnomaly]:
        """Audit a sheet for formulas that disagree with similar sheets of
        the indexed corpus (see :func:`repro.extensions.audit_sheet`)."""
        with self._lock:
            return error_detection.audit_sheet(self._predictor, sheet)
