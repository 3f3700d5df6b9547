"""A :class:`Workspace`: one organization's mutable, served corpus."""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.interface import FormulaPredictor
from repro.persistence.log import (
    MutationLog,
    add_entry,
    apply_mutation,
    edit_entry,
    remove_entry,
)
from repro.persistence.snapshot import (
    SnapshotFormatError,
    load_arrays,
    load_corpus,
    mutation_log_path,
    read_manifest,
    save_arrays,
    save_corpus,
    sheet_resolver,
    write_manifest,
)
from repro.evaluation.runner import EvaluationRun, run_method_on_cases
from repro.obs import Counter, Histogram, get_tracer
from repro.formula.engine import FormulaEngine, RecalcReport
from repro.service.concurrency import ReadWriteLock
from repro.extensions.autofill import AutoFillSuggestion, ValueAutoFill
from repro.extensions.error_detection import FormulaAnomaly, FormulaErrorDetector
from repro.models.encoder import SheetEncoder
from repro.service.types import (
    AbstainReason,
    RecommendationRequest,
    RecommendationResponse,
)
from repro.sheet.addressing import CellAddress
from repro.sheet.sheet import AddressLike, Sheet
from repro.sheet.workbook import Workbook


#: The metric names a workspace counts itself (see :meth:`Workspace.counters`).
_COUNTED = (
    "workspace.reindex_same",
    "workspace.reindex_changed",
    "workspace.reindex_refit",
    "workspace.serve_collapsed_duplicates",
    "persistence.log_replayed_total",
    "persistence.log_torn_tail_total",
)


def sheet_engine(
    cache: Dict[Tuple[str, str], FormulaEngine], workbook_name: str, sheet: Sheet
) -> FormulaEngine:
    """Get (or build and cache) the recalculation engine for an indexed sheet.

    The staleness rule: rebuild when the cached engine no longer points
    at this exact sheet object.
    """
    key = (workbook_name, sheet.name)
    engine = cache.get(key)
    if engine is None or engine.sheet is not sheet:
        engine = FormulaEngine(sheet)
        cache[key] = engine
    return engine


def drop_engines(
    cache: Dict[Tuple[str, str], FormulaEngine], workbook_name: str
) -> List[FormulaEngine]:
    """Evict and return a workbook's cached engines (counterpart of
    :func:`sheet_engine`)."""
    return [cache.pop(key) for key in [key for key in cache if key[0] == workbook_name]]


def _add_counts(into: Dict[str, int], counts: Dict[str, int]) -> None:
    for key, count in counts.items():
        into[key] = into.get(key, 0) + count


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

    A workspace owns a :class:`FormulaPredictor` and the set of workbooks
    it is fitted on, keyed by workbook name.  Corpus mutation goes through
    :meth:`add_workbooks` / :meth:`remove_workbook` / :meth:`edit_cell`:
    predictors that declare ``supports_incremental_corpus`` (Auto-Formula)
    are mutated in place, all others are refit on the updated corpus —
    either way the workspace stays consistent with its workbook set, and
    predictions are identical to a fresh fit on the equivalent corpus: the
    workbooks in the order they were added, which an edit never changes.

    Serving goes through :meth:`recommend` / :meth:`serve_batch`, which
    answer with frozen :class:`RecommendationResponse` objects and record
    per-request latency on :attr:`latency`.  The evaluation harness and the
    paper's extension applications (value auto-fill, formula error
    detection) are reachable as workspace methods so one corpus handle
    drives every workload.

    The workspace is thread-safe: serving takes a shared (read) lock and
    corpus mutation takes an exclusive (write) lock on a writer-preferring
    :class:`~repro.service.concurrency.ReadWriteLock`, so any number of
    concurrent recommends interleave with ``add_workbooks`` /
    ``remove_workbook`` / ``edit_cell`` without ever observing a
    half-mutated index.  The predictor-internal caches raced by concurrent
    reads are individually thread-safe (see ``repro.service.concurrency``).
    """

    def __init__(
        self,
        name: str,
        predictor: FormulaPredictor,
        encoder: Optional[SheetEncoder] = None,
    ) -> None:
        self.name = name
        self._predictor = predictor
        self._encoder = encoder
        self._workbooks: Dict[str, Workbook] = {}
        self._fitted = False
        self._incremental = bool(getattr(predictor, "supports_incremental_corpus", False))
        #: Serving = shared access, corpus mutation = exclusive access.
        self._rwlock = ReadWriteLock()
        #: Per-request serving latencies (amortized for batched requests).
        self.latency = Histogram()
        self._corpus_version = 0
        #: Per-sheet recalculation engines, built lazily by :meth:`edit_cell`
        #: and kept across edits so repeated edits to one sheet stay
        #: O(dirty subgraph).  Keyed by (workbook name, sheet name); an
        #: entry is dropped when its workbook leaves the corpus.
        self._engines: Dict[Tuple[str, str], FormulaEngine] = {}
        #: What :meth:`counters` reports of this layer, by metric name.
        #: Instruments, because serves run concurrently under the read lock.
        self._counts = {name: Counter() for name in _COUNTED}
        #: Counts of engines dropped with their workbook, so that what the
        #: engines report never goes down.
        self._dropped_engine_counts: Dict[str, int] = {}
        self._autofill: Optional[ValueAutoFill] = None
        self._autofill_version = -1
        self._detector: Optional[FormulaErrorDetector] = None
        self._detector_version = -1
        #: Durability state (see :mod:`repro.persistence`): ``save()``
        #: attaches a mutation log and subsequent corpus mutations append
        #: to it; ``load()`` replays the log's tail, then attaches it.
        self._mutation_log: Optional[MutationLog] = None

    # ----------------------------------------------------------------- corpus

    @property
    def predictor(self) -> FormulaPredictor:
        """The wrapped prediction method."""
        return self._predictor

    @property
    def workbook_names(self) -> List[str]:
        """Names of the indexed workbooks, in the order they were added."""
        return list(self._workbooks)

    def workbooks(self) -> List[Workbook]:
        """The indexed workbooks, in the order they were added (an edit
        never moves one; a removed and re-added workbook goes last)."""
        return list(self._workbooks.values())

    def __len__(self) -> int:
        return len(self._workbooks)

    def __contains__(self, workbook_name: str) -> bool:
        return workbook_name in self._workbooks

    def add_workbooks(self, workbooks: Iterable[Workbook]) -> None:
        """Index additional workbooks (incrementally when the predictor
        supports it, otherwise via a refit on the whole corpus).

        The workbooks are registered only after the predictor mutation
        succeeds, so an embedding/fit failure leaves the workspace's
        workbook set consistent with what the predictor actually indexed.
        """
        workbooks = list(workbooks)
        if not workbooks:
            return
        with self._rwlock.write_lock():
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
                seen.add(workbook.name)
            if self._incremental and self._fitted:
                self._predictor.add_workbooks(workbooks)
            else:
                self._predictor.fit(self.workbooks() + workbooks)
                self._fitted = True
            for workbook in workbooks:
                self._workbooks[workbook.name] = workbook
                self._log(add_entry, workbook)
            self._corpus_version += 1

    def add_workbook(self, workbook: Workbook) -> None:
        """Index one additional workbook (see :meth:`add_workbooks`)."""
        self.add_workbooks([workbook])

    def remove_workbook(self, workbook_name: str) -> Workbook:
        """Drop a workbook from the corpus and return it.

        Raises ``KeyError`` if the workbook is not indexed.  Incremental
        predictors tombstone the workbook's sheets out of their indexes;
        others are refit on the remaining corpus.  As with
        :meth:`add_workbooks`, the workbook stays registered if the
        predictor mutation fails.
        """
        with self._rwlock.write_lock():
            if workbook_name not in self._workbooks:
                raise KeyError(workbook_name)
            if self._incremental and self._fitted:
                # A registered workbook with zero sheets never reached the
                # predictor's indexes, so there is nothing to remove there.
                if len(self._workbooks[workbook_name]):
                    self._predictor.remove_workbook(workbook_name)
            else:
                self._predictor.fit(
                    [
                        workbook
                        for name, workbook in self._workbooks.items()
                        if name != workbook_name
                    ]
                )
                self._fitted = True
            workbook = self._workbooks.pop(workbook_name)
            for engine in drop_engines(self._engines, workbook_name):
                _add_counts(self._dropped_engine_counts, engine.counters())
            self._log(remove_entry, workbook_name)
            self._corpus_version += 1
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
        for a plain value, ``formula`` for a formula), dependent formulas
        are recalculated incrementally — O(dirty subgraph), not O(all
        formulas) — and the edited *sheet* is re-indexed over the index rows
        it already owns (:meth:`AutoFormula.reindex_sheet
        <repro.core.pipeline.AutoFormula.reindex_sheet>`), so subsequent
        recommendations see the new content.  The workbook keeps its place
        in the corpus order and its sibling sheets are not touched; answers
        equal a fresh fit on :meth:`workbooks`.  Predictors that cannot
        re-index in place are refit.  Returns the engine's
        :class:`~repro.formula.engine.RecalcReport`.

        Raises ``KeyError`` if the workbook is not indexed or has no sheet
        called ``sheet_name``, and ``ValueError`` unless exactly one of
        ``value`` / ``formula`` is provided.  An edit whose write or
        recalculation raises leaves the workspace as it was, its sheet's
        version aside, and re-raises.
        """
        require_one_edit_operand(value, formula)
        with get_tracer().span(
            "workspace.edit_cell",
            workspace=self.name,
            workbook=workbook_name,
            sheet=sheet_name,
        ), self._rwlock.write_lock():
            if workbook_name not in self._workbooks:
                raise KeyError(workbook_name)
            sheet = self._workbooks[workbook_name].get_sheet(sheet_name)
            engine = sheet_engine(self._engines, workbook_name, sheet)
            old = sheet.get(address) if address in sheet else None
            extent = (sheet.n_rows, sheet.n_cols)
            try:
                if formula is not None:
                    engine.set_formula(address, formula)
                else:
                    engine.set_value(address, value)
                report = engine.recalculate()
            except BaseException:
                # All or nothing: the sheet goes back to what the index and
                # the log know, and the engine, whose graph saw the edit, goes.
                sheet.restore_cell(address, old, extent)
                _add_counts(self._dropped_engine_counts, engine.counters())
                del self._engines[(workbook_name, sheet.name)]
                raise
            if self._incremental and self._fitted:
                try:
                    self._reindex_sheet(sheet)
                except Exception:
                    # A half-applied re-index would leave the predictor
                    # disagreeing with the sheet it serves; a full refit on
                    # the registry restores consistency.  If the refit
                    # itself fails, that error propagates.  Answers do not
                    # show this path was taken, so it is counted.
                    self._counts["workspace.reindex_refit"].inc()
                    self._refit()
            else:
                self._refit()
            self._log(edit_entry, workbook_name, sheet_name, address, value=value, formula=formula)
            self._corpus_version += 1
            return report

    def _reindex_sheet(self, sheet: Sheet) -> None:
        with get_tracer().span("workspace.reindex_sheet") as span:
            outcome = self._predictor.reindex_sheet(sheet)
            for key, attribute in outcome.items():
                span.set_attribute(key, attribute)
        shape = "changed" if outcome["formulas_changed"] else "same"
        self._counts[f"workspace.reindex_{shape}"].inc()

    def _refit(self) -> None:
        self._predictor.fit(self.workbooks())
        self._fitted = True

    def _ensure_fitted(self) -> None:
        if not self._fitted:
            self._refit()

    def _ensure_fitted_for_serving(self) -> None:
        """Fit-before-serve under the write lock (the rare path).

        ``_fitted`` only ever transitions ``False -> True``, so checking it
        outside the lock is safe: once a serve has seen a fitted predictor
        no later mutation can unfit it.
        """
        if self._fitted or not self._workbooks:
            return
        with self._rwlock.write_lock():
            self._ensure_fitted()

    # ------------------------------------------------------------- durability

    def _log(self, build_entry, *args, **kwargs) -> None:
        """Append one mutation entry, if a log is attached (post save/load).

        The entry is built here, not by the caller: an ``add`` entry is the
        whole workbook as dicts, which nobody reads without a log.
        """
        if self._mutation_log is not None:
            self._mutation_log.append(build_entry(*args, **kwargs))

    def save(self, directory: Union[str, Path]) -> Path:
        """Snapshot this workspace to ``directory`` and attach its mutation log.

        Writes the corpus workbooks, the predictor's raw index state
        (contiguous float32 matrices, tombstone flags, stable-id maps) and
        a versioned manifest — the layout documented in
        :mod:`repro.persistence.snapshot`.  The log is then *compacted*:
        truncated back to its header, because the fresh snapshot now
        covers its entries.
        After ``save()`` the workspace keeps logging subsequent
        add/remove/edit calls to ``directory``'s log, so a later
        :meth:`load` restores snapshot + tail.

        Requires a snapshot-capable predictor (Auto-Formula); raises
        ``TypeError`` for baselines that cannot serialize their state.
        """
        directory = Path(directory)
        snapshot_state = getattr(self._predictor, "snapshot_state", None)
        if snapshot_state is None:
            raise TypeError(
                f"predictor {self._predictor.name!r} does not support snapshots; "
                "durable workspaces need a snapshot-capable predictor (AutoFormula)"
            )
        with get_tracer().span(
            "snapshot.save", workspace=self.name, directory=str(directory)
        ), self._rwlock.write_lock():
            state, arrays = snapshot_state()
            files = save_corpus(directory, self.workbooks())
            names = save_arrays(directory, arrays)
            write_manifest(
                directory,
                {
                    "kind": "workspace",
                    "name": self.name,
                    "workbooks": files,
                    "fitted": self._fitted,
                    "predictor_state": state,
                    "arrays": names,
                },
            )
            log = MutationLog(mutation_log_path(directory))
            log.clear()
            self._mutation_log = log
        return directory

    @classmethod
    def load(
        cls,
        directory: Union[str, Path],
        predictor: FormulaPredictor,
        encoder: Optional[SheetEncoder] = None,
        name: Optional[str] = None,
        mmap: bool = True,
    ) -> "Workspace":
        """Restore a workspace saved by :meth:`save`.

        The corpus is rebuilt from the stored workbooks and the predictor
        adopts the stored index state — memory-mapped read-only by default
        (``mmap=False`` forces eager in-memory copies), which every write
        path upgrades by reallocating before mutating.  The snapshot's
        mutation-log tail is then replayed through the public mutation
        API, before the log is attached (so nothing is appended back to
        the log it came from): what is returned describes and serves the
        current corpus, and a tail that cannot be replayed fails the load,
        not the first request.  Restored answers are bit-identical to a
        fresh fit on the equivalent corpus.

        ``predictor`` must be a fresh, configuration-compatible predictor
        (same granularity as the saved one; a snapshot of an approximate
        index kind is refused); mismatches raise ``ValueError``.
        """
        directory = Path(directory)
        with get_tracer().span(
            "snapshot.load", directory=str(directory), mmap=mmap
        ) as span:
            return cls._load_traced(directory, predictor, encoder, name, mmap, span)

    @classmethod
    def _load_traced(
        cls,
        directory: Path,
        predictor: FormulaPredictor,
        encoder: Optional[SheetEncoder],
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
        restore = getattr(predictor, "restore_snapshot_state", None)
        if restore is None:
            raise TypeError(
                f"predictor {predictor.name!r} cannot restore snapshots; "
                "load with a snapshot-capable predictor (AutoFormula)"
            )
        workbooks = load_corpus(directory, manifest.get("workbooks", []))
        arrays = load_arrays(directory, manifest.get("arrays", []), mmap=mmap)
        restore(manifest.get("predictor_state", {}), arrays, sheet_resolver(workbooks))
        workspace = cls(
            str(name or manifest.get("name") or "restored"), predictor, encoder=encoder
        )
        for workbook in workbooks:
            workspace._workbooks[workbook.name] = workbook
        workspace._fitted = bool(manifest.get("fitted", False))
        log = MutationLog(mutation_log_path(directory))
        entries = log.read()
        for entry in entries:
            apply_mutation(workspace, entry)
        workspace._mutation_log = log
        workspace._counts["persistence.log_replayed_total"].inc(len(entries))
        workspace._counts["persistence.log_torn_tail_total"].inc(log.torn_tails)
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

        Requests are grouped by target sheet and each group is dispatched
        through the predictor's vectorized :meth:`predict_batch`, so a batch
        returns exactly what sequential single-request serving would while
        sharing per-sheet featurization and retrieval.  Duplicate
        ``(sheet, cell)`` requests are collapsed, for every predictor and
        only here: a prediction is a pure function of (corpus, sheet, cell),
        so each distinct cell of a group is predicted once and the result
        fanned out to every requester, each keeping its own ``request``
        echo (:meth:`serve_stats` counts them).  Each response's
        ``latency_seconds`` is its amortized share of its group's wall
        clock, recorded on :attr:`latency`.
        """
        requests = list(requests)
        if not requests:
            return []
        with get_tracer().span(
            "workspace.serve", workspace=self.name, n_requests=len(requests)
        ) as span:
            self._ensure_fitted_for_serving()
            with self._rwlock.read_lock():
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
        # first-seen order of sheets and the request order within a group.
        groups: Dict[int, List[int]] = {}
        for position, request in enumerate(requests):
            groups.setdefault(id(request.sheet), []).append(position)

        responses: List[Optional[RecommendationResponse]] = [None] * len(requests)
        n_collapsed = 0
        for positions in groups.values():
            sheet = requests[positions[0]].sheet
            # Distinct cells in first-occurrence order; slots[i] is the cell
            # (and prediction) of the group's i-th request.
            slot_of: Dict[CellAddress, int] = {}
            slots = [
                slot_of.setdefault(requests[position].cell, len(slot_of))
                for position in positions
            ]
            cells = list(slot_of)
            n_collapsed += len(positions) - len(cells)
            start = time.perf_counter()
            predictions = self._predictor.predict_batch(sheet, cells)
            per_request = (time.perf_counter() - start) / len(positions)
            if len(predictions) != len(cells):
                raise RuntimeError(
                    f"{self._predictor.name}.predict_batch violated its contract: "
                    f"{len(predictions)} predictions for {len(cells)} cells"
                )
            for position, prediction in zip(positions, (predictions[slot] for slot in slots)):
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
          ``workspace.reindex_refit`` — edits whose re-index raised and
          fell back to a full refit, at equal answers, so a non-zero count
          is the only sign of it;
        * ``workspace.serve_collapsed_duplicates`` — requests answered from
          another request's prediction in the same ``serve_batch`` call;
        * ``persistence.log_replayed_total`` / ``log_torn_tail_total`` —
          mutation-log entries :meth:`load` replayed, and half-written
          final lines (what a crash during an append leaves) it dropped.

        Beside them: the sum of the sheet engines'
        :meth:`~repro.formula.engine.FormulaEngine.counters` and whatever
        the predictor's ``counters()`` reports
        (:meth:`~repro.core.pipeline.AutoFormula.counters`).
        """
        counts = {name: counter.value for name, counter in self._counts.items()}
        _add_counts(counts, self._dropped_engine_counts)
        # list(): an edit on another thread may add an engine meanwhile.
        for engine in list(self._engines.values()):
            _add_counts(counts, engine.counters())
        predictor_counters = getattr(self._predictor, "counters", None)
        if predictor_counters is not None:
            counts.update(predictor_counters())
        return counts

    def memory_stats(self) -> Dict[str, object]:
        """Index memory footprint of the predictor (JSON-ready).

        Delegates to the predictor's ``memory_stats`` when it has one (see
        :meth:`repro.core.pipeline.AutoFormula.memory_stats`); predictors
        without index stores report zero bytes.
        """
        stats = getattr(self._predictor, "memory_stats", None)
        if stats is None:
            return {"total_bytes": 0}
        with self._rwlock.read_lock():
            return stats()

    # --------------------------------------------------------------- adapters

    def evaluate(self, cases: Sequence, corpus_name: str = "") -> EvaluationRun:
        """Run the evaluation harness on this workspace's fitted predictor."""
        self._ensure_fitted_for_serving()
        with self._rwlock.read_lock():
            return run_method_on_cases(
                self._predictor,
                self.workbooks(),
                cases,
                corpus_name=corpus_name or self.name,
                fit=False,
            )

    def _require_encoder(self) -> SheetEncoder:
        if self._encoder is None:
            raise RuntimeError(
                "this workspace has no encoder; extensions (auto-fill, error "
                "detection) need one — create the workspace through a "
                "FormulaService constructed with an encoder"
            )
        return self._encoder

    def autofill(self) -> ValueAutoFill:
        """The value auto-fill extension, fitted on the current corpus.

        The exclusive lock is taken only when the extension actually needs
        (re)fitting — the common already-fitted case is a plain read, so
        extension traffic does not stall concurrent serving.
        """
        if self._autofill is not None and self._autofill_version == self._corpus_version:
            return self._autofill
        with self._rwlock.write_lock():
            return self._autofill_ready()

    def _autofill_ready(self) -> ValueAutoFill:
        encoder = self._require_encoder()
        if self._autofill is None:
            self._autofill = ValueAutoFill(encoder)
        if self._autofill_version != self._corpus_version:
            self._autofill.fit(self.workbooks())
            self._autofill_version = self._corpus_version
        return self._autofill

    def suggest_value(
        self, sheet: Sheet, cell: CellAddress
    ) -> Optional[AutoFillSuggestion]:
        """Suggest a *value* for an empty cell (content auto-filling)."""
        extension = self.autofill()
        with self._rwlock.read_lock():
            return extension.suggest(sheet, cell)

    def error_detector(self) -> FormulaErrorDetector:
        """The formula error detector, fitted on the current corpus
        (write-locked only for the rare refit, like :meth:`autofill`)."""
        if self._detector is not None and self._detector_version == self._corpus_version:
            return self._detector
        with self._rwlock.write_lock():
            return self._error_detector_ready()

    def _error_detector_ready(self) -> FormulaErrorDetector:
        encoder = self._require_encoder()
        if self._detector is None:
            self._detector = FormulaErrorDetector(encoder)
        if self._detector_version != self._corpus_version:
            self._detector.fit(self.workbooks())
            self._detector_version = self._corpus_version
        return self._detector

    def audit_sheet(self, sheet: Sheet) -> List[FormulaAnomaly]:
        """Audit a sheet for formulas that disagree with similar sheets."""
        detector = self.error_detector()
        with self._rwlock.read_lock():
            return detector.audit(sheet)
