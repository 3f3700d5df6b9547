"""Deterministic multi-tenant workload simulation.

A *workload* is a reproducible stream of service operations — workbook
adds, workbook removals, live cell edits, recommendation batches,
concurrent ``serve`` bursts and evaluation sweeps — over one or more
tenants, generated entirely from an integer seed.  Two calls to :func:`generate_workload` with the same seed
produce the same tenants, the same synthetic workbooks, the same
operation order and the same request batches; replaying the stream
against any workspace implementation therefore produces comparable
response streams, which is how the invariant suite checks replay
determinism and mutated-vs-fresh-fit parity (see
``repro.testing.invariants``).

``edit`` operations drive the live-editing workload: a numeric cell of an
indexed sheet is overwritten, the workspace recalculates the sheet's
formulas incrementally through its dependency-graph engine, and the
edited sheet is re-indexed in place (edit → incremental recalc →
re-recommend).
Because edits mutate sheet contents, :func:`replay_workload` indexes a
private :meth:`~repro.sheet.workbook.Workbook.copy` of each added
workbook: the generator's pools stay pristine, so two replays of one
workload start from identical corpus state.

The generator never emits an invalid operation: a remove against an
empty tenant, an add with the pool exhausted, or an edit with nothing
editable is deterministically re-drawn as the nearest valid kind, and
removed workbooks return to the pool so long simulations exercise
remove/re-add churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.corpus.generator import CorpusGenerator, CorpusSpec
from repro.corpus.testcases import TestCase, sample_test_cases
from repro.formula.template import normalize_formula
from repro.service.types import RecommendationRequest, RecommendationResponse
from repro.sheet.addressing import CellAddress
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

#: Operation kinds a workload can contain, in weight order.  ``serve``
#: is the concurrent-burst variant of ``recommend``: its requests come in
#: same-sheet clusters meant to be fired *simultaneously* at a serving
#: front-end, which is how the simulation harness drives the network
#: layer's request-coalescing path deterministically (synchronous replays
#: simply serve the flattened burst, so parity checking still applies).
OP_KINDS = ("add", "remove", "edit", "recommend", "serve", "evaluate")


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of a simulated workload.

    ``op_weights`` are the relative draw probabilities of
    :data:`OP_KINDS`; invalid draws (removing from an empty tenant,
    adding with nothing left to add, editing with nothing editable) are
    re-drawn deterministically, so the realized mix tracks the weights
    only approximately.  Corpus
    parameters are deliberately small: simulations are meant to run in a
    test suite.
    """

    n_tenants: int = 2
    n_steps: int = 16
    op_weights: Tuple[float, ...] = (0.25, 0.1, 0.15, 0.3, 0.1, 0.1)
    #: Per-tenant synthetic corpus shape (see :class:`CorpusSpec`).
    n_families: int = 2
    min_copies: int = 2
    max_copies: int = 3
    n_singletons: int = 1
    #: Number of workbooks pre-loaded into every tenant before step 0.
    initial_workbooks: int = 2
    #: Cap on recommendation requests drawn per ``recommend`` op.
    max_recommend_batch: int = 4
    #: Cap on the per-tenant evaluation case set.
    max_cases: int = 8
    #: ``serve`` bursts: number of same-sheet clusters per burst ...
    serve_clusters: int = 2
    #: ... and concurrent requests drawn (with replacement) per cluster.
    serve_cluster_size: int = 3

    def __post_init__(self) -> None:
        if self.n_tenants <= 0 or self.n_steps < 0:
            raise ValueError("n_tenants must be positive and n_steps non-negative")
        if len(self.op_weights) != len(OP_KINDS) or min(self.op_weights) < 0:
            raise ValueError(f"op_weights must be {len(OP_KINDS)} non-negative weights")
        if sum(self.op_weights) <= 0:
            raise ValueError("op_weights must not all be zero")
        if self.serve_clusters <= 0 or self.serve_cluster_size <= 0:
            raise ValueError("serve_clusters and serve_cluster_size must be positive")


@dataclass(frozen=True)
class WorkloadOp:
    """One step of a workload: an operation against one tenant."""

    step: int
    tenant: str
    kind: str
    #: The workbook to index (``kind == "add"``).
    workbook: Optional[Workbook] = None
    #: The workbook to drop (``kind == "remove"``) or edit (``"edit"``).
    workbook_name: Optional[str] = None
    #: The requests to serve (``kind in ("recommend", "serve", "evaluate")``).
    cases: Tuple[TestCase, ...] = ()
    #: ``serve`` only: the burst's same-sheet clusters.  ``cases`` is the
    #: flattened concatenation, so kind-agnostic consumers keep working; a
    #: concurrency-aware driver fires each cluster's requests together.
    clusters: Tuple[Tuple[TestCase, ...], ...] = ()
    #: The sheet / cell / new value of an ``edit`` operation.
    sheet_name: Optional[str] = None
    address: Optional[CellAddress] = None
    value: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    """A generated operation stream plus the assets it draws from."""

    seed: int
    config: WorkloadConfig
    tenants: Tuple[str, ...]
    ops: Tuple[WorkloadOp, ...]
    #: Every workbook a tenant can ever index, in pool order.
    pools: Dict[str, Tuple[Workbook, ...]]
    #: The tenant's evaluation case set (targets are blanked copies, so
    #: they never alias the reference corpus sheets).
    cases: Dict[str, Tuple[TestCase, ...]]


def _edit_candidates(workbook: Workbook) -> Tuple[Tuple[str, CellAddress], ...]:
    """The (sheet, cell) slots an ``edit`` op may target in a workbook.

    Edits overwrite plain numeric cells on sheets that carry at least one
    formula, so every edit can feed the incremental-recalculation path.
    Replacing a number with a number keeps the candidate set itself
    stable, which is what lets the generator draw edits against the
    pristine pool workbooks while replays apply them to private copies.
    """
    candidates = []
    for sheet in workbook:
        if not sheet.n_formulas():
            continue
        for address, cell in sheet.cells():
            if cell.has_formula:
                continue
            if isinstance(cell.value, bool) or not isinstance(cell.value, (int, float)):
                continue
            candidates.append((sheet.name, address))
    return tuple(candidates)


def _draw_serve_burst(
    rng: np.random.Generator,
    tenant_cases: Tuple[TestCase, ...],
    config: WorkloadConfig,
) -> Tuple[Tuple[TestCase, ...], ...]:
    """Draw a ``serve`` burst: same-sheet clusters of concurrent requests.

    Cases are grouped by their target sheet; each cluster draws
    ``serve_cluster_size`` requests *with replacement* from one sheet's
    cases, mirroring a client session hammering one open spreadsheet.
    Same-sheet clusters are exactly what the serving front-end's
    micro-batcher coalesces into a single ``predict_batch`` call.
    """
    by_sheet: Dict[Tuple[str, str], List[TestCase]] = {}
    for case in tenant_cases:
        by_sheet.setdefault((case.workbook_name, case.sheet_name), []).append(case)
    sheet_keys = list(by_sheet)
    chosen = rng.choice(
        len(sheet_keys), size=min(config.serve_clusters, len(sheet_keys)), replace=False
    )
    clusters = []
    for key_index in sorted(int(index) for index in chosen):
        cluster_cases = by_sheet[sheet_keys[key_index]]
        draws = rng.integers(len(cluster_cases), size=config.serve_cluster_size)
        clusters.append(tuple(cluster_cases[int(draw)] for draw in draws))
    return tuple(clusters)


def generate_workload(seed: int, config: Optional[WorkloadConfig] = None) -> Workload:
    """Generate a deterministic workload from an integer seed."""
    config = config or WorkloadConfig()
    rng = np.random.default_rng(seed)
    tenants = tuple(f"tenant-{index}" for index in range(config.n_tenants))

    pools: Dict[str, Tuple[Workbook, ...]] = {}
    cases: Dict[str, Tuple[TestCase, ...]] = {}
    for tenant in tenants:
        spec = CorpusSpec(
            name=tenant,
            n_families=config.n_families,
            min_copies=config.min_copies,
            max_copies=config.max_copies,
            n_singletons=config.n_singletons,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        corpus = CorpusGenerator(seed=int(rng.integers(0, 2**31 - 1))).generate(spec)
        pools[tenant] = tuple(corpus.workbooks)
        tenant_cases = sample_test_cases(
            tenant,
            corpus.workbooks,
            max_per_sheet=1,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        cases[tenant] = tuple(tenant_cases[: config.max_cases])

    # Per-tenant mutable simulation state: which pool workbooks are
    # currently indexed and which are available (removed ones return).
    available: Dict[str, List[Workbook]] = {
        tenant: list(pools[tenant]) for tenant in tenants
    }
    indexed: Dict[str, List[Workbook]] = {tenant: [] for tenant in tenants}
    edit_slots: Dict[str, Dict[str, Tuple[Tuple[str, CellAddress], ...]]] = {
        tenant: {
            workbook.name: _edit_candidates(workbook) for workbook in pools[tenant]
        }
        for tenant in tenants
    }

    ops: List[WorkloadOp] = []
    step = 0

    def add_op(tenant: str) -> WorkloadOp:
        workbook = available[tenant].pop(
            int(rng.integers(len(available[tenant])))
        )
        indexed[tenant].append(workbook)
        return WorkloadOp(step=step, tenant=tenant, kind="add", workbook=workbook)

    for tenant in tenants:
        for __ in range(min(config.initial_workbooks, len(available[tenant]))):
            ops.append(add_op(tenant))
            step += 1

    weights = np.asarray(config.op_weights, dtype=np.float64)
    weights = weights / weights.sum()
    total_steps = len(ops) + config.n_steps
    while step < total_steps:
        tenant = tenants[int(rng.integers(len(tenants)))]
        kind = OP_KINDS[int(rng.choice(len(OP_KINDS), p=weights))]
        if kind == "add" and not available[tenant]:
            kind = "remove" if indexed[tenant] else "recommend"
        if kind == "remove" and not indexed[tenant]:
            kind = "add" if available[tenant] else "recommend"
        if kind == "edit":
            editable = [
                workbook
                for workbook in indexed[tenant]
                if edit_slots[tenant][workbook.name]
            ]
            if not editable:
                kind = (
                    "add"
                    if available[tenant]
                    else ("remove" if indexed[tenant] else "recommend")
                )
        if kind in ("recommend", "serve", "evaluate") and not cases[tenant]:
            # A tenant without sampleable cases still exercises mutation:
            # prefer an add/remove, else emit an (empty) evaluate no-op.
            if available[tenant]:
                kind = "add"
            elif indexed[tenant]:
                kind = "remove"
            else:
                kind = "evaluate"

        if kind == "add":
            ops.append(add_op(tenant))
        elif kind == "edit":
            workbook = editable[int(rng.integers(len(editable)))]
            slots = edit_slots[tenant][workbook.name]
            sheet_name, address = slots[int(rng.integers(len(slots)))]
            # Values include occasional zeros so edit streams exercise the
            # engine's error-value propagation (e.g. divisions going #DIV/0!).
            value = (
                0.0
                if rng.random() < 0.05
                else float(np.round(rng.uniform(1.0, 10_000.0), 2))
            )
            ops.append(
                WorkloadOp(
                    step=step,
                    tenant=tenant,
                    kind="edit",
                    workbook_name=workbook.name,
                    sheet_name=sheet_name,
                    address=address,
                    value=value,
                )
            )
        elif kind == "remove":
            workbook = indexed[tenant].pop(int(rng.integers(len(indexed[tenant]))))
            available[tenant].append(workbook)
            ops.append(
                WorkloadOp(
                    step=step, tenant=tenant, kind="remove", workbook_name=workbook.name
                )
            )
        elif kind == "recommend":
            batch = int(rng.integers(1, config.max_recommend_batch + 1))
            chosen = rng.choice(
                len(cases[tenant]), size=min(batch, len(cases[tenant])), replace=False
            )
            ops.append(
                WorkloadOp(
                    step=step,
                    tenant=tenant,
                    kind="recommend",
                    cases=tuple(cases[tenant][int(index)] for index in sorted(chosen)),
                )
            )
        elif kind == "serve":
            clusters = _draw_serve_burst(rng, cases[tenant], config)
            ops.append(
                WorkloadOp(
                    step=step,
                    tenant=tenant,
                    kind="serve",
                    cases=tuple(case for cluster in clusters for case in cluster),
                    clusters=clusters,
                )
            )
        else:  # evaluate: the tenant's whole case set, in order
            ops.append(
                WorkloadOp(step=step, tenant=tenant, kind="evaluate", cases=cases[tenant])
            )
        step += 1

    return Workload(
        seed=seed,
        config=config,
        tenants=tenants,
        ops=tuple(ops),
        pools=pools,
        cases=cases,
    )


# --------------------------------------------------------------------- replay


@dataclass(frozen=True)
class StepOutcome:
    """What one workload op produced when replayed against a workspace."""

    step: int
    tenant: str
    kind: str
    #: Responses of a ``recommend``/``evaluate`` op, in request order.
    responses: Tuple[RecommendationResponse, ...] = ()
    #: ``evaluate`` summary: cases served, accepted, exact matches.
    evaluation: Optional[Dict[str, int]] = None
    #: ``edit`` summary: formulas recalculated / errored by the engine.
    recalc: Optional[Dict[str, int]] = None


@dataclass
class ReplayResult:
    """A full replay: per-tenant workspaces plus the outcome stream."""

    workspaces: Dict[str, object]
    outcomes: List[StepOutcome] = field(default_factory=list)

    def outcomes_of_kind(self, *kinds: str) -> List[StepOutcome]:
        """The outcome sub-stream of the given op kinds, in step order."""
        return [outcome for outcome in self.outcomes if outcome.kind in kinds]


def replay_workload(
    workload: Workload,
    workspace_factory: Callable[[str], object],
    after_step: Optional[Callable[[WorkloadOp, object], None]] = None,
) -> ReplayResult:
    """Replay a workload against fresh per-tenant workspaces.

    ``workspace_factory`` builds one workspace-like object (anything with
    ``add_workbook`` / ``remove_workbook`` / ``edit_cell`` /
    ``serve_batch``) per tenant.  ``after_step`` is an optional hook — the
    invariant suite uses it to audit index state after every operation.
    Replays are deterministic: the op stream is fixed and serving is
    synchronous.  Each ``add`` indexes a private copy of the pool
    workbook, so ``edit`` operations never leak between replays of the
    same workload.
    """
    workspaces = {tenant: workspace_factory(tenant) for tenant in workload.tenants}
    result = ReplayResult(workspaces=workspaces)
    for op in workload.ops:
        workspace = workspaces[op.tenant]
        if op.kind == "add":
            workspace.add_workbook(op.workbook.copy())
            outcome = StepOutcome(step=op.step, tenant=op.tenant, kind=op.kind)
        elif op.kind == "remove":
            workspace.remove_workbook(op.workbook_name)
            outcome = StepOutcome(step=op.step, tenant=op.tenant, kind=op.kind)
        elif op.kind == "edit":
            report = workspace.edit_cell(
                op.workbook_name, op.sheet_name, op.address, value=op.value
            )
            outcome = StepOutcome(
                step=op.step,
                tenant=op.tenant,
                kind=op.kind,
                recalc={
                    "recalculated": int(report.recalculated),
                    "errored": int(report.errored),
                },
            )
        else:
            requests = [
                RecommendationRequest(case.target_sheet, case.target_cell)
                for case in op.cases
            ]
            responses = tuple(workspace.serve_batch(requests))
            evaluation = None
            if op.kind == "evaluate":
                matches = 0
                for case, response in zip(op.cases, responses):
                    if response.formula is not None:
                        try:
                            if normalize_formula(response.formula) == case.ground_truth:
                                matches += 1
                        except Exception:  # malformed prediction: counts as miss
                            pass
                evaluation = {
                    "cases": len(op.cases),
                    "accepted": sum(1 for response in responses if response.accepted),
                    "matched": matches,
                }
            outcome = StepOutcome(
                step=op.step,
                tenant=op.tenant,
                kind=op.kind,
                responses=responses,
                evaluation=evaluation,
            )
        result.outcomes.append(outcome)
        if after_step is not None:
            after_step(op, workspace)
    return result


# ---------------------------------------------------------- tie-heavy inputs

#: The layouts :func:`tie_heavy_sheet` builds.
TIE_LAYOUTS = ("copied_rows", "constant_columns", "sparse", "table")


def tie_heavy_sheet(layout: str, n_rows: int, n_cols: int, rng: np.random.Generator) -> Sheet:
    """A sheet whose regions tie: one row copied down (``"copied_rows"``),
    constant columns under a header row (``"constant_columns"``), mostly
    empty so its windows are nearly all padding (``"sparse"``), or a
    ``"table"`` that repeats one row's values half the time.  Its last cell
    pins the extent."""
    sheet = Sheet(layout)
    base = [f"label {rng.integers(3)}"] + [float(rng.integers(4)) for __ in range(max(n_cols - 1, 0))]
    for row in range(n_rows):
        for col in range(n_cols):
            if layout == "copied_rows":
                sheet.set((row, col), base[col])
            elif layout == "constant_columns":
                sheet.set((row, col), base[col] if row else f"head {col}")
            elif layout == "sparse" and rng.random() < 0.05:
                sheet.set((row, col), float(rng.integers(3)))
            elif layout == "table" and rng.random() < 0.8:
                sheet.set((row, col), base[col] if rng.random() < 0.5 else float(rng.integers(1000)))
    if n_rows and n_cols:
        sheet.set((n_rows - 1, n_cols - 1), 1.0)
    return sheet


def tie_heavy_vectors(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """``n`` float32 vectors of ``d`` dimensions built to tie under a
    distance: drawn from a small base set with noise that is often zero or
    ULP-scale, so exact duplicates, near-duplicates (distances that can
    clamp to 0.0) and a zero vector all occur."""
    base = rng.standard_normal((max(n // 4, 1), d)).astype(np.float32)
    rows = base[rng.integers(0, base.shape[0], size=n)]
    noise = rng.standard_normal((n, d)).astype(np.float32) * rng.choice(
        [0.0, 1e-7, 0.1], size=(n, 1)
    )
    vectors = (rows + noise).astype(np.float32)
    if n >= 6:
        vectors[:3] = vectors[3:6]
    if n >= 8:
        vectors[7] = 0.0
    return vectors
