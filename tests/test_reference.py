"""The pipeline against the reference Auto-Formula (``repro.testing.reference``).

Every answer a workspace gives — ``recommend`` and ``serve_batch``, live
and restored from a snapshot plus its mutation log — must equal the
reference's, after every op of generated add / remove / edit / recommend
/ serve streams over generated corpora and tie-heavy sheets, with the
index's BLAS tier at its default gate and forced on at 2 pairs.
The index's ``search_batch`` must equal the reference k-NN for any pool,
store history and k.  Hypothesis runs derandomized: a failure repeats.
"""

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AutoFormula, AutoFormulaConfig, RecommendationRequest, Workspace
from repro.ann import SearchResult, VectorIndex
from repro.sheet import CellAddress, Workbook
from repro.testing import WorkloadConfig, generate_workload, replay_workload
from repro.testing.reference import ReferenceAutoFormula, answer_of, knn
from repro.testing.workload import TIE_LAYOUTS, tie_heavy_sheet, tie_heavy_vectors

#: The default gate, and one every search with a pool of 32 crosses.
GATES = (VectorIndex.tier1_min_pairs, 2)

STREAM = WorkloadConfig(
    n_tenants=1,
    n_steps=8,
    op_weights=(0.25, 0.15, 0.2, 0.25, 0.15, 0.0),
    initial_workbooks=2,
    max_recommend_batch=3,
    max_cases=5,
)
#: The ops after which the tie-heavy requests are asked again.
MUTATIONS = ("add", "remove", "edit")

#: What the tie-heavy sheet carries in column C, by row: ranges, a cell
#: used twice, a range end used again, parameters outside its extent, one
#: formula that does not parse, and (in row 41) parameters far from every
#: other formula, where a copied row ties whole columns.  Column F holds
#: one template down every row.
FORMULAS = {
    7: "=SUM(B2:B6)",
    8: "=B2+B2*C3",
    9: "=SUM(B2:B6)/B6",
    10: "=SUM(A1:C40)+F30",
    11: "=A1*D9",
    12: "=SUM(B2:",
    40: "=SUM(B25:B30)+B33",
}


def _ties(case, rng):
    """A workbook of a tie-heavy sheet and its copy under another name (S1
    and S2 tie across them), and the requests that reach it: its blanked
    copy at its formula cells, and another sheet of its layout at C8, at a
    random cell and past the extent."""
    sheet = tie_heavy_sheet(case["layout"], *case["shape"], rng)
    for row, formula in FORMULAS.items():
        sheet.set((row, 2), formula=formula)
    for row in range(sheet.n_rows):
        sheet.set((row, 5), formula=f"=B{row + 1}*2")
    workbook = Workbook("ties.xlsx")
    workbook.add_sheet(sheet)
    workbook.add_sheet(sheet.copy("twin"))
    blanked, other = sheet.copy(), tie_heavy_sheet(case["layout"], *case["shape"], rng)
    asked = [CellAddress(row, 2) for row in FORMULAS]
    asked.append(CellAddress(int(rng.integers(0, sheet.n_rows)), 5))
    for cell in asked:
        blanked.set(cell, value=None)
    cells = [(blanked, cell) for cell in asked] + [(other, CellAddress(7, 2))]
    cells.append((other, CellAddress(int(rng.integers(0, 40)), int(rng.integers(0, 10)))))
    cells.append((other, CellAddress(other.n_rows + 12, other.n_cols + 4)))
    return workbook, [RecommendationRequest(target, cell) for target, cell in cells]


@st.composite
def streams(draw):
    return dict(
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        layout=draw(st.sampled_from(TIE_LAYOUTS)),
        shape=(draw(st.integers(0, 40)), draw(st.integers(0, 7))),
        locality_penalty=draw(st.sampled_from((0.01, 0.0))),  # 0: whole columns tie
        top_k_sheets=draw(st.sampled_from((3, 6))),
        save_at=draw(st.integers(0, STREAM.initial_workbooks + STREAM.n_steps)),
    )


@pytest.mark.parametrize("gate", GATES)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(case=streams())
def test_workspace_answers_like_the_reference(trained_encoder, gate, case):
    rng = np.random.default_rng(case["seed"])
    config = AutoFormulaConfig(
        locality_penalty=case["locality_penalty"], top_k_sheets=case["top_k_sheets"]
    )
    reference = ReferenceAutoFormula.over(trained_encoder, config)
    ties, asked = _ties(case, rng)
    workload = generate_workload(case["seed"], STREAM)

    def assert_like_reference(workspace, requests):
        expected = [reference.recommend(workspace.workbooks(), r.sheet, r.cell) for r in requests]
        assert [answer_of(r) for r in workspace.serve_batch(requests)] == expected
        assert [answer_of(workspace.recommend(r)) for r in requests] == expected

    def workspace_for(tenant):
        workspace = Workspace(tenant, AutoFormula(trained_encoder, config))
        workspace.add_workbook(ties)
        return workspace

    def after_step(op, workspace):
        if op.step == case["save_at"]:
            workspace.save(directory)  # what follows lands in the log
        cases = [RecommendationRequest(c.target_sheet, c.target_cell) for c in op.cases]
        assert_like_reference(workspace, cases + (asked if op.kind in MUTATIONS else []))
        # No answer shows a stale ||r||^2 (S3's tier 1 adds it to a whole
        # block), so the reference stores' norms are read against their rows.
        for entry in filter(None, workspace.predictor._reference_sheets):
            rows, norms = entry.store.rows(np.arange(len(entry.store)))
            assert norms.tobytes() == np.einsum("ij,ij->i", rows, rows).tobytes()

    with tempfile.TemporaryDirectory() as directory, mock.patch.object(
        VectorIndex, "tier1_min_pairs", gate
    ):
        [workspace] = replay_workload(workload, workspace_for, after_step).workspaces.values()
        if case["save_at"] >= len(workload.ops):
            workspace.save(directory)
        restored = Workspace.load(directory, AutoFormula(trained_encoder, config))
        assert restored.workbook_names == workspace.workbook_names
        [cases] = workload.cases.values()
        requests = [RecommendationRequest(c.target_sheet, c.target_cell) for c in cases]
        assert_like_reference(restored, requests + asked)


def _pool(rng, size, run_lengths):
    """Runs of consecutive store positions at random places, in random
    order, no position twice; tombstoned positions included."""
    taken = np.zeros(size, dtype=bool)
    pieces = [np.empty(0, dtype=np.int64)]
    for length in run_lengths:
        first = int(rng.integers(0, max(size - length, 0) + 1))
        piece = np.arange(first, min(first + length, size))
        pieces.append(piece[~taken[piece]])
        taken[piece] = True
    return np.concatenate([pieces[int(i)] for i in rng.permutation(len(pieces))])


@st.composite
def stores(draw):
    """A store, its history, a pool over it (``None``: a full scan) and a
    batch of queries.  At D=64 and 128 the view threshold (32 KiB of rows)
    is 128 and 64 rows, so the runs fall on both sides of it."""
    return dict(
        d=draw(st.sampled_from((4, 64, 128))),
        n=draw(st.integers(min_value=1, max_value=400)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        history=draw(st.sampled_from(("fresh", "updated", "compacted_then_added"))),
        dead_fraction=draw(st.sampled_from((0.0, 0.05, 0.3))),
        runs=draw(st.none() | st.lists(st.integers(1, 200), min_size=1, max_size=10)),
        n_queries=draw(st.integers(min_value=1, max_value=6)),
        k=draw(st.integers(min_value=1, max_value=12)),
        gate=draw(st.sampled_from(GATES)),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=stores())
def test_exact_search_is_the_reference_knn(case):
    rng = np.random.default_rng(case["seed"])
    d = case["d"]
    index = VectorIndex(d)
    vectors = {}  # key -> the vector its row must hold; removed keys leave
    slots = []  # the key of every store position, tombstones included

    def add(tag, count):
        keys, block = [(tag, i) for i in range(count)], tie_heavy_vectors(rng, count, d)
        index.add_batch(keys, block)
        vectors.update(zip(keys, block))
        slots.extend(keys)

    def live():
        return [position for position, key in enumerate(slots) if key in vectors]

    def remove(count):
        dead = rng.choice(live(), size=count, replace=False)
        for position in dead:
            del vectors[slots[position]]
        if index.remove_batch(dead) is not None:  # compacted, in store order
            slots[:] = [key for key in slots if key in vectors]

    add("v", case["n"])
    if case["history"] == "compacted_then_added":
        remove(case["n"] // 2 + 1)
        add("w", case["n"] // 3)
    remove(int(len(vectors) * case["dead_fraction"]))
    if case["history"] == "updated":
        moved = rng.choice(live(), size=len(vectors) // 3, replace=False)
        block = tie_heavy_vectors(rng, moved.size, d)
        index.update_batch(moved, block)
        vectors.update(zip((slots[position] for position in moved), block))
    pool = None if case["runs"] is None else _pool(rng, len(slots), case["runs"])
    scored = [slots[p] for p in (range(len(slots)) if pool is None else pool) if slots[p] in vectors]
    queries, k = tie_heavy_vectors(rng, case["n_queries"], d), case["k"]
    expected = [
        [SearchResult(scored[row], distance) for row, distance in hits]
        for hits in knn(queries, np.array([vectors[key] for key in scored]).reshape(-1, d), k)
    ]
    with mock.patch.object(VectorIndex, "tier1_min_pairs", case["gate"]):
        assert index.search_batch(queries, k, positions=pool) == expected
        assert [index.search_batch(query[None], k, positions=pool)[0] for query in queries] == expected
