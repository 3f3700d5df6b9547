"""One scoring engine, two paths: acceptance suite.

Which path a search takes — the plain fixed-order einsum, or the BLAS
tier-1 scan + exact re-rank of a guaranteed slice — is chosen from the
pairs it scores (``n_queries * pool`` vs ``VectorIndex.tier1_min_pairs``);
the *answer* never depends on it: rankings and distances are
**bit-identical** across index kinds, pool sizes, ``k`` and tombstone
patterns, through the overflow fallback, and with a batch and its single
requests on different sides of the gate — and, for a caller's pool, on
whether its rows were scored as views of the store or gathered first.
Alongside: index memory accounting, duplicate collapsing and
query-embedding reuse.
"""

import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AutoFormula, AutoFormulaConfig, ServerConfig, Workspace
from repro.ann import SearchResult, create_index
from repro.core.interface import FormulaPredictor, Prediction
from repro.obs import MetricsRegistry
from repro.server.metrics import stats_body
from repro.service import RecommendationRequest
from repro.sheet import CellAddress, Sheet, Workbook

INDEX_KINDS = ("exact", "ivf", "lsh")

#: A gate no call can reach: the index always takes the plain path.
UNREACHABLE = 1 << 62


def _make_pool(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """A duplicate-heavy, tie-provoking vector pool.

    Rows are drawn from a small base set with noise that is often zero or
    tiny, so exact duplicates, near-duplicates (ULP-scale distances that
    can clamp to 0.0), and a zero vector all occur — the patterns that
    stress stable-sort tie-breaking and the clamped-tie slice rule.
    """
    base = rng.standard_normal((max(n // 4, 1), d)).astype(np.float32)
    rows = base[rng.integers(0, base.shape[0], size=n)]
    noise = rng.standard_normal((n, d)).astype(np.float32) * rng.choice(
        [0.0, 1e-7, 0.1], size=(n, 1)
    )
    pool = (rows + noise).astype(np.float32)
    if n >= 6:
        pool[:3] = pool[3:6]
    if n >= 8:
        pool[7] = 0.0
    return pool


def _gated_index(kind, d, gate):
    index = create_index(kind, d)
    index.tier1_min_pairs = gate
    return index


def _build_pair(kind, n, d, seed, remove_fraction):
    """A (plain-only, tier-1-on-everything) index pair fed identical mutations."""
    rng = np.random.default_rng(seed)
    data = _make_pool(rng, n, d)
    keys = [f"v{i}" for i in range(n)]
    plain = _gated_index(kind, d, UNREACHABLE)
    # Force tier-1 engagement on the tiny pools hypothesis generates.
    blas = _gated_index(kind, d, 2)
    plain.add_batch(keys, data)
    blas.add_batch(keys, data)
    n_remove = int(n * remove_fraction)
    if n_remove:
        dead = rng.choice(n, size=n_remove, replace=False)
        plain.remove_batch(dead)
        blas.remove_batch(dead)
    queries = _make_pool(rng, 5, d)
    return plain, blas, queries, rng


@st.composite
def parity_cases(draw):
    return dict(
        kind=draw(st.sampled_from(INDEX_KINDS)),
        n=draw(st.integers(min_value=1, max_value=160)),
        d=draw(st.integers(min_value=2, max_value=24)),
        k=draw(st.integers(min_value=1, max_value=12)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        remove_fraction=draw(st.sampled_from((0.0, 0.25, 0.6))),
    )


class TestTwoPathParity:
    """Final rankings must be bit-identical on both sides of the gate."""

    @settings(max_examples=80, deadline=None)
    @given(case=parity_cases())
    def test_search_batch_bit_identical(self, case):
        k = case.pop("k")
        plain, blas, queries, rng = _build_pair(**case)
        assert plain.search_batch(queries, k) == blas.search_batch(queries, k)

    @settings(max_examples=40, deadline=None)
    @given(case=parity_cases())
    def test_positions_pool_bit_identical(self, case):
        """The S2-style caller-provided candidate-pool path."""
        k = case.pop("k")
        plain, blas, queries, rng = _build_pair(**case)
        alive = np.flatnonzero(plain._alive[: plain._size])
        if alive.size < 2:
            return
        pool = np.sort(rng.choice(alive, size=max(alive.size // 2, 2), replace=False))
        assert plain.search_batch(queries, k, positions=pool) == blas.search_batch(
            queries, k, positions=pool
        )

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_overflow_falls_back_bit_identical(self, kind):
        """A pool of near-identical vectors overflows the slice budget:
        every row must fall back to the plain scorer, still bit-equal."""
        rng = np.random.default_rng(3)
        d, n = 8, 120
        data = np.tile(rng.standard_normal((1, d)).astype(np.float32), (n, 1))
        data += rng.standard_normal((n, d)).astype(np.float32) * 1e-7
        keys = list(range(n))
        plain = _gated_index(kind, d, UNREACHABLE)
        blas = _gated_index(kind, d, 2)
        plain.add_batch(keys, data)
        blas.add_batch(keys, data)
        queries = data[:4] + rng.standard_normal((4, d)).astype(np.float32) * 1e-7
        assert plain.search_batch(queries, 3) == blas.search_batch(queries, 3)

    def test_fallbacks_are_counted_exactly_under_concurrent_searches(self):
        """Half the pool is one point repeated (its queries' guaranteed
        slices overflow the budget), half is spread out (theirs do not):
        the mixed call re-ranks two rows and falls back on two, the
        all-cluster call overflows outright — and N threads searching at
        once lose no count (searches share the workspace's read lock)."""
        rng = np.random.default_rng(11)
        d, n = 8, 120
        cluster = np.tile(rng.standard_normal((1, d)).astype(np.float32), (n // 2, 1))
        spread = rng.standard_normal((n // 2, d)).astype(np.float32) * 4.0
        data = np.concatenate([cluster, spread])
        plain, blas = _gated_index("exact", d, UNREACHABLE), _gated_index("exact", d, 2)
        for index in (plain, blas):
            index.add_batch(list(range(n)), data)
        mixed = np.concatenate([cluster[:2], spread[:2]])

        def fallbacks(index):
            counts = index.counters()
            return counts["index.tier2_fallback_rows"], counts["index.two_tier_overflow"]

        assert fallbacks(blas) == (0, 0)
        assert plain.search_batch(mixed, 3) == blas.search_batch(mixed, 3)
        assert fallbacks(blas) == (2, 0)
        assert plain.search_batch(cluster[:4], 3) == blas.search_batch(cluster[:4], 3)
        assert fallbacks(blas) == (2, 1)
        assert fallbacks(plain) == (0, 0)

        n_threads, n_rounds = 8, 50
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for __ in range(n_rounds):
                blas.search_batch(mixed, 3)
                blas.search_batch(cluster[:4], 3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for __ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert fallbacks(blas) == (2 + 2 * n_threads * n_rounds, 1 + n_threads * n_rounds)

    def test_search_single_matches_batch_row(self):
        """A batch above the gate and its rows below it answer alike."""
        index = _gated_index("exact", 6, 200)
        rng = np.random.default_rng(5)
        index.add_batch(list(range(100)), _make_pool(rng, 100, 6))
        queries = rng.standard_normal((4, 6)).astype(np.float32)
        batch = index.search_batch(queries, 4)  # 4 x 100 pairs: tier 1
        assert [index.search(query, 4) for query in queries] == batch  # 1 x 100: plain


def _gathered_reference(index, queries, positions, k):
    """The pooled scorer in the form it had before pools were scored where
    they lie — gather the live rows of the pool, one fixed-order einsum
    over the copy — kept here as the reference implementation."""
    positions = positions[index._alive[positions]]
    distances = (
        index._sq_norms[positions][None, :]
        - 2.0 * np.einsum("ij,kj->ik", queries, index._matrix[positions])
        + np.einsum("ij,ij->i", queries, queries)[:, None]
    )
    np.maximum(distances, 0.0, out=distances)
    return [
        [
            SearchResult(index._keys[int(positions[i])], float(row[i]))
            for i in np.argsort(row, kind="stable")[:k]
        ]
        for row in distances
    ]


def _restore_as_memory_map(index, directory):
    """A fresh index of the same kind over ``index``'s store, its matrix and
    norms read-only memory maps (what a lazily loaded snapshot hands over)."""
    state = index.store_state()
    for name in ("matrix", "sq_norms"):
        np.save(Path(directory) / f"{name}.npy", state[name])
    restored = type(index)(index.dimension)
    restored.restore_store(
        list(index._keys),
        np.load(Path(directory) / "matrix.npy", mmap_mode="r"),
        np.load(Path(directory) / "sq_norms.npy", mmap_mode="r"),
        state["alive"],
    )
    assert isinstance(restored._matrix, np.memmap) and not restored._matrix.flags.writeable
    return restored


@st.composite
def pool_cases(draw):
    """A store, what happened to it, and the shape of a pool over it.  The
    dimensions put the view threshold (32 KiB of rows) at 128, 64 and 32
    rows, so run lengths of 1-200 fall on both sides of it."""
    return dict(
        d=draw(st.sampled_from((64, 128, 256))),
        n=draw(st.integers(min_value=300, max_value=900)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        history=draw(st.sampled_from(("fresh", "memory_map", "updated", "compacted_then_added"))),
        dead_fraction=draw(st.sampled_from((0.0, 0.05, 0.3))),
        run_lengths=draw(st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=8)),
        n_singles=draw(st.integers(min_value=0, max_value=12)),
        n_queries=draw(st.integers(min_value=1, max_value=6)),
        k=draw(st.sampled_from((1, 3))),
        gate=draw(st.sampled_from((2, 2000, UNREACHABLE))),
    )


def _pool_over(rng, size, run_lengths, n_singles):
    """Runs of consecutive positions at random places in random order, with
    scattered single positions shuffled in between (no position twice)."""
    taken = np.zeros(size, dtype=bool)
    pieces = []
    for length in run_lengths + [1] * n_singles:
        length = min(length, size)
        first = int(rng.integers(0, size - length + 1))
        piece = np.arange(first, first + length)
        piece = piece[~taken[piece]]
        taken[piece] = True
        if piece.size:
            pieces.append(piece)
    order = rng.permutation(len(pieces))
    return np.concatenate([pieces[int(i)] for i in order]).astype(np.int64)


class TestPoolWhereItLies:
    """A caller's pool is scored run by run — long runs of consecutive store
    rows as views, the rest gathered — at answers equal to gathering it all."""

    @settings(max_examples=60, deadline=None)
    @given(case=pool_cases())
    def test_pooled_search_equals_the_gathered_scorer(self, case):
        rng = np.random.default_rng(case["seed"])
        d, n = case["d"], case["n"]
        index = _gated_index("exact", d, case["gate"])
        index.add_batch([("v", i) for i in range(n)], _make_pool(rng, n, d))
        if case["history"] == "compacted_then_added":
            index.remove_batch(rng.choice(n, size=n // 2 + 1, replace=False))  # compacts
            assert index.n_tombstones == 0
            extra = _make_pool(rng, n // 3, d)
            index.add_batch([("w", i) for i in range(len(extra))], extra)
        n_dead = int(index._size * case["dead_fraction"])
        if n_dead:
            assert index.remove_batch(rng.choice(index._size, size=n_dead, replace=False)) is None
        with tempfile.TemporaryDirectory() as directory:
            if case["history"] == "memory_map":
                index = _restore_as_memory_map(index, directory)
                index.tier1_min_pairs = case["gate"]
            elif case["history"] == "updated":
                live = np.flatnonzero(index._alive[: index._size])
                moved = rng.choice(live, size=live.size // 3, replace=False)
                index.update_batch(moved, _make_pool(rng, moved.size, d))
            pool = _pool_over(rng, index._size, case["run_lengths"], case["n_singles"])
            queries = _make_pool(rng, case["n_queries"], d)
            k = case["k"]
            batch = index.search_batch(queries, k, positions=pool)
            assert batch == _gathered_reference(index, queries, pool, k)
            assert batch == [index.search_batch(query[None, :], k, positions=pool)[0] for query in queries]

    @pytest.mark.parametrize("gate", [2, UNREACHABLE])
    def test_runs_are_counted_and_traced(self, tracer, gate):
        """Rows in runs of at least 32 KiB (here 128 rows) are scored in
        place, the rest gathered; the counts and the span's ``runs`` are the
        only place that shows."""
        rng = np.random.default_rng(23)
        index = _gated_index("exact", 64, gate)
        index.add_batch(list(range(1000)), _make_pool(rng, 1000, 64))
        pool = np.concatenate(
            [np.arange(700, 828), np.arange(100, 227), [950, 40], np.arange(400, 600)]
        )
        queries = _make_pool(rng, 3, 64)
        hits, attributes = _search_span(tracer, lambda: index.search_batch(queries, 1, positions=pool))
        assert hits == _gathered_reference(index, queries, pool, 1)
        assert attributes["runs"] == 5 and attributes["pool"] == pool.size
        assert attributes["mode"] == ("two_tier" if gate == 2 else "exact")
        counts = index.counters()
        assert counts["index.rows_scored_in_place"] == 128 + 200
        assert counts["index.rows_gathered"] == 127 + 2
        # A full scan is one run of the whole store; tombstones split it.
        __, attributes = _search_span(tracer, lambda: index.search_batch(queries, 1))
        assert attributes["runs"] == 1
        assert index.counters()["index.rows_scored_in_place"] == 128 + 200 + 1000
        index.remove_batch([300])
        __, attributes = _search_span(tracer, lambda: index.search_batch(queries, 1))
        assert attributes["runs"] == 2
        assert index.counters()["index.rows_scored_in_place"] == 128 + 200 + 1000 + 999

    def test_fallback_counts_the_pool_once(self):
        """Rows that fall back to the plain scorer, and a search whose every
        row does, cross the pool a second time; the counts are rows of the
        pool, not passes over it."""
        rng = np.random.default_rng(37)
        d = 64
        cluster = np.tile(rng.standard_normal((1, d)).astype(np.float32), (200, 1))
        spread = rng.standard_normal((200, d)).astype(np.float32) * 4.0
        index = _gated_index("exact", d, 2)
        index.add_batch(list(range(400)), np.concatenate([cluster, spread]))
        pool = np.concatenate([np.arange(250, 380), np.arange(0, 150), [390]])

        def counts():
            values = index.counters()
            return [values["index." + name] for name in (
                "rows_scored_in_place", "rows_gathered", "tier2_fallback_rows", "two_tier_overflow"
            )]

        mixed = np.concatenate([cluster[:2], spread[60:62]])  # the last two are in the pool
        assert index.search_batch(mixed, 1, positions=pool) == _gathered_reference(index, mixed, pool, 1)
        assert counts() == [280, 1, 2, 0]
        index.search_batch(cluster[:4], 1, positions=pool)
        assert counts() == [560, 2, 2, 1]

    @pytest.mark.parametrize("n_queries", [1, 4])
    def test_no_pool_sized_temporary(self, n_queries):
        """Three sheets' formulas, 900 rows of 1280 floats: gathering them
        is a 4.6 MB copy; scored where they lie, one search allocates less
        than 1 MB on either path (1 query: plain, 4: BLAS + re-rank)."""
        rng = np.random.default_rng(29)
        d = 1280
        index = create_index("exact", d)
        index.add_batch(list(range(2400)), rng.standard_normal((2400, d)).astype(np.float32))
        pool = np.concatenate([np.arange(first, first + 300) for first in (1800, 100, 900)])
        queries = rng.standard_normal((n_queries, d)).astype(np.float32)
        expected = _gathered_reference(index, queries, pool, 1)
        tracemalloc.start()
        try:
            hits = index.search_batch(queries, 1, positions=pool)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hits == expected
        assert peak < 1_000_000, peak
        assert index.counters()["index.rows_gathered"] == 0


class TestCompactionHeadRoom:
    """``_compact`` gathers the live rows into a store with room to grow."""

    @pytest.mark.parametrize("memory_map", [False, True])
    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_add_after_compaction_does_not_reallocate(self, kind, memory_map, tmp_path):
        rng = np.random.default_rng(31)
        d, n = 16, 200
        data = _make_pool(rng, n + 60, d)
        index = create_index(kind, d)
        index.add_batch(list(range(n)), data[:n])
        fresh = create_index(kind, d)
        if memory_map:
            index = _restore_as_memory_map(index, tmp_path)
            mapped = index._matrix
        dead = rng.choice(n, size=n // 2 + 1, replace=False)
        remap = index.remove_batch(dead)
        assert remap is not None and index.n_tombstones == 0  # compacted
        survivors = np.setdiff1d(np.arange(n), dead)
        assert np.array_equal(remap[survivors], np.arange(survivors.size))
        if memory_map:  # gathered out of the map, which nothing wrote through
            assert not isinstance(index._matrix, np.memmap) and not mapped.flags.writeable
        store, norms, alive = index._matrix, index._sq_norms, index._alive
        assert store.shape[0] >= 2 * len(index)
        index.add_batch(list(range(n, n + 60)), data[n:])
        assert index._matrix is store and index._sq_norms is norms and index._alive is alive
        # ... and answers like an index that only ever held the live vectors.
        fresh.add_batch([int(i) for i in survivors] + list(range(n, n + 60)), np.concatenate([data[survivors], data[n:]]))
        queries = _make_pool(rng, 5, d)
        assert index.search_batch(queries, 3) == fresh.search_batch(queries, 3)
        assert np.array_equal(index.vectors, fresh.vectors)


def _search_span(tracer, search):
    """Run ``search`` and return (its hits, its ``index.search`` span attributes)."""
    tracer.reset()
    hits = search()
    root = tracer.recent_traces()[-1]["root"]
    assert root["name"] == "index.search"
    return hits, root["attributes"]


class TestGate:
    """The default gate picks the path from the pairs a call scores."""

    @pytest.mark.parametrize(
        "pool, n_queries, mode",
        [(500, 1, "exact"), (200, 4, "exact"), (5000, 1, "two_tier"), (500, 16, "two_tier")],
    )
    def test_default_gate_picks_path_by_pairs(self, tracer, pool, n_queries, mode):
        rng = np.random.default_rng(pool + n_queries)
        index = create_index("exact", 16)
        store = pool + 100  # full scan and a strict-subset positions pool, same side
        index.add_batch(list(range(store)), rng.standard_normal((store, 16)).astype(np.float32))
        queries = rng.standard_normal((n_queries, 16)).astype(np.float32)
        for positions in (None, np.sort(rng.choice(store, size=pool, replace=False))):
            hits, attributes = _search_span(
                tracer, lambda: index.search_batch(queries, 3, positions=positions)
            )
            assert attributes["mode"] == mode
            assert attributes["n_queries"] == n_queries
            assert attributes["pool"] == (store if positions is None else pool)
            assert hits == index._score_exact(queries, positions, 3)

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_batch_and_singles_on_opposite_sides(self, tracer, trained_encoder, pge_corpus, kind):
        """One ``serve_batch`` group crosses the gate in S2 while the same
        requests one at a time stay under it; the responses are equal."""
        from repro.corpus import split_corpus

        test_workbooks, references = split_corpus(pge_corpus, 0.15, "timestamp")
        source = max(
            (sheet for workbook in test_workbooks for sheet in workbook),
            key=lambda sheet: sheet.n_formulas(),
        )
        target = source.copy()
        cells = [address for address, cell in source.cells() if cell.has_formula][:4]
        for address in cells:  # one shared target sheet, every asked cell blank
            target.set(address, value=None, formula=None, style=source.get(address).style)
        requests = [RecommendationRequest(target, address) for address in cells]
        config = AutoFormulaConfig(sheet_index_kind=kind, formula_index_kind=kind)
        workspace = Workspace("gate", AutoFormula(trained_encoder, config))
        workspace.add_workbooks(references)

        def s2_search(tree):
            """Span attributes of the S2 index search in one serve trace."""
            (s2,) = [node for node in tree["root"]["children"] if node["name"] == "s2.score"]
            (search,) = [node for node in s2["children"] if node["name"] == "index.search"]
            return search["attributes"]

        workspace.recommend(requests[0])
        pool = s2_search(tracer.recent_traces()[-1])["pool"]
        assert pool >= 32 and len(requests) >= 2  # tier 1 can engage, for the group only
        workspace.predictor.formula_index.tier1_min_pairs = pool + 1
        tracer.reset()
        singles = [workspace.recommend(request) for request in requests]
        assert {s2_search(tree)["mode"] for tree in tracer.recent_traces()} == {"exact"}
        batch = workspace.serve_batch(requests)
        assert s2_search(tracer.recent_traces()[-1])["mode"].startswith("two_tier")
        assert [_response_key(r) for r in batch] == [_response_key(r) for r in singles]

    def test_removed_options_raise_type_error(self):
        """The options are gone, not ignored."""
        with pytest.raises(TypeError):
            AutoFormulaConfig(scoring_mode="two_tier")
        with pytest.raises(TypeError):
            create_index("exact", 4, storage_dtype="int8")
        with pytest.raises(TypeError):
            ServerConfig(scoring_mode="two_tier")


class TestMemoryStats:
    """The /stats index-memory surface."""

    def test_index_memory_accounting(self):
        index = create_index("exact", 16)
        rng = np.random.default_rng(17)
        index.add_batch(list(range(100)), _make_pool(rng, 100, 16))
        index.remove_batch([0, 1, 2])
        stats = index.memory_stats()
        assert stats["vectors"] == 97
        assert stats["tombstones"] == 3
        assert stats["bytes"]["float32_matrix"] == 100 * 16 * 4
        assert stats["bytes"]["total"] == sum(
            value for key, value in stats["bytes"].items() if key != "total"
        )
        assert stats["tombstone_bytes"] > 0

    def test_workspace_memory_stats(self, trained_encoder):
        workspace = Workspace("w", AutoFormula(trained_encoder, AutoFormulaConfig()))
        workspace.add_workbook(_survey_workbook())
        stats = workspace.memory_stats()
        assert stats["total_bytes"] == sum(
            stats[name]["bytes"]["total"] for name in ("sheet_index", "formula_index")
        ) > 0

    def test_server_metrics_memory_gauges(self):
        """A layer's ``counters()`` is mirrored key by key under a label,
        and everything under the label goes when its owner is pruned."""
        registry = MetricsRegistry()
        registry.counter("server.accepted").inc()
        labels = {"workspace": "main"}
        registry.gauge("workspace.index_bytes", labels, fn=lambda: 123)
        counts = {"workspace.region_store_hit": 5, "workspace.region_store_miss": 2}
        registry.mirror(lambda: counts, labels)
        assert registry.snapshot()["workspace"] == {
            "index_bytes": {"workspace=main": 123},
            "region_store_hit": {"workspace=main": 5},
            "region_store_miss": {"workspace=main": 2},
        }
        # The gauges are live, and a key the layer adds appears at the next mirror.
        counts["workspace.region_store_hit"] = 6
        counts["index.two_tier_overflow"] = 1
        registry.mirror(lambda: counts, labels)
        tree = registry.snapshot()
        assert tree["workspace"]["region_store_hit"] == {"workspace=main": 6}
        assert tree["index"]["two_tier_overflow"] == {"workspace=main": 1}
        registry.prune("workspace", ["other"])
        assert registry.names() == ["server.accepted"]
        assert stats_body(registry)["counters"]["accepted"] == 1


def _survey_workbook(n_rows: int = 12) -> Workbook:
    sheet = Sheet("Data")
    for row in range(n_rows):
        sheet.set((row, 0), float(row + 1))
        sheet.set((row, 1), float((row + 1) * 2))
        sheet.set((row, 2), formula=f"=A{row + 1}+B{row + 1}")
    workbook = Workbook("Survey")
    workbook.add_sheet(sheet)
    return workbook


def _target_sheet(n_rows: int = 12) -> Sheet:
    sheet = Sheet("Target")
    for row in range(n_rows):
        sheet.set((row, 0), float(row + 3))
        sheet.set((row, 1), float((row + 3) * 2))
    return sheet


def _spied_workspace(trained_encoder, record):
    """A survey workspace, and the list that collects ``record(sheet)`` for
    every sheet its predictor encodes."""
    predictor = AutoFormula(trained_encoder, AutoFormulaConfig())
    workspace = Workspace("w", predictor)
    workspace.add_workbook(_survey_workbook())
    encodes = []
    original = predictor._encode_sheet_vector
    predictor._encode_sheet_vector = lambda sheet: (encodes.append(record(sheet)), original(sheet))[1]
    return workspace, encodes


def _response_key(response):
    return (
        response.formula,
        repr(response.confidence),
        response.abstain_reason,
        response.provenance,
    )


class _CountingPredictor(FormulaPredictor):
    """A predictor with no ``config``: answers from the cell alone, abstains
    on row 7, and counts the cells it is asked for."""

    name = "counting"

    def __init__(self) -> None:
        self.cells_predicted = 0

    def fit(self, reference_workbooks):
        pass

    def predict(self, target_sheet, target_cell):
        return self.predict_batch(target_sheet, [target_cell])[0]

    def predict_batch(self, target_sheet, target_cells):
        self.cells_predicted += len(target_cells)
        return [
            None
            if cell.row == 7
            else Prediction(f"=SUM(A1:A{cell.row + 1})", 1.0 / (cell.row + 3), {"row": cell.row})
            for cell in target_cells
        ]


def _assert_batch_equals_one_at_a_time(predictor):
    """``serve_batch`` == ``recommend`` per request on everything but the
    latency, duplicates predicted once, each caller's own echo kept."""
    workspace = Workspace("w", predictor)
    workspace.add_workbook(_survey_workbook())
    targets = [_target_sheet(), _target_sheet()]
    requests = [
        RecommendationRequest(sheet=targets[which], cell=CellAddress(row, 2), request_id=str(i))
        for i, (which, row) in enumerate(
            [(0, 4), (0, 4), (1, 4), (0, 7), (0, 4), (1, 4), (0, 7), (0, 9)]
        )
    ]
    batch = workspace.serve_batch(requests)
    collapsed = "workspace.serve_collapsed_duplicates"
    assert workspace.counters()[collapsed] == 8 - 4  # 4 distinct (sheet, cell)
    singles = [workspace.recommend(request) for request in requests]
    assert [_response_key(r) for r in batch] == [_response_key(r) for r in singles]
    assert workspace.counters()[collapsed] == 8 - 4
    for responses in (batch, singles):
        assert [r.request for r in responses] == requests
    return batch


class TestServeLoopSatellites:
    """Duplicate collapsing and cross-request query-embedding reuse."""

    def test_collapse_duplicates_bit_identical(self, trained_encoder):
        # A threshold nothing misses: the answers compared are formulas
        # with float confidences, not a row of abstentions.
        config = AutoFormulaConfig(acceptance_threshold=4.0)
        batch = _assert_batch_equals_one_at_a_time(AutoFormula(trained_encoder, config))
        assert all(response.accepted for response in batch)

    def test_duplicates_collapse_for_a_predictor_without_a_config(self):
        """Fails at the parent: collapsing was read off ``predictor.config``,
        so a baseline was collapsed over the wire but not in process."""
        predictor = _CountingPredictor()
        batch = _assert_batch_equals_one_at_a_time(predictor)
        assert predictor.cells_predicted == 4 + 8  # the batch, then 8 singles
        assert [response.accepted for response in batch] == [
            True, True, True, False, True, True, False, True,
        ]

    def test_query_embedding_reused_across_batches(self, trained_encoder):
        workspace, encodes = _spied_workspace(trained_encoder, id)
        target = _target_sheet()
        requests = [
            RecommendationRequest(sheet=target, cell=CellAddress(row, 2)) for row in (4, 6)
        ]
        first = workspace.serve_batch(requests)
        second = workspace.serve_batch(requests)
        assert encodes == [id(target)]  # one encode across both batches
        assert [_response_key(r) for r in first] == [_response_key(r) for r in second]

    def test_edited_sheet_reencodes(self, trained_encoder):
        workspace, encodes = _spied_workspace(trained_encoder, lambda sheet: sheet.version)
        target = _target_sheet()
        workspace.serve_batch([RecommendationRequest(sheet=target, cell=CellAddress(4, 2))])
        target.set((0, 0), 99.0)  # bumps the sheet's mutation version
        workspace.serve_batch([RecommendationRequest(sheet=target, cell=CellAddress(4, 2))])
        assert len(encodes) == 2 and encodes[0] != encodes[1]
