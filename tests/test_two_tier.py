"""One scoring engine, two paths: the mechanisms.

Which path a search takes — the plain fixed-order einsum, or the BLAS
tier-1 scan + exact re-rank of a guaranteed slice — is chosen from the
shape of the call (``VectorIndex.takes_tier1``: query rows, pool and
``k``; a set ``VectorIndex.tier1_min_pairs`` makes it a count of pairs),
and a caller's pool is scored run by run, long runs as views of the
store.  The answers of the exact index on either path, for any pool, are
the reference k-NN's (``tests/test_reference.py``); here: the overflow
fallback, the counts and spans that show the path, the allocation bound,
compaction head-room, index memory accounting, duplicate collapsing and
query-embedding reuse.
"""

import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import AutoFormula, AutoFormulaConfig, ServerConfig, Workspace
from repro.ann import SearchResult, VectorIndex
from repro.core.interface import Prediction
from repro.obs import MetricsRegistry
from repro.server.metrics import stats_body
from repro.service import RecommendationRequest
from repro.sheet import CellAddress, Sheet, Workbook
from repro.testing.reference import answer_of, knn
from repro.testing.workload import tie_heavy_vectors

from predictor_stub import StubPredictor

#: A gate no call can reach: the index always takes the plain path.
UNREACHABLE = 1 << 62


def _gated_index(d, gate, make_index=VectorIndex):
    index = make_index(d)
    index.tier1_min_pairs = gate
    return index


class TestTwoPathParity:
    """Final rankings must be bit-identical on both sides of the gate."""

    def test_overflow_falls_back_bit_identical(self, index_factory):
        """A pool of near-identical vectors overflows the slice budget:
        every row must fall back to the plain scorer, still bit-equal."""
        rng = np.random.default_rng(3)
        d, n = 8, 120
        data = np.tile(rng.standard_normal((1, d)).astype(np.float32), (n, 1))
        data += rng.standard_normal((n, d)).astype(np.float32) * 1e-7
        keys = list(range(n))
        plain = _gated_index(d, UNREACHABLE, index_factory)
        blas = _gated_index(d, 2, index_factory)
        plain.add_batch(keys, data)
        blas.add_batch(keys, data)
        queries = data[:4] + rng.standard_normal((4, d)).astype(np.float32) * 1e-7
        assert plain.search_batch(queries, 3) == blas.search_batch(queries, 3)

    def test_fallbacks_are_counted_exactly_under_concurrent_searches(self):
        """Half the pool is one point repeated (its queries' guaranteed
        slices overflow the budget), half is spread out (theirs do not):
        the mixed call re-ranks two rows and falls back on two, the
        all-cluster call overflows outright — and N threads searching at
        once lose no count (the counts are mutex-guarded instruments)."""
        rng = np.random.default_rng(11)
        d, n = 8, 120
        cluster = np.tile(rng.standard_normal((1, d)).astype(np.float32), (n // 2, 1))
        spread = rng.standard_normal((n // 2, d)).astype(np.float32) * 4.0
        data = np.concatenate([cluster, spread])
        plain, blas = _gated_index(d, UNREACHABLE), _gated_index(d, 2)
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


def _reference_hits(vectors, queries, pool, k):
    """The reference k-NN over ``vectors[pool]``, each row keyed by its
    store position."""
    return [
        [SearchResult(int(pool[row]), distance) for row, distance in hits]
        for hits in knn(queries, vectors[pool], k)
    ]


def _restore_as_memory_map(index, directory):
    """A fresh index over ``index``'s store, its matrix and
    norms read-only memory maps (what a lazily loaded snapshot hands over)."""
    state = index.store_state()
    for name in ("matrix", "sq_norms"):
        np.save(Path(directory) / f"{name}.npy", state[name])
    restored = VectorIndex(index.dimension)
    restored.restore_store(
        list(index._keys),
        np.load(Path(directory) / "matrix.npy", mmap_mode="r"),
        np.load(Path(directory) / "sq_norms.npy", mmap_mode="r"),
        state["alive"],
    )
    assert isinstance(restored._store.rows, np.memmap) and not restored._store.rows.flags.writeable
    return restored


class TestPoolWhereItLies:
    """A caller's pool is scored run by run — long runs of consecutive store
    rows as views, the rest gathered — at the reference's answers."""

    @pytest.mark.parametrize("gate", [2, UNREACHABLE])
    def test_runs_are_counted_and_traced(self, tracer, gate):
        """Rows in runs of at least 32 KiB (here 128 rows) are scored in
        place, the rest gathered; the counts and the span's ``runs`` are the
        only place that shows."""
        rng = np.random.default_rng(23)
        index = _gated_index(64, gate)
        data = tie_heavy_vectors(rng, 1000, 64)
        index.add_batch(list(range(1000)), data)
        pool = np.concatenate(
            [np.arange(700, 828), np.arange(100, 227), [950, 40], np.arange(400, 600)]
        )
        queries = tie_heavy_vectors(rng, 3, 64)
        hits, attributes = _search_span(tracer, lambda: index.search_batch(queries, 1, positions=pool))
        assert hits == _reference_hits(data, queries, pool, 1)
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
        index = _gated_index(d, 2)
        data = np.concatenate([cluster, spread])
        index.add_batch(list(range(400)), data)
        pool = np.concatenate([np.arange(250, 380), np.arange(0, 150), [390]])

        def counts():
            values = index.counters()
            return [values["index." + name] for name in (
                "rows_scored_in_place", "rows_gathered", "tier2_fallback_rows", "two_tier_overflow"
            )]

        mixed = np.concatenate([cluster[:2], spread[60:62]])  # the last two are in the pool
        assert index.search_batch(mixed, 1, positions=pool) == _reference_hits(data, mixed, pool, 1)
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
        index = VectorIndex(d)
        data = rng.standard_normal((2400, d)).astype(np.float32)
        index.add_batch(list(range(2400)), data)
        pool = np.concatenate([np.arange(first, first + 300) for first in (1800, 100, 900)])
        queries = rng.standard_normal((n_queries, d)).astype(np.float32)
        expected = _reference_hits(data, queries, pool, 1)
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
    def test_add_after_compaction_does_not_reallocate(self, index_factory, memory_map, tmp_path):
        rng = np.random.default_rng(31)
        d, n = 16, 200
        data = tie_heavy_vectors(rng, n + 60, d)
        index = index_factory(d)
        index.add_batch(list(range(n)), data[:n])
        fresh = index_factory(d)
        if memory_map:
            index = _restore_as_memory_map(index, tmp_path)
            mapped = index._store.rows
        dead = rng.choice(n, size=n // 2 + 1, replace=False)
        remap = index.remove_batch(dead)
        assert remap is not None and index.n_tombstones == 0  # compacted
        survivors = np.setdiff1d(np.arange(n), dead)
        assert np.array_equal(remap[survivors], np.arange(survivors.size))
        if memory_map:  # gathered out of the map, which nothing wrote through
            assert not isinstance(index._store.rows, np.memmap) and not mapped.flags.writeable
        capacity = index._store.capacity
        assert capacity >= 2 * len(index)
        index.add_batch(list(range(n, n + 60)), data[n:])
        assert index._store.capacity == capacity
        # ... and answers like an index that only ever held the live vectors.
        fresh.add_batch([int(i) for i in survivors] + list(range(n, n + 60)), np.concatenate([data[survivors], data[n:]]))
        queries = tie_heavy_vectors(rng, 5, d)
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
    """The default gate picks the path from the shape of a call."""

    @pytest.mark.parametrize(
        "n_queries, pool, k, blas",
        [
            (4, 500, 3, False),  # 2000 pairs: BLAS read 1.12-1.37x slower
            (4, 600, 3, True),
            (1, 1999, 3, False),
            (1, 2000, 3, True),
            (2, 5000, 1, False),  # BLAS packs the pool for two rows
            (3, 5000, 1, False),
            (4, 999, 1, False),
            (4, 1000, 1, True),
            (6, 399, 1, False),
            (6, 400, 1, True),
            (1, 2000, 1, True),
            (200, 31, 1, False),  # a pool under twice the slice budget
        ],
    )
    def test_the_gate_is_the_swept_crossover(self, n_queries, pool, k, blas):
        assert VectorIndex(8).takes_tier1(n_queries, pool, k) is blas

    @pytest.mark.parametrize(
        "pool, n_queries, mode",
        [(500, 1, "exact"), (200, 4, "exact"), (5000, 1, "two_tier"), (500, 16, "two_tier")],
    )
    def test_default_gate_picks_path_by_pairs(self, tracer, pool, n_queries, mode):
        rng = np.random.default_rng(pool + n_queries)
        index = VectorIndex(16)
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

    def test_removed_options_raise_type_error(self):
        """The options are gone, not ignored."""
        with pytest.raises(TypeError):
            AutoFormulaConfig(scoring_mode="two_tier")
        for field in ("sheet_index_kind", "formula_index_kind"):
            with pytest.raises(TypeError):
                AutoFormulaConfig(**{field: "exact"})
        with pytest.raises(TypeError):
            AutoFormulaConfig(max_cached_target_sheets=8)
        with pytest.raises(TypeError):
            VectorIndex(4, storage_dtype="int8")
        with pytest.raises(TypeError):
            ServerConfig(scoring_mode="two_tier")


class TestMemoryStats:
    """The /stats index-memory surface."""

    def test_index_memory_accounting(self):
        index = VectorIndex(16)
        rng = np.random.default_rng(17)
        index.add_batch(list(range(100)), tie_heavy_vectors(rng, 100, 16))
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
        counts = {"workspace.reindex_same": 5, "workspace.reindex_changed": 2}
        registry.mirror(lambda: counts, labels)
        assert registry.snapshot()["workspace"] == {
            "index_bytes": {"workspace=main": 123},
            "reindex_same": {"workspace=main": 5},
            "reindex_changed": {"workspace=main": 2},
        }
        # The gauges are live, and a key the layer adds appears at the next mirror.
        counts["workspace.reindex_same"] = 6
        counts["index.two_tier_overflow"] = 1
        registry.mirror(lambda: counts, labels)
        tree = registry.snapshot()
        assert tree["workspace"]["reindex_same"] == {"workspace=main": 6}
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


def _spied_workspace(trained_encoder, record, monkeypatch):
    """A survey workspace, and the list that collects ``record(sheet)`` for
    every sheet its encoder embeds whole once the corpus is indexed."""
    workspace = Workspace("w", AutoFormula(trained_encoder, AutoFormulaConfig()))
    workspace.add_workbook(_survey_workbook())
    encodes = []
    original = trained_encoder.embed_sheet

    def spy(sheet, **kwargs):
        encodes.append(record(sheet))
        return original(sheet, **kwargs)

    monkeypatch.setattr(trained_encoder, "embed_sheet", spy)
    return workspace, encodes


class _CountingPredictor(StubPredictor):
    """A predictor with no ``config``: answers from the cell alone, abstains
    on row 7, and counts the cells it is asked for."""

    name = "counting"

    def __init__(self) -> None:
        self.cells_predicted = 0

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
    assert [answer_of(r) for r in batch] == [answer_of(r) for r in singles]
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

    def test_query_embedding_reused_across_batches(self, trained_encoder, monkeypatch):
        workspace, encodes = _spied_workspace(trained_encoder, id, monkeypatch)
        target = _target_sheet()
        requests = [
            RecommendationRequest(sheet=target, cell=CellAddress(row, 2)) for row in (4, 6)
        ]
        first = workspace.serve_batch(requests)
        second = workspace.serve_batch(requests)
        assert encodes == [id(target)]  # one encode across both batches
        assert [answer_of(r) for r in first] == [answer_of(r) for r in second]

    def test_edited_sheet_reencodes(self, trained_encoder, monkeypatch):
        workspace, encodes = _spied_workspace(
            trained_encoder, lambda sheet: sheet.version, monkeypatch
        )
        target = _target_sheet()
        workspace.serve_batch([RecommendationRequest(sheet=target, cell=CellAddress(4, 2))])
        target.set((0, 0), 99.0)  # bumps the sheet's mutation version
        workspace.serve_batch([RecommendationRequest(sheet=target, cell=CellAddress(4, 2))])
        assert len(encodes) == 2 and encodes[0] != encodes[1]
