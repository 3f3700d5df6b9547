"""Tests for the exact vector index."""

import numpy as np
import pytest

from repro.ann import VectorIndex


def _random_vectors(n: int, dim: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def _filled(index, n: int, seed: int = 0):
    """``index`` holding ``n`` random unit vectors keyed ``0 .. n-1``, and them."""
    vectors = _random_vectors(n, index.dimension, seed)
    index.add_batch(list(range(n)), vectors)
    return index, vectors


class TestIndexContract:
    def test_empty_index_returns_nothing(self, index_factory):
        index = index_factory(8)
        assert index.search(np.zeros(8, dtype=np.float32), k=3) == []

    def test_self_query_returns_self(self, index_factory):
        index, vectors = _filled(index_factory(16), 50)
        for position in [0, 10, 49]:
            hits = index.search(vectors[position], k=1)
            assert hits[0].key == position
            assert hits[0].distance == pytest.approx(0.0, abs=1e-5)

    def test_k_limits_results(self, index_factory):
        index, vectors = _filled(index_factory(8), 20)
        assert len(index.search(vectors[0], k=5)) == 5
        assert len(index.search(vectors[0], k=100)) <= 20

    def test_results_sorted_by_distance(self, index_factory):
        index, vectors = _filled(index_factory(8), 30)
        hits = index.search(vectors[3], k=10)
        distances = [hit.distance for hit in hits]
        assert distances == sorted(distances)

    def test_dimension_mismatch_rejected(self, index_factory):
        index = index_factory(8)
        with pytest.raises(ValueError):
            index.add("x", np.zeros(9, dtype=np.float32))
        index.add("x", np.zeros(8, dtype=np.float32))
        with pytest.raises(ValueError):
            index.search(np.zeros(9, dtype=np.float32), k=1)

    def test_arbitrary_keys(self, index_factory):
        index = index_factory(4)
        index.add(("sheet", 3), np.ones(4, dtype=np.float32))
        hits = index.search(np.ones(4, dtype=np.float32), k=1)
        assert hits[0].key == ("sheet", 3)

    def test_len(self, index_factory):
        index = index_factory(4)
        index.add_batch(["a", "b"], _random_vectors(2, 4))
        assert len(index) == 2


class TestBatchedSearch:
    def test_search_batch_matches_sequential_search(self, index_factory):
        """Bit for bit (the index's answers are the reference k-NN's:
        tests/test_reference.py)."""
        index, vectors = _filled(index_factory(16), 80, seed=8)
        queries = vectors[:10]
        assert index.search_batch(queries, k=3) == [index.search(query, k=3) for query in queries]

    def test_search_batch_on_empty_index(self):
        index = VectorIndex(4)
        assert index.search_batch(np.zeros((3, 4), dtype=np.float32), k=2) == [[], [], []]

    def test_positions_restrict_the_candidate_pool(self):
        index, vectors = _filled(VectorIndex(8), 50, seed=10)
        pool = np.array([3, 7, 11, 19], dtype=np.int64)
        hits = index.search_batch(vectors[:5], k=2, positions=pool)
        for per_query in hits:
            assert all(hit.key in {3, 7, 11, 19} for hit in per_query)
        # the nearest pool member wins, even though closer vectors exist
        exact_in_pool = min(
            ((int(p), float(np.sum((vectors[p] - vectors[0]) ** 2))) for p in pool),
            key=lambda item: item[1],
        )
        assert hits[0][0].key == exact_in_pool[0]

    def test_contiguous_store_grows(self):
        index = VectorIndex(4)
        for position in range(100):
            index.add(position, np.full(4, position, dtype=np.float32))
        assert len(index) == 100
        assert index.vectors.shape == (100, 4)
        assert np.array_equal(index.vectors[42], np.full(4, 42, dtype=np.float32))

    def test_vectors_view_is_read_only(self):
        index = VectorIndex(4)
        index.add("a", np.ones(4, dtype=np.float32))
        with pytest.raises(ValueError):
            index.vectors[0, 0] = 5.0

    def test_key_count_mismatch_rejected(self):
        index = VectorIndex(4)
        with pytest.raises(ValueError):
            index.add_batch(["a", "b"], np.ones((3, 4), dtype=np.float32))


class TestRemoveBatch:
    """Tombstone-based removal: excluded from every search path, compacted
    once the dead fraction grows, bit-identical to a freshly built index."""

    def test_removed_vectors_never_returned(self, index_factory):
        index, vectors = _filled(index_factory(16), 40, seed=0)
        index.remove_batch([3, 7])
        assert len(index) == 38
        assert index.n_tombstones == 2
        for removed in (3, 7):
            hits = index.search(vectors[removed], k=40)
            assert removed not in {hit.key for hit in hits}

    def test_matches_fresh_index_over_survivors(self, index_factory):
        """After removal, results must be identical to an index freshly
        built from the surviving vectors."""
        index, vectors = _filled(index_factory(16), 60, seed=1)
        index.search(vectors[0], k=1)
        index.remove_batch(list(range(0, 60, 2)))  # evens out, 50% (no compaction)
        assert index.n_tombstones == 30

        fresh = index_factory(16)
        fresh.add_batch(list(range(1, 60, 2)), vectors[1::2])
        for query in vectors[:10]:
            got = [(hit.key, round(hit.distance, 6)) for hit in index.search(query, k=5)]
            expected = [
                (hit.key, round(hit.distance, 6)) for hit in fresh.search(query, k=5)
            ]
            assert got == expected

    def test_compaction_returns_remap(self, index_factory):
        index, vectors = _filled(index_factory(8), 30, seed=2)
        removed = list(range(20))
        remap = index.remove_batch(removed)  # 20/30 > 0.5 -> compaction
        assert remap is not None
        assert index.n_tombstones == 0
        assert len(index) == 10
        assert np.all(remap[:20] == -1)
        assert np.array_equal(remap[20:], np.arange(10))
        # searches keep working against the renumbered store
        for position in range(20, 30):
            assert index.search(vectors[position], k=1)[0].key == position
        # and the remapped positions address the same vectors
        hits = index.search_batch(
            vectors[25:26], k=1, positions=remap[np.arange(20, 30)]
        )
        assert hits[0][0].key == 25

    def test_add_after_remove(self, index_factory):
        vectors = _random_vectors(50, 8, seed=3)
        index = index_factory(8)
        index.add_batch(list(range(40)), vectors[:40])
        index.remove_batch([0, 1, 2])
        index.add_batch(list(range(40, 50)), vectors[40:])
        assert len(index) == 47
        for position in range(40, 50):
            assert index.search(vectors[position], k=1)[0].key == position

    def test_positions_pool_excludes_tombstones(self, index_factory):
        index, vectors = _filled(index_factory(8), 20, seed=4)
        index.remove_batch([5])
        hits = index.search_batch(
            vectors[5:6], k=3, positions=np.array([4, 5, 6], dtype=np.int64)
        )
        assert {hit.key for hit in hits[0]} == {4, 6}

    def test_invalid_removals_rejected(self, index_factory):
        index, vectors = _filled(index_factory(8), 10, seed=5)
        with pytest.raises(IndexError):
            index.remove_batch([10])
        with pytest.raises(ValueError):
            index.remove_batch([2, 2])
        index.remove_batch([2])
        with pytest.raises(ValueError):
            index.remove_batch([2])
        assert index.remove_batch([]) is None

    def test_remove_everything(self, index_factory):
        index, vectors = _filled(index_factory(8), 10, seed=6)
        index.remove_batch(list(range(10)))
        assert len(index) == 0
        assert index.search(vectors[0], k=3) == []

class TestUpdateBatch:
    """In-place overwrite of live rows: same keys, same positions, no
    tombstones, answers identical to a freshly built index."""

    @staticmethod
    def _hits(index, queries, k=5, positions=None):
        return [
            [(hit.key, hit.distance) for hit in hits]
            for hits in index.search_batch(queries, k=k, positions=positions)
        ]

    def test_matches_fresh_index_over_the_same_live_vectors(self, index_factory):
        """Full scans, ``search`` and ``positions=`` pools, with tombstones
        elsewhere in the store, after the index was queried."""
        old = _random_vectors(80, 16, seed=1)
        new = _random_vectors(80, 16, seed=2)
        index = index_factory(16)
        index.add_batch(list(range(80)), old)
        index.search(old[0], k=1)
        index.remove_batch([3, 40, 41])
        updated = np.array([0, 7, 39, 42, 79])
        index.update_batch(updated, new[updated])
        assert index.n_tombstones == 3 and len(index) == 77

        live = np.setdiff1d(np.arange(80), [3, 40, 41])
        vectors = old.copy()
        vectors[updated] = new[updated]
        fresh = index_factory(16)
        fresh.add_batch(live.tolist(), vectors[live])

        queries = np.concatenate([new[updated], old[updated], old[10:14]])
        assert self._hits(index, queries) == self._hits(fresh, queries)
        for query in queries[:4]:
            assert [(hit.key, hit.distance) for hit in index.search(query, k=3)] == [
                (hit.key, hit.distance) for hit in fresh.search(query, k=3)
            ]
        pool = np.array([0, 3, 5, 7, 39, 40, 42, 60], dtype=np.int64)
        fresh_pool = np.searchsorted(live, np.setdiff1d(pool, [3, 40]))
        assert self._hits(index, queries, k=4, positions=pool) == self._hits(
            fresh, queries, k=4, positions=fresh_pool
        )
        # The overwritten rows answer for their new vectors only.
        assert index.search(new[7], k=1)[0].key == 7
        assert index.search(old[7], k=1)[0].distance > 1e-3

    def test_invalid_updates_rejected(self, index_factory):
        index, vectors = _filled(index_factory(8), 10, seed=5)
        with pytest.raises(IndexError):
            index.update_batch([10], vectors[:1])
        with pytest.raises(IndexError):
            index.update_batch([-1], vectors[:1])
        with pytest.raises(ValueError, match="duplicate"):
            index.update_batch([2, 2], vectors[:2])
        index.remove_batch([2])
        with pytest.raises(ValueError, match="already-removed"):
            index.update_batch([2], vectors[:1])
        with pytest.raises(ValueError, match="shape"):
            index.update_batch([1, 3], vectors[:1])
        with pytest.raises(ValueError, match="shape"):
            index.update_batch([1], np.ones((1, 9), dtype=np.float32))
        index.update_batch([], np.empty((0, 8), dtype=np.float32))
        # Nothing was written by the rejected calls.
        assert np.array_equal(index.vectors, vectors)

    def test_update_on_memory_mapped_store_leaves_the_files_alone(self, index_factory, tmp_path):
        source, vectors = _filled(index_factory(8), 40, seed=6)
        for name, block in source.store_state().items():
            np.save(tmp_path / f"{name}.npy", block)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        restored = index_factory(8)
        restored.restore_store(
            list(range(40)),
            np.load(tmp_path / "matrix.npy", mmap_mode="r"),
            np.load(tmp_path / "sq_norms.npy", mmap_mode="r"),
            np.load(tmp_path / "alive.npy", mmap_mode="r"),
        )
        replacement = _random_vectors(2, 8, seed=7)
        restored.update_batch([4, 9], replacement)
        assert restored.search(replacement[1], k=1)[0].key == 9
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

        source.update_batch([4, 9], replacement)
        assert self._hits(restored, vectors[:6]) == self._hits(source, vectors[:6])


class TestFactory:
    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            VectorIndex(0)

    def test_layer_methods_are_defined_on_the_class(self):
        """The benchmark's per-layer shims wrap these four only where they
        are defined on ``VectorIndex`` itself."""
        for name in ("search_batch", "search", "add_batch", "remove_batch"):
            assert name in VectorIndex.__dict__, name
