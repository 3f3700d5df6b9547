"""What ``repro.ann`` shares between the index and S3: slice rule, S3 scorer, row store."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.base import RowStore, closest_in_blocks, tier1_slice
from repro.testing.reference import closest


class TestTier1Slice:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 40), k=st.integers(1, 6))
    def test_the_slice_holds_the_exact_top_k_and_its_ties(self, seed, n, k):
        """Exact scores from a few values (ties), negative ones clamped to 0;
        tier-1 scores within +/- M of them, bounds included (dyadic: exact)."""
        rng, k = np.random.default_rng(seed), min(k, n)
        raw = rng.choice(rng.integers(-16, 64, size=5), size=(4, n)) / 32.0
        margin = rng.choice([0.0, 2.0**-20, 2.0**-3, 1.0], size=4)
        approx = raw + rng.integers(-4, 5, size=raw.shape) / 4.0 * margin[:, None]
        exact = np.maximum(raw, 0.0)
        mask = tier1_slice(approx, margin, k)
        assert mask[exact <= np.sort(exact, axis=1)[:, k - 1 : k]].all()
        # One block and its scalar margin, as S3 asks, is the same rule.
        assert np.array_equal(tier1_slice(approx[0], margin[0], k), mask[0])


class TestClosestInBlocks:
    """S3's choice is the reference's scan's, whatever BLAS does to tier 1."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.sampled_from((3, 16, 64, 320)),
        lengths=st.lists(st.integers(min_value=1, max_value=90), min_size=1, max_size=4),
        n_distinct=st.integers(min_value=1, max_value=6),
        noise=st.sampled_from((0.0, 1e-7, 1e-3)),
        normalized=st.booleans(),
        penalty=st.sampled_from((0.0, 0.01, 1.0)),
    )
    def test_scorer_equals_the_sequential_scan(
        self, seed, d, lengths, n_distinct, noise, normalized, penalty
    ):
        """Candidate blocks built to tie: duplicated rows, a constant or zero
        (all-padding) vector, ULP-scale noise, references that are candidates."""
        rng, n = np.random.default_rng(seed), sum(lengths)
        base = rng.standard_normal((n_distinct, d)).astype(np.float32)
        base[0] = 0.0  # an all-padding region
        if n_distinct > 1:
            base[1] = 1.0  # a constant one
        vectors = base[rng.integers(0, len(base), size=n)]
        vectors = vectors + (rng.standard_normal((n, d)) * noise).astype(np.float32)
        if normalized:
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True) + np.float32(1e-8)
        vectors = vectors.astype(np.float32)
        references = np.concatenate([
            vectors[rng.integers(0, n, size=len(lengths))][: len(lengths) // 2 + 1],
            base[rng.integers(0, len(base), size=len(lengths))],
        ])[: len(lengths)]
        penalties = penalty * rng.integers(0, 12, size=n).astype(np.float32)
        sq_norms = np.einsum("ij,ij->i", vectors, vectors)
        reference_sq_norms = np.einsum("ij,ij->i", references, references)
        best, n_reranked = closest_in_blocks(
            vectors.copy(), sq_norms, references, reference_sq_norms, penalties, lengths
        )
        starts = np.cumsum([0] + lengths)
        assert best == [
            closest(vectors[start:stop], reference, penalties[start:stop])
            for reference, start, stop in zip(references, starts, starts[1:])
        ]
        assert 0 <= n_reranked <= n


class TestRowStore:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        limit=st.sampled_from((None, 12)),  # an index's store, a region store's
        ops=st.lists(st.sampled_from(("append", "overwrite", "compact", "adopt")), max_size=12),
    )
    def test_random_writes_keep_rows_and_norms_together(self, seed, limit, ops):
        rng, store, maps = np.random.default_rng(seed), RowStore(5, limit=limit), {}
        model = np.empty((0, 5), dtype=np.float32)
        with tempfile.TemporaryDirectory() as directory:
            for step, op in enumerate(ops):
                if op == "append" or not len(model):
                    vectors = rng.standard_normal((int(rng.integers(1, 6)), 5)).astype(np.float32)
                    store.append(vectors)
                    model = np.concatenate([model, vectors])
                elif op == "overwrite":
                    positions = rng.permutation(len(model))[: int(rng.integers(1, len(model) + 1))]
                    model[positions] = rng.standard_normal((positions.size, 5))
                    store.overwrite(positions, model[positions])
                elif op == "compact" and limit is None:  # as the index compacts
                    keep = np.flatnonzero(rng.random(len(model)) < 0.6)
                    store.rehouse(max(2 * keep.size, 8), keep)
                    model = model[keep]
                elif op == "adopt":  # a snapshot loaded as read-only maps
                    paths = [Path(directory) / f"{name}{step}.npy" for name in ("rows", "norms")]
                    for path, block in zip(paths, (store.rows, store.norms)):
                        np.save(path, block)
                        maps[path] = path.read_bytes()
                    store.adopt(*(np.load(path, mmap_mode="r") for path in paths))
                assert np.array_equal(store.rows, model)
                assert store.norms.tobytes() == np.einsum("ij,ij->i", model, model).tobytes()
                assert limit is None or store.capacity <= max(limit, len(store))
            assert all(path.read_bytes() == data for path, data in maps.items())
        rows, norms = store.take(np.arange(len(store)))
        rows[...], norms[...] = 0.0, 0.0  # copies
        assert np.array_equal(store.rows, model)
