"""Random-hyperplane LSH index with multi-table probing."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

from repro.ann.base import VectorIndex


class LSHIndex(VectorIndex):
    """Locality-sensitive hashing via signed random projections.

    Each of ``n_tables`` tables hashes a vector to the sign pattern of
    ``n_bits`` random hyperplane projections (packed into one integer);
    queries gather the union of their buckets across tables and score only
    those candidates.  Candidate positions are sorted before scoring so that
    nearest-neighbour ties break deterministically across runs.  Falls back
    to exact search when the candidate set is smaller than ``k`` so recall
    never collapses on tiny corpora.
    """

    def __init__(
        self,
        dimension: int,
        n_tables: int = 8,
        n_bits: int = 12,
        seed: int = 0,
    ) -> None:
        super().__init__(dimension)
        if n_tables <= 0 or n_bits <= 0:
            raise ValueError("n_tables and n_bits must be positive")
        if n_bits > 62:
            raise ValueError("n_bits must be at most 62 to pack into an int64 signature")
        rng = np.random.default_rng(seed)
        self._n_tables = n_tables
        self._n_bits = n_bits
        self._hyperplanes = [
            rng.standard_normal((dimension, n_bits)).astype(np.float32) for __ in range(n_tables)
        ]
        self._bit_weights = (np.int64(1) << np.arange(n_bits, dtype=np.int64))
        self._tables: List[Dict[int, List[int]]] = [defaultdict(list) for __ in range(n_tables)]

    def _signatures(self, table: int, vectors: np.ndarray) -> np.ndarray:
        """Packed-bit signatures for a block of vectors, one table."""
        projection = vectors @ self._hyperplanes[table]
        return (projection > 0).astype(np.int64) @ self._bit_weights

    def _on_add_batch(self, start: int, vectors: np.ndarray) -> None:
        for table in range(self._n_tables):
            buckets = self._tables[table]
            for offset, signature in enumerate(self._signatures(table, vectors).tolist()):
                buckets[signature].append(start + offset)

    def _candidates(self, query: np.ndarray, k: int) -> Optional[np.ndarray]:
        candidates: set = set()
        block = query[None, :]
        for table in range(self._n_tables):
            signature = int(self._signatures(table, block)[0])
            candidates.update(self._tables[table].get(signature, ()))
        if not candidates:
            return self._scan_all()
        positions = self._live(
            np.sort(np.fromiter(candidates, dtype=np.int64, count=len(candidates)))
        )
        if positions.size < k:
            return self._scan_all()
        return positions

    def _rebuild(self) -> None:
        """Re-hash the whole store (same hyperplanes; positions renumbered by
        a compaction, or vectors replaced by ``update_batch``)."""
        self._tables = [defaultdict(list) for __ in range(self._n_tables)]
        if len(self._store):
            self._on_add_batch(0, self._store.rows)
