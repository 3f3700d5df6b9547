"""Inverted-file (IVF) index with a k-means coarse quantizer."""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from repro.ann.base import VectorIndex


def _kmeans(vectors: np.ndarray, n_clusters: int, n_iterations: int, seed: int) -> np.ndarray:
    """Plain Lloyd's k-means returning the centroid matrix."""
    rng = np.random.default_rng(seed)
    n = vectors.shape[0]
    n_clusters = min(n_clusters, n)
    centroids = vectors[rng.choice(n, size=n_clusters, replace=False)].copy()
    for __ in range(n_iterations):
        distances = (
            np.sum(vectors**2, axis=1, keepdims=True)
            - 2.0 * vectors @ centroids.T
            + np.sum(centroids**2, axis=1)
        )
        assignment = np.argmin(distances, axis=1)
        for cluster in range(n_clusters):
            members = vectors[assignment == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return centroids


class IVFIndex(VectorIndex):
    """IVF index: cluster vectors, probe the nearest ``n_probe`` clusters.

    The quantizer is trained lazily on the first query once at least
    ``2 * n_clusters`` vectors are present; smaller indexes fall back to
    exact search.  After training, newly added vectors are assigned to their
    nearest *existing* centroid incrementally — k-means is only re-run once
    the index has grown by ``retrain_growth_factor`` since it was last
    trained, not on the first query after every add.
    """

    def __init__(
        self,
        dimension: int,
        n_clusters: int = 16,
        n_probe: int = 3,
        kmeans_iterations: int = 10,
        seed: int = 0,
        retrain_growth_factor: float = 2.0,
    ) -> None:
        super().__init__(dimension)
        if n_clusters <= 0 or n_probe <= 0:
            raise ValueError("n_clusters and n_probe must be positive")
        if retrain_growth_factor <= 1.0:
            raise ValueError("retrain_growth_factor must be > 1")
        self._n_clusters = n_clusters
        self._n_probe = n_probe
        self._kmeans_iterations = kmeans_iterations
        self._seed = seed
        self._retrain_growth_factor = retrain_growth_factor
        self._centroids: Optional[np.ndarray] = None
        self._lists: Dict[int, List[int]] = {}
        self._trained_size = 0
        #: Serializes lazy quantizer training: searches are logically
        #: read-only but the first query after a (re)build trains k-means,
        #: and concurrent readers must see either the fully-trained state
        #: or train it themselves — never a half-written one.
        self._train_mutex = threading.Lock()

    def _assign(self, vectors: np.ndarray, centroids: Optional[np.ndarray] = None) -> np.ndarray:
        """Nearest-centroid assignment for a block of vectors.

        ``centroids`` defaults to the published quantizer; ``_train``
        passes its freshly-computed matrix explicitly so assignment can
        run *before* the new state is published to concurrent readers.
        """
        if centroids is None:
            centroids = self._centroids
        assert centroids is not None
        distances = (
            np.sum(vectors**2, axis=1, keepdims=True)
            - 2.0 * vectors @ centroids.T
            + np.sum(centroids**2, axis=1)
        )
        return np.argmin(distances, axis=1)

    def _on_add_batch(self, start: int, vectors: np.ndarray) -> None:
        if self._centroids is None:
            return  # not trained yet; the first query trains on everything
        for offset, cluster in enumerate(self._assign(vectors)):
            self._lists.setdefault(int(cluster), []).append(start + offset)

    def _train(self) -> None:
        # Train on live vectors only: a store with tombstones must quantize
        # exactly like a fresh index built from the surviving vectors.
        live_positions = np.flatnonzero(self._alive)
        matrix = self._store.rows[live_positions]
        centroids = _kmeans(matrix, self._n_clusters, self._kmeans_iterations, self._seed)
        assignment = self._assign(matrix, centroids)
        lists: Dict[int, List[int]] = {}
        for position, cluster in zip(live_positions.tolist(), assignment):
            lists.setdefault(int(cluster), []).append(int(position))
        # Publish the fully-built state last so concurrent readers never see
        # centroids paired with half-filled inverted lists.
        self._lists = lists
        self._centroids = centroids
        self._trained_size = len(self)

    def _needs_training(self) -> bool:
        if self._centroids is None:
            return True
        return len(self) >= self._retrain_growth_factor * max(self._trained_size, 1)

    def _candidates(self, query: np.ndarray, k: int) -> Optional[np.ndarray]:
        if len(self) < 2 * self._n_clusters:
            return self._scan_all()
        if self._needs_training():
            # Double-checked: concurrent searches racing on a stale
            # quantizer train it once; later arrivals re-check and skip.
            with self._train_mutex:
                if self._needs_training():
                    self._train()
        assert self._centroids is not None
        distances = np.sum((self._centroids - query) ** 2, axis=1)
        probe_order = np.argsort(distances, kind="stable")[: self._n_probe]
        candidates: List[int] = []
        for cluster in probe_order:
            candidates.extend(self._lists.get(int(cluster), ()))
        if not candidates:
            return self._scan_all()
        positions = self._live(np.sort(np.asarray(candidates, dtype=np.int64)))
        if positions.size < k:
            return self._scan_all()
        return positions

    def _reset_quantizer(self) -> None:
        self._centroids = None
        self._lists = {}
        self._trained_size = 0

    def _on_remove_batch(self, positions: np.ndarray) -> None:
        # Removals invalidate the quantizer so the next query retrains on
        # the surviving corpus — this is what makes a mutated index answer
        # bit-identically to a freshly built one (incremental *adds* keep
        # the centroids; recall under stale centroids is covered by tests).
        self._reset_quantizer()

    def _rebuild(self) -> None:
        """Positions were renumbered or vectors replaced; retrain lazily on
        the next query."""
        self._reset_quantizer()
