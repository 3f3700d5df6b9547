"""Stored vectors and nearest-vector selection: one row store, one rule.

Vectors live in a :class:`RowStore`.  The index's k-NN (S1, S2) and S3's
closest candidate (:func:`closest_in_blocks`) select alike: BLAS tier 1
scores, :func:`tier1_slice` keeps what may win, a fixed-order expression
decides.  Which path an index search takes is decided from the shape of
the work it does (:func:`tier1_pays`: the query rows, the pool and
``k``), never from an option:

* the plain path: every candidate is scored with the fixed-order einsum
  scorer whose distances are bit-identical across pool shapes (what
  batch/one-at-a-time parity relies on).
* the BLAS path, where it pays — tier 1 scores the pool with one BLAS
  matmul (ULP drift allowed); tier 2 re-scores only the slice with the
  same fixed-order einsum, so the *final* rankings and distances are
  bit-identical to the plain path.  When the slice exceeds
  ``max(4k, 16)`` the affected rows transparently fall back to the plain
  scorer.

Why the slice is sound: tier-1 distances are computed as
``sq_norms - 2 * x @ v + ||x||^2`` where ``sq_norms`` are the stored
float32 squared norms — so the only approximation is the rounding of the
BLAS cross term and the subtract/add chain, ``|d_hat - d| <= M`` with
``M`` a generous per-row bound on that slack.  Every candidate of the
exact top-k (boundary ties included) must then score within ``t + 2M``
of the tier-1 k-th-smallest ``t``, and every candidate whose exact
distance clamps to zero must score within ``M`` — the slice takes the
union of both sets.

Where the pool lies: a caller's ``positions`` pool (S2: the formulas of
the top-K sheets) is mostly a handful of runs of consecutive store rows,
because a sheet's formulas are appended together.  Both paths compute
their cross term run by run (:meth:`VectorIndex._cross_term`): a run
whose rows span at least ``_VIEW_MIN_BYTES`` is scored as a *view* of
the store, everything shorter is gathered into one copy first.  Neither
the distances nor the order of the pool's columns depend on the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import Counter, get_tracer

_EPS32 = float(np.finfo(np.float32).eps)

#: Bytes of vectors a run of consecutive store rows must span before it is
#: scored as a view instead of being gathered with the pool's other short
#: runs.  A view costs one more product call and one more slice assignment
#: (≈ 2 µs), a gathered row costs its copy; the micro-sweep in DESIGN.md
#: "Scoring: one engine, two paths" puts the break-even at 20–40 KB of rows
#: for dimensions 64, 320 and 1280 alike (128, 26 and 7 rows).
_VIEW_MIN_BYTES = 32 * 1024


def _slice_budget(k: int) -> int:
    """Largest slice tier 2 is willing to re-rank for one row."""
    return max(4 * k, 16)


def tier1_pays(n_queries: int, pool: int, k: int) -> bool:
    """Whether ``n_queries`` query rows over a pool of ``pool`` vectors, ``k``
    nearest each, go through the BLAS scan + re-rank rather than the plain
    scorer: the crossover of the sweep in DESIGN.md "Scoring: one engine,
    two paths", at one and two BLAS threads.

    * At least 2400 pairs (``n_queries * pool``), or one query over at
      least 2000 vectors.  Under that the plain path is faster or level at
      every swept shape: four queries over 500 short vectors (2000 pairs)
      read 1.12-1.37x slower on BLAS, one query over 2000 read 0.74-0.81x.
    * For ``k == 1``, two to five queries only over at least 1000 vectors,
      and two or three never: the product packs the pool on every call,
      which for so few rows costs more than the plain path saves at one
      thread (two queries over 2048 vectors of 1280: 1.9x slower), while
      one query is a matrix-vector product, which packs nothing.  For
      ``k > 1`` the plain path also sorts every row of the pool, so BLAS
      wins there from the first bullet on.
    """
    if n_queries * pool < 2400 and (n_queries > 1 or pool < 2000):
        return False
    if k > 1 or n_queries == 1 or n_queries >= 6:
        return True
    return n_queries >= 4 and pool >= 1000


def _fixed_order_product(queries: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``queries @ matrix.T`` without BLAS: unoptimized einsum accumulates
    each ``(query, vector)`` element in one fixed order whatever the shapes
    of its operands (see :meth:`VectorIndex._score_exact`)."""
    return np.einsum("ij,kj->ik", queries, matrix)


def _blas_product(queries: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The tier-1 cross term: one sgemm, ULP drift between shapes allowed."""
    return queries @ matrix.T


def _margin(dimension: int, x_norm, v_max):
    """The bound ``M`` on ``|d_hat - d|``, the float32 rounding slack between
    a BLAS distance ``sq_norm - 2 x.v + ||x||^2`` and one computed in a fixed
    order, for a query of norm ``x_norm`` against vectors of norm at most
    ``v_max`` in ``dimension`` dimensions (floats or arrays alike)."""
    # Generous cover for float32 rounding in the BLAS dot and the
    # subtract/add chain: length-D accumulations each contribute
    # O(D * eps * magnitude), with an 8x headroom factor.
    return 8.0 * dimension * _EPS32 * ((x_norm + v_max) ** 2 + 1.0)


def _tier1_margin(dimension: int, qq: np.ndarray, sq_norms: np.ndarray) -> np.ndarray:
    """Per-query :func:`_margin` for queries of squared norms ``qq``
    against a pool of vectors of squared norms ``sq_norms``."""
    v_max = math.sqrt(max(float(sq_norms.max()), 0.0)) if sq_norms.size else 0.0
    return _margin(dimension, np.sqrt(np.maximum(qq, 0.0)), v_max)


def tier1_slice(approx: np.ndarray, margin, k: int) -> np.ndarray:
    """The rows tier 1 cannot rule out, along the last axis of ``approx``:
    ``approx <= max(kth + 2M, M)``, ``kth`` the k-th smallest tier-1 score
    and ``M`` the ``margin`` of the row (see the module docstring)."""
    kth = approx.min(axis=-1) if k == 1 else np.partition(approx, k - 1, axis=-1)[..., k - 1]
    return approx <= np.maximum(kth + 2.0 * margin, margin)[..., None]


def closest_in_blocks(
    sq_norms: np.ndarray,
    cross: np.ndarray,
    references: np.ndarray,
    reference_sq_norms: np.ndarray,
    penalties: np.ndarray,
    candidates: np.ndarray,
    vectors_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, int]:
    """S3's choice for each parameter ``i``: the first position ``j`` of row
    ``i`` set in ``candidates`` (every row has one) that minimizes
    ``np.sum((v[i, j] - references[i]) ** 2) + penalties[i, j]``, and how
    many candidates were re-ranked to find them all.  Entries outside
    ``candidates`` are never read.

    Tier 1 is the caller's: ``sq_norms[i, j]`` and ``cross[i, j]`` are
    ``||v[i, j]||^2`` and ``v[i, j] . references[i]`` to within float32
    rounding of a length-``D`` accumulation, however they were computed (a
    product over the rows, or one over strips of a reduced tensor that
    never forms them).  A candidate's tier-1 score ``sq_norm - 2 cross +
    ||r||^2 + penalty`` is then within ``M`` of the sequential score: the
    index's margin over its row's largest ``sq_norm``, plus the rounding
    of adding the row's largest penalty.  All rows are sliced at once by
    :func:`tier1_slice` with ``k = 1``, each against its own margin, so a
    row's slice depends on nothing but the row.  ``vectors_of(rows,
    positions)`` returns a private copy of the float32 embeddings of the
    candidates at ``(rows[n], positions[n])`` — every slice of two or more,
    row-major, in one call — which the sequential expression re-ranks in
    row order, in place (a row's ``np.sum`` does not depend on the rows
    beside it).  A one-candidate slice is the answer as it stands and reads
    no embedding.
    """
    dimension = references.shape[1]
    approx = np.where(
        candidates, sq_norms - 2.0 * cross + reference_sq_norms[:, None] + penalties, np.inf
    )
    # A row's margin from its own largest norm and penalty, in Python
    # floats: a group has a handful of rows.
    margin = np.array(
        [
            _margin(dimension, math.sqrt(max(qq, 0.0)), math.sqrt(max(largest, 0.0)))
            + _EPS32 * heaviest
            for qq, largest, heaviest in zip(
                reference_sq_norms.tolist(),
                sq_norms.max(axis=1, where=candidates, initial=0.0).tolist(),
                np.abs(penalties).max(axis=1, where=candidates, initial=0.0).tolist(),
            )
        ]
    )
    kept = tier1_slice(approx, margin, 1)
    best = kept.argmax(axis=1)
    tied = np.count_nonzero(kept, axis=1) > 1
    if not tied.any():
        return best, 0
    rows, positions = np.nonzero(kept & tied[:, None])
    block = vectors_of(rows, positions)
    np.subtract(block, references[rows], out=block)
    np.square(block, out=block)
    scores = np.sum(block, axis=1) + penalties[rows, positions]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    for start, stop in zip(starts, np.append(starts[1:], rows.size)):
        best[rows[start]] = positions[start + int(np.argmin(scores[start:stop]))]
    return best, int(rows.size)


#: ``_split_runs``' result: each run's offset in the pool, its length, and
#: whether it is long enough to be scored as a view.
_Runs = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _split_runs(positions: np.ndarray, row_bytes: int) -> _Runs:
    """Maximal runs of consecutive values in ``positions``, in pool order:
    ``(offsets, lengths, in_place)`` with run ``r`` at
    ``positions[offsets[r] : offsets[r] + lengths[r]]`` and ``in_place[r]``
    set when its rows, ``row_bytes`` each, span ``_VIEW_MIN_BYTES``."""
    breaks = np.flatnonzero(positions[1:] - positions[:-1] != 1) + 1
    bounds = np.empty(breaks.size + 2, dtype=np.int64)
    bounds[0], bounds[1:-1], bounds[-1] = 0, breaks, positions.size
    lengths = bounds[1:] - bounds[:-1]
    return bounds[:-1], lengths, lengths * row_bytes >= _VIEW_MIN_BYTES


def _first_k(distances: np.ndarray, k: int) -> np.ndarray:
    """Column numbers of each row's ``k`` smallest distances, ascending, ties
    toward the lower column: a stable ``argsort`` cut at ``k`` — for
    ``k == 1`` its first element, which ``argmin`` finds without sorting."""
    if k == 1:
        return np.argmin(distances, axis=1)[:, None]
    return np.argsort(distances, axis=1, kind="stable")[:, :k]


def _pack_mask(mask: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Left-pack each row's selected column numbers (ascending), padded to
    the widest row: ``(columns, valid)``; padding slots hold column 0."""
    columns = np.zeros((mask.shape[0], int(counts.max())), dtype=np.int64)
    valid = np.zeros(columns.shape, dtype=bool)
    row_index, col_index = np.nonzero(mask)
    slot = np.arange(row_index.size) - np.repeat(
        np.concatenate(([0], np.cumsum(counts)[:-1])), counts
    )
    columns[row_index, slot] = col_index
    valid[row_index, slot] = True
    return columns, valid


class RowStore:
    """Float32 rows and their fixed-order ``einsum("ij,ij->i")`` squared
    norms: every write stores the rows, then their norms read back from the
    store.  Capacity grows by half, to at least what a write needs.  Rows
    adopted read-only (a memory map) are copied to private memory before
    the first write.  No lock: the owner's lock guards the store."""

    def __init__(self, dimension: int, capacity: int = 0) -> None:
        self._rows = np.empty((capacity, dimension), dtype=np.float32)
        self._norms = np.empty((capacity,), dtype=np.float32)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return self._rows.shape[0]

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: self._size]

    @property
    def norms(self) -> np.ndarray:
        return self._norms[: self._size]

    def append(self, vectors: np.ndarray) -> int:
        """Store ``vectors`` after the last row; returns the first one's position."""
        start = self._size
        self._reserve(start + len(vectors))
        self._size += len(vectors)
        self.overwrite(slice(start, self._size), vectors)
        return start

    def truncate(self, size: int) -> None:
        """Forget the rows from ``size`` on."""
        self._size = size

    def overwrite(self, positions, vectors: np.ndarray) -> None:
        """Replace the rows at ``positions`` (an index array or a slice)."""
        self._reserve(self._size)
        self._rows[positions] = vectors
        block = self._rows[positions]
        self._norms[positions] = np.einsum("ij,ij->i", block, block)

    def take(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the rows at ``positions`` and of their norms."""
        return self._rows[positions], self._norms[positions]

    def rehouse(self, capacity: int, keep: Optional[np.ndarray] = None) -> None:
        """Move the rows at ``keep`` (ascending; default all), renumbered from
        0, into fresh private arrays of ``capacity`` rows: one copy, never
        in place."""
        keep = np.arange(self._size) if keep is None else keep
        rows = np.empty((capacity, self._rows.shape[1]), dtype=np.float32)
        norms = np.empty((capacity,), dtype=np.float32)
        # ``mode="clip"``: ``take`` buffers ``out`` under the default "raise".
        np.take(self._rows, keep, axis=0, out=rows[: keep.size], mode="clip")
        np.take(self._norms, keep, out=norms[: keep.size], mode="clip")
        self._rows, self._norms, self._size = rows, norms, keep.size

    def adopt(self, rows: np.ndarray, norms: np.ndarray) -> None:
        """Serve ``rows`` and ``norms`` as they are (the snapshot-load path)."""
        self._rows, self._norms, self._size = rows, norms, rows.shape[0]

    def _reserve(self, needed: int) -> None:
        capacity = self.capacity
        if needed > capacity:
            self.rehouse(max(needed, capacity * 3 // 2))
        elif not (self._rows.flags.writeable and self._norms.flags.writeable):
            self.rehouse(capacity)


@dataclass(frozen=True)
class SearchResult:
    """A single nearest-neighbour hit."""

    key: Hashable
    distance: float


class VectorIndex:
    """Maps user-provided keys to vectors and answers exact k-NN queries.

    Distances are squared Euclidean; since all embeddings produced by the
    representation models are L2-normalized, the ranking is equivalent to a
    cosine-similarity ranking.

    Vectors live in one :class:`RowStore`, so both single and batched
    queries score candidates with vectorized slices of its contiguous
    matrix — no per-query re-stacking of Python lists.  Ties in distance
    break deterministically toward the candidate at the lowest scored
    position.

    Removal is tombstone-based: :meth:`remove_batch` marks positions dead,
    every search path excludes dead positions, and once the dead fraction
    exceeds ``compaction_fraction`` the store is compacted in place (the
    caller receives an old-position → new-position remap so any pools it
    holds can be rewritten).  Replacing a vector is not a removal:
    :meth:`update_batch` overwrites live rows where they sit.

    The row store is the only store: the tier-1 scan, the tier-2 re-rank,
    snapshots and restore-parity are all defined against it.
    """

    #: Dead fraction of the store above which ``remove_batch`` compacts.
    compaction_fraction: float = 0.5

    #: ``None``: :func:`tier1_pays` picks each search's path.  A number makes
    #: the gate a count of pairs (``n_queries * pool``) alone: tests set it
    #: to 2 to force tier 1 on tiny pools, or to ``1 << 62`` to keep every
    #: search on the plain path; nothing else sets it.
    tier1_min_pairs: Optional[int] = None

    def __init__(self, dimension: int) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self._dimension = dimension
        self._keys: List[Hashable] = []
        self._store = RowStore(dimension)
        self._alive = np.empty((0,), dtype=bool)
        self._n_dead = 0
        #: Memoized live positions of a full scan over a store with
        #: tombstones, with their ``_split_runs`` (None = stale; rebuilt on
        #: demand, invalidated by add/remove/compaction/restore).
        self._live_scan: Optional[Tuple[np.ndarray, _Runs]] = None
        #: The scorer's fallbacks (see :meth:`counters`).  Scrapes read them
        #: from other threads than the searches', hence instruments.
        self._fallback_rows = Counter()
        self._overflows = Counter()
        #: Where shared pools lay (see :meth:`counters`).
        self._rows_in_place = Counter()
        self._rows_gathered = Counter()

    # -------------------------------------------------------------- interface

    @property
    def dimension(self) -> int:
        """Vector dimensionality accepted by the index."""
        return self._dimension

    def __len__(self) -> int:
        """Number of *live* (non-tombstoned) vectors."""
        return len(self._store) - self._n_dead

    @property
    def n_tombstones(self) -> int:
        """Number of removed-but-not-yet-compacted positions."""
        return self._n_dead

    @property
    def vectors(self) -> np.ndarray:
        """Read-only view of the stored vectors in insertion order.

        The view is a snapshot: it stops tracking the store once the backing
        matrix is reallocated by a later ``add``.  Rows tombstoned by
        :meth:`remove_batch` are still present until compaction.
        """
        view = self._store.rows
        view.flags.writeable = False
        return view

    def add(self, key: Hashable, vector: np.ndarray) -> None:
        """Add one vector under ``key``."""
        self.add_batch([key], np.asarray(vector, dtype=np.float32).reshape(1, -1))

    def add_batch(self, keys: Sequence[Hashable], vectors: np.ndarray) -> np.ndarray:
        """Add many vectors at once (one append to the row store); returns
        the positions they were stored at."""
        keys = list(keys)
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            # A flat array is a single vector (for a single key), never a
            # concatenation to be split across keys.
            vectors = vectors[None, :] if keys else vectors.reshape(0, self._dimension)
        if vectors.ndim != 2 or vectors.shape[1] != self._dimension:
            raise ValueError(
                f"vectors have dimension {vectors.shape[-1] if vectors.ndim else 0}, "
                f"index expects {self._dimension}"
            )
        if vectors.shape[0] != len(keys):
            raise ValueError(f"{len(keys)} keys for {vectors.shape[0]} vectors")
        if not keys:
            return np.empty(0, dtype=np.int64)
        first = self._store.append(vectors)
        self._alive = np.concatenate((self._alive, np.ones(len(keys), dtype=bool)))
        self._keys.extend(keys)
        self._live_scan = None
        return np.arange(first, first + len(keys), dtype=np.int64)

    def truncate(self, size: int) -> None:
        """Drop every row stored at position ``size`` or after: the undo of
        the :meth:`add_batch` calls made since the store held ``size`` rows
        (``len(vectors)``)."""
        self._store.truncate(size)
        self._n_dead -= int(np.count_nonzero(~self._alive[size:]))
        self._alive, self._live_scan = self._alive[:size], None
        del self._keys[size:]

    def remove_batch(self, positions: Sequence[int]) -> Optional[np.ndarray]:
        """Tombstone the vectors stored at ``positions``.

        Tombstoned positions are excluded from every search path (full
        scans and caller-provided ``positions`` pools).  Once the dead
        fraction of the store exceeds ``compaction_fraction`` the store is
        compacted: live vectors are renumbered contiguously and an
        ``int64`` remap array is returned with ``remap[old_position] ==
        new_position`` (``-1`` for removed positions) so callers can
        rewrite any position pools they hold.
        Returns ``None`` when no compaction took place.
        """
        positions = self._checked_live_positions(positions, "remove_batch")
        if positions.size == 0:
            return None
        self._alive[positions] = False
        self._n_dead += positions.size
        self._live_scan = None
        if self._n_dead > self.compaction_fraction * len(self._store):
            return self._compact()
        return None

    def update_batch(self, positions: Sequence[int], vectors: np.ndarray) -> None:
        """Overwrite the live vectors stored at ``positions`` where they sit.

        Keys, positions and liveness stay as they are, so nothing is
        tombstoned and every position pool a caller holds remains valid.
        Dead, duplicate and out-of-range positions are rejected as
        :meth:`remove_batch` rejects them.  The index then answers like a
        fresh one over the same live vectors: a search reads nothing but
        the row store.
        """
        positions = self._checked_live_positions(positions, "update_batch")
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape != (positions.size, self._dimension):
            raise ValueError(
                f"{positions.size} positions need vectors of shape "
                f"({positions.size}, {self._dimension}), got {vectors.shape}"
            )
        if positions.size == 0:
            return
        self._store.overwrite(positions, vectors)

    def search(self, query: np.ndarray, k: int = 1) -> List[SearchResult]:
        """Return (up to) the ``k`` nearest stored vectors to ``query``."""
        return self.search_batch(np.asarray(query, dtype=np.float32).reshape(1, -1), k)[0]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 1,
        positions: Optional[np.ndarray] = None,
    ) -> List[List[SearchResult]]:
        """Batched k-NN: one result list per query row.

        ``positions`` restricts scoring to the given stored positions (the
        caller's candidate pool, e.g. the formulas of the sheets retrieved in
        an earlier stage); the whole batch is then scored against that pool
        with a single matrix product.  Without ``positions`` every live
        vector is scored.
        """
        queries = self._checked_queries(queries)
        return self._search_pools(queries, [(queries.shape[0], positions)], k)

    def search_groups(
        self,
        queries: np.ndarray,
        pools: Sequence[Tuple[int, Optional[np.ndarray]]],
        k: int = 1,
    ) -> List[List[SearchResult]]:
        """:meth:`search_batch` of consecutive groups of query rows, each
        against a pool of its own, in one call: ``pools[g] = (n, positions)``
        scores the next ``n`` rows of ``queries`` against ``positions``
        (``None``: every live vector).  One result list per query row, each
        the one :meth:`search_batch` of its group alone gives (S2 of a batch
        over several target sheets)."""
        queries = self._checked_queries(queries)
        if sum(n for n, __ in pools) != queries.shape[0]:
            raise ValueError(
                f"pools hold {sum(n for n, __ in pools)} query rows, got {queries.shape[0]}"
            )
        return self._search_pools(queries, pools, k)

    # --------------------------------------------------------------- internal

    def _checked_queries(self, queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self._dimension:
            raise ValueError(
                f"queries must have shape (n, {self._dimension}), got {queries.shape}"
            )
        return queries

    def _search_pools(
        self,
        queries: np.ndarray,
        pools: Sequence[Tuple[int, Optional[np.ndarray]]],
        k: int,
    ) -> List[List[SearchResult]]:
        if len(self) == 0 or k <= 0:
            return [[] for __ in range(queries.shape[0])]
        if len(pools) == 1:
            return self._search_pool(queries, pools[0][1], k)
        results: List[List[SearchResult]] = []
        start = 0
        for n, positions in pools:
            results.extend(self._search_pool(queries[start : start + n], positions, k))
            start += n
        return results

    def _search_pool(
        self, queries: np.ndarray, positions: Optional[np.ndarray], k: int
    ) -> List[List[SearchResult]]:
        if positions is not None:
            positions = self._live(np.asarray(positions, dtype=np.int64))
            if positions.size == 0:
                return [[] for __ in range(queries.shape[0])]
        return self._score_block(queries, positions, k)

    def _checked_live_positions(self, positions: Sequence[int], caller: str) -> np.ndarray:
        """``positions`` as an int64 array, after checking that every one is
        in range, live and named once."""
        positions = np.asarray(list(positions), dtype=np.int64).reshape(-1)
        if positions.size == 0:
            return positions
        size = len(self._store)
        # Sorted, not ``np.unique``: its first call imports ``numpy.ma``
        # (~10 ms), which a server's first edit would pay.
        ordered = np.sort(positions)
        low, high = int(ordered[0]), int(ordered[-1])
        if low < 0 or high >= size:
            raise IndexError(f"positions must be in [0, {size}), got range [{low}, {high}]")
        if bool((ordered[1:] == ordered[:-1]).any()):
            raise ValueError(f"duplicate positions in {caller}")
        if not bool(np.all(self._alive[positions])):
            raise ValueError(f"{caller} called on an already-removed position")
        return positions

    def _live(self, positions: np.ndarray) -> np.ndarray:
        """``positions`` with tombstoned entries dropped (order preserved)."""
        if self._n_dead == 0:
            return positions
        return positions[self._alive[positions]]

    def _compact(self) -> np.ndarray:
        """Drop tombstoned rows and renumber; returns the old→new remap."""
        live_positions = np.flatnonzero(self._alive)
        remap = np.full(len(self._store), -1, dtype=np.int64)
        remap[live_positions] = np.arange(live_positions.size, dtype=np.int64)
        # Twice the live rows, so the add that usually follows a removal
        # fits without a second copy of the store.
        self._store.rehouse(max(2 * live_positions.size, 8), live_positions)
        self._alive = np.ones(live_positions.size, dtype=bool)
        self._keys = [self._keys[int(position)] for position in live_positions]
        self._n_dead = 0
        self._live_scan = None
        return remap

    # ---------------------------------------------------------------- scoring

    def _score_block(
        self, queries: np.ndarray, positions: Optional[np.ndarray], k: int
    ) -> List[List[SearchResult]]:
        """Score every query against the vectors at ``positions`` at once.

        ``positions=None`` scores against the whole store through the
        contiguous matrix view (no gather copy) — the full-scan hot path.
        With tombstones present the full scan scores the live positions,
        which are runs between the dead rows.
        Calls :meth:`takes_tier1` admits go through the tier-1 scan +
        tier-2 re-rank; everything else (and any row whose guaranteed slice
        overflows the slice budget) takes the plain deterministic scorer.
        """
        runs = None
        if positions is None and self._n_dead:
            if self._live_scan is None:
                live = np.flatnonzero(self._alive)
                self._live_scan = (live, _split_runs(live, 4 * self._dimension))
            positions, runs = self._live_scan
        elif positions is not None:
            runs = _split_runs(positions, 4 * self._dimension)
        pool = len(self._store) if positions is None else int(positions.size)
        n_runs = 1 if runs is None else int(runs[0].size)
        # Counted here, once a search: a fallback crosses the same pool again.
        n_in_place = pool if runs is None else int(runs[1][runs[2]].sum())
        self._rows_in_place.inc(n_in_place)
        self._rows_gathered.inc(pool - n_in_place)
        budget = _slice_budget(k)
        if self.takes_tier1(queries.shape[0], pool, k):
            with get_tracer().span(
                "index.search",
                mode="two_tier",
                pool=pool,
                runs=n_runs,
                k=k,
                n_queries=queries.shape[0],
                overfetch_budget=budget,
            ) as span:
                results = self._score_two_tier(queries, positions, runs, pool, k, budget)
                if results is not None:
                    return results
                # Every row's guaranteed slice overflowed the budget;
                # the plain scorer over the shared pool is cheaper.
                span.set_attribute("mode", "two_tier_overflow")
                self._overflows.inc()
                return self._score_exact(queries, positions, k, runs)
        with get_tracer().span(
            "index.search", mode="exact", pool=pool, runs=n_runs, k=k, n_queries=queries.shape[0]
        ):
            return self._score_exact(queries, positions, k, runs)

    def takes_tier1(self, n_queries: int, pool: int, k: int) -> bool:
        """Whether a search of ``n_queries`` rows over ``pool`` live vectors
        for ``k`` neighbours takes the BLAS scan + re-rank: a pool of at
        least twice the slice budget, and then :func:`tier1_pays` (or
        ``tier1_min_pairs`` pairs, when set)."""
        if pool < 2 * _slice_budget(k):
            return False
        if self.tier1_min_pairs is not None:
            return n_queries * pool >= self.tier1_min_pairs
        return tier1_pays(n_queries, pool, k)

    def _cross_term(
        self,
        queries: np.ndarray,
        positions: Optional[np.ndarray],
        runs: Optional[_Runs],
        product: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """``product(queries, vectors at positions)`` as one
        ``(n_queries, pool)`` array, without copying the pool's long runs.

        Each run of consecutive rows spanning ``_VIEW_MIN_BYTES`` is a view
        ``matrix[first : first + n]`` of the store with a product of its own,
        written to the run's columns; the rows of all shorter runs are
        gathered and scored together.  With the fixed-order product the
        result is bit-identical to ``product(queries, matrix[positions])``
        — each element's accumulation does not depend on how many rows
        share its call — and the BLAS product needs no such property
        (tier 1 is approximate by contract, to within :func:`_tier1_margin`).
        ``runs`` is :func:`_split_runs` of ``positions``, when the caller
        has it.
        """
        matrix = self._store.rows
        if positions is None:
            return product(queries, matrix)
        if runs is None:
            runs = _split_runs(positions, 4 * self._dimension)
        offsets, lengths, in_place = runs
        n_in_place = int(lengths[in_place].sum())
        if n_in_place == 0:
            return product(queries, matrix[positions])
        cross = np.empty((queries.shape[0], positions.size), dtype=np.float32)
        view_offsets = offsets[in_place]
        for offset, first, length in zip(
            view_offsets.tolist(), positions[view_offsets].tolist(), lengths[in_place].tolist()
        ):
            cross[:, offset : offset + length] = product(queries, matrix[first : first + length])
        if n_in_place < positions.size:
            columns = np.flatnonzero(np.repeat(~in_place, lengths))
            cross[:, columns] = product(queries, matrix[positions[columns]])
        return cross

    def _score_exact(
        self,
        queries: np.ndarray,
        positions: Optional[np.ndarray],
        k: int,
        runs: Optional[_Runs] = None,
    ) -> List[List[SearchResult]]:
        """The plain deterministic scorer over a shared candidate pool."""
        sq_norms = self._store.norms if positions is None else self._store.norms[positions]
        # The cross term deliberately avoids BLAS (``queries @ matrix.T``):
        # sgemm picks different kernels — and different accumulation orders —
        # depending on operand shapes, so the same (query, vector) pair can
        # score a few ULPs apart in pools of different sizes.  Unoptimized
        # einsum accumulates each element in fixed order regardless of shape,
        # which is what lets a batch of queries, a run of the pool scored
        # as a view, or a mutated or restored index whose store shape
        # differs from a fresh fit's, reproduce one-at-a-time fresh-fit
        # distances bit-for-bit.
        distances = (
            sq_norms[None, :]
            - 2.0 * self._cross_term(queries, positions, runs, _fixed_order_product)
            + np.einsum("ij,ij->i", queries, queries)[:, None]
        )
        np.maximum(distances, 0.0, out=distances)
        results: List[List[SearchResult]] = []
        for row, order in zip(distances, _first_k(distances, k)):
            results.append(
                [
                    SearchResult(
                        self._keys[int(i) if positions is None else int(positions[int(i)])],
                        float(row[int(i)]),
                    )
                    for i in order
                ]
            )
        return results

    def _score_two_tier(
        self,
        queries: np.ndarray,
        positions: Optional[np.ndarray],
        runs: Optional[_Runs],
        pool: int,
        k: int,
        budget: int,
    ) -> Optional[List[List[SearchResult]]]:
        """Tier-1 scan + per-row guaranteed slice + tier-2 exact re-rank.

        Returns ``None`` when every row's slice overflows ``budget`` (the
        caller then runs the plain scorer on the shared pool, which is
        cheaper than gathering per-row full-pool slices).
        """
        with get_tracer().span("index.tier1", pool=pool, k=k) as tier1_span:
            qq = np.einsum("ij,ij->i", queries, queries)
            sq_norms = self._store.norms if positions is None else self._store.norms[positions]
            cross = self._cross_term(queries, positions, runs, _blas_product)
            approx = sq_norms[None, :] - 2.0 * cross + qq[:, None]
            mask = tier1_slice(approx, _tier1_margin(self._dimension, qq, sq_norms), k)
            counts = mask.sum(axis=1)
            ok = counts <= budget
            tier1_span.set_attribute("max_slice", int(counts.max()))
            if not bool(ok.any()):
                return None
        results: List[Optional[List[SearchResult]]] = [None] * queries.shape[0]
        ok_rows = np.flatnonzero(ok)
        bad_rows = np.flatnonzero(~ok)
        with get_tracer().span(
            "index.tier2",
            n_rows=int(ok_rows.size),
            fallback_rows=int(bad_rows.size),
        ):
            columns, valid = _pack_mask(mask[ok_rows], counts[ok_rows])
            absolute = columns if positions is None else positions[columns]
            for row, hits in zip(ok_rows, self._score_padded(queries[ok_rows], absolute, valid, k)):
                results[int(row)] = hits
            if bad_rows.size:
                self._fallback_rows.inc(int(bad_rows.size))
                fallback = self._score_exact(queries[bad_rows], positions, k, runs)
                for row, hits in zip(bad_rows, fallback):
                    results[int(row)] = hits
        return results  # type: ignore[return-value]

    def _score_padded(
        self, queries: np.ndarray, absolute: np.ndarray, valid: np.ndarray, k: int
    ) -> List[List[SearchResult]]:
        """Deterministic scorer over per-row padded position pools.

        ``absolute[r]`` holds store positions for query row ``r`` in
        ascending pool order with arbitrary (masked-out) padding.  The
        3-operand ``"rd,rld->rl"`` einsum accumulates each element in the
        same fixed order as the shared-pool ``"ij,kj->ik"`` scorer, so the
        per-pair distances are bit-identical to :meth:`_score_exact` —
        which is what lets the tier-2 re-rank reproduce the plain path's
        rankings exactly.
        """
        gathered, sq_norms = self._store.take(absolute)
        distances = (
            sq_norms
            - 2.0 * np.einsum("rd,rld->rl", queries, gathered)
            + np.einsum("ij,ij->i", queries, queries)[:, None]
        )
        np.maximum(distances, 0.0, out=distances)
        distances[~valid] = np.inf
        results: List[List[SearchResult]] = []
        for r, (row, order) in enumerate(zip(distances, _first_k(distances, k))):
            hits: List[SearchResult] = []
            for i in order:
                if not valid[r, int(i)]:
                    break
                hits.append(
                    SearchResult(self._keys[int(absolute[r, int(i)])], float(row[int(i)]))
                )
            results.append(hits)
        return results

    # ------------------------------------------------------------ observability

    def counters(self) -> Dict[str, int]:
        """What answers never show, since construction.  The BLAS path's
        fallbacks to the plain scorer: query rows of a tier-2 re-rank whose
        guaranteed slice overflowed the budget
        (``index.tier2_fallback_rows``) and calls in which every row's did
        (``index.two_tier_overflow``).  And where shared pools lay: pool
        rows scored as views of the store (``index.rows_scored_in_place``)
        against rows copied out of it first (``index.rows_gathered``) — a
        store fragmented into short runs pushes S2 onto the second."""
        return {
            "index.tier2_fallback_rows": self._fallback_rows.value,
            "index.two_tier_overflow": self._overflows.value,
            "index.rows_scored_in_place": self._rows_in_place.value,
            "index.rows_gathered": self._rows_gathered.value,
        }

    def memory_stats(self) -> Dict[str, object]:
        """JSON-ready resident-byte accounting for the ``/stats`` surface.

        ``bytes`` covers the occupied rows (capacity slack excluded);
        ``tombstone_bytes`` is the share pinned by removed-but-uncompacted
        rows.
        """
        size = len(self._store)
        by_array: Dict[str, int] = {
            "float32_matrix": int(self._store.rows.nbytes),
            "sq_norms": int(self._store.norms.nbytes),
            "alive": int(self._alive.nbytes),
        }
        total = sum(by_array.values())
        row_bytes = total // size if size else 0
        return {
            "vectors": int(len(self)),
            "tombstones": int(self._n_dead),
            "dimension": int(self._dimension),
            "bytes": dict(by_array, total=int(total)),
            "tombstone_bytes": int(self._n_dead * row_bytes),
        }

    # ------------------------------------------------------------- persistence

    def store_state(self) -> Dict[str, np.ndarray]:
        """The raw store, sized to its stored rows, for snapshot serialization.

        Keys are deliberately *not* included: they are caller-provided
        hashables whose encoding the owner of the index knows (stable sheet
        ids, ``(sheet id, local)`` pairs, ...), so the owner serializes
        them alongside these blocks.  ``sq_norms`` is persisted rather than
        recomputed on load — restored distances must be bit-identical to
        the live index's, and recomputation could differ in accumulation
        order.
        """
        return {
            "matrix": self._store.rows,
            "sq_norms": self._store.norms,
            "alive": self._alive,
        }

    def restore_store(
        self,
        keys: Sequence[Hashable],
        matrix: np.ndarray,
        sq_norms: np.ndarray,
        alive: np.ndarray,
    ) -> None:
        """Adopt a previously exported store (the snapshot-load path).

        ``matrix`` and ``sq_norms`` may be read-only memory-maps, which the
        row store never writes through.  ``alive`` is copied because
        removals flip its entries in place.  A search reads nothing but the
        row store, so a restored index answers exactly like a freshly built
        one over the same live vectors.
        """
        matrix = np.asanyarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self._dimension:
            raise ValueError(
                f"restored matrix has shape {matrix.shape}, index expects "
                f"(n, {self._dimension})"
            )
        size = matrix.shape[0]
        if len(keys) != size or len(sq_norms) != size or len(alive) != size:
            raise ValueError(
                f"inconsistent restored store: {len(keys)} keys, {size} vectors, "
                f"{len(sq_norms)} norms, {len(alive)} liveness flags"
            )
        self._store.adopt(
            matrix.astype(np.float32, copy=False), np.asanyarray(sq_norms, dtype=np.float32)
        )
        self._alive = np.array(alive, dtype=bool)
        self._keys = list(keys)
        self._n_dead = size - int(np.count_nonzero(self._alive))
        self._live_scan = None
