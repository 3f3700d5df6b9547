"""Bounded caches that count themselves: :class:`LRU`, :class:`RowTable`
and :func:`memoized`.

Every cache in the system comes from this module, so how a bounded cache
evicts, locks, validates its entries and reports its traffic is decided here
and nowhere else.  The rule for picking one of the three:

* :class:`LRU` for values derived from versioned objects (checked against a
  token at every lookup) or weighed in bytes — sheet tensors, reduced
  tensors, query vectors;
* :class:`RowTable` for many fixed-width float32 vectors that are read many
  keys at a time — cell features — where a read is one C-level dict lookup
  per key and one gather, not a Python call and an array object per key;
* :func:`memoized` for pure functions of small hashable arguments whose
  results are immutable — parsed addresses, styles, formula trees, token
  hashes, shared feature parts — where a lookup is one C call and the
  :class:`LRU`'s Python-level mutex would cost much of what a hit saves.

The module imports nothing from ``repro``.

Live instances are tracked process-wide (weakly, like the tracer of
``repro.obs`` is process-wide) so :func:`stats` can report every cache by
name without a handle being threaded from the encoder up to the server.
"""

from __future__ import annotations

import functools
import mmap
import threading
import weakref
from collections import OrderedDict
from itertools import repeat
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Live :class:`LRU` and :class:`RowTable` instances.
_instances: "weakref.WeakSet" = weakref.WeakSet()
#: name -> ``functools.lru_cache`` wrapper, for :func:`memoized` functions.
_memos: Dict[str, Callable] = {}
_instances_mutex = threading.Lock()


class LRU:
    """A bounded, thread-safe, least-recently-used ``key -> value`` cache.

    ``max_entries`` bounds the number of entries; ``max_bytes``, when given,
    also bounds the sum of the values' ``nbytes``.  Whatever exceeds either
    bound is evicted least recently used first, so eviction is
    deterministic.

    ``token_of`` makes the cache one of *versioned objects*: a key is then
    an object held by identity — the entry pins it, so its ``id()`` cannot
    be recycled while the entry lives — and ``token_of(key)`` is recorded
    at :meth:`put` and compared at :meth:`get`.  An entry whose token no
    longer matches is dropped and the lookup is a miss, so the cache never
    serves a value derived from an earlier state of its key.  Without
    ``token_of`` keys are ordinary hashable values.

    Values must be deterministic functions of their key: a miss raced by
    two threads computes the value twice, and :meth:`put` hands both the
    one resident value.  ``hits`` / ``misses`` / ``evictions`` are exact —
    they change under the mutex every operation takes anyway.
    """

    def __init__(
        self,
        name: str,
        max_entries: int,
        max_bytes: Optional[int] = None,
        token_of: Optional[Callable[[object], object]] = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._token_of = token_of
        #: slot -> (key, token, value, weight); the slot is the key itself,
        #: or its ``id()`` for a cache of versioned objects.
        self._entries: "OrderedDict[object, tuple]" = OrderedDict()
        self._bytes = 0
        self._mutex = threading.Lock()
        #: ``get`` calls answered / not answered, and entries dropped by a
        #: bound or a stale token (``clear`` is the caller's act, not counted).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        with _instances_mutex:
            _instances.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def _drop(self, slot) -> None:
        self._bytes -= self._entries.pop(slot)[3]
        self.evictions += 1

    def get(self, key):
        """The value cached for ``key`` (refreshing its recency), or ``None``."""
        slot, token = key, None
        if self._token_of is not None:
            slot, token = id(key), self._token_of(key)
        with self._mutex:
            entry = self._entries.get(slot)
            if entry is not None and entry[1] != token:
                self._drop(slot)
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(slot)
            return entry[2]

    def get_at(self, key, token):
        """The value cached for ``key`` (a versioned object) if it was put
        at ``token``, whatever ``key``'s token is now, or ``None``: what a
        caller that knows how its key changed since ``token`` can bring up
        to date and :meth:`put` back.  Counted as a lookup; the entry stays
        where it is."""
        with self._mutex:
            entry = self._entries.get(id(key))
            if entry is None or entry[1] != token:
                self.misses += 1
                return None
            self.hits += 1
            return entry[2]

    def put(self, key, value):
        """Cache ``value`` for ``key`` and return the resident value: the one
        already there when another thread filled the same miss first."""
        slot, token = key, None
        if self._token_of is not None:
            slot, token = id(key), self._token_of(key)
        weight = value.nbytes if self.max_bytes is not None else 0
        with self._mutex:
            entry = self._entries.get(slot)
            if entry is not None:
                if entry[1] == token:
                    self._entries.move_to_end(slot)
                    return entry[2]
                self._drop(slot)
            self._entries[slot] = (key, token, value, weight)
            self._bytes += weight
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None and self._bytes > self.max_bytes
            ):
                self._drop(next(iter(self._entries)))
        return value

    def values(self) -> List[object]:
        """Cached values, least recently used first."""
        with self._mutex:
            return [entry[2] for entry in self._entries.values()]

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> Dict[str, int]:
        """``hit`` / ``miss`` / ``evict`` counts since construction and the
        ``size`` held now (plus ``bytes`` when the cache is weighed)."""
        with self._mutex:
            counts = {
                "hit": self.hits,
                "miss": self.misses,
                "evict": self.evictions,
                "size": len(self._entries),
            }
            if self.max_bytes is not None:
                counts["bytes"] = self._bytes
        return counts


class RowTable:
    """A bounded, thread-safe ``key -> float32 row`` table of one width.

    The rows live in one ``(max_rows, width)`` matrix, allocated once as an
    anonymous memory mapping — the operating system backs a page of it only
    when a row on that page is first written, so an unfilled bound costs
    address space, not memory — and a dict maps each key to its row.
    :meth:`read` of n keys is n C-level dict lookups and one gather, under
    one mutex.

    When a :meth:`write` finds every row taken, the table *starts over*: all
    rows drop (counted in ``evictions``) and filling resumes at row 0.  No
    key is ever answered with another key's row: a read copies its rows out
    under the same mutex a start-over takes.

    Rows must be deterministic functions of their keys: a miss raced by two
    threads is computed by both, and the first write wins.  ``hits`` /
    ``misses`` / ``evictions`` are exact, one lookup per key read.
    """

    def __init__(self, name: str, max_rows: int, width: int) -> None:
        if max_rows <= 0:
            raise ValueError("max_rows must be positive")
        self.name = name
        self.max_rows = max_rows
        # Mapped directly rather than through ``np.empty``: glibc lifts its
        # mmap threshold to the size of a freed mapping it made (up to 32
        # MiB), so a freed 25 MiB table would send every later array under
        # that size to the heap — peak RSS of a benchmark process that sets
        # up twice rose 6 % that way.
        self._rows = np.frombuffer(
            mmap.mmap(-1, max_rows * width * 4), dtype=np.float32
        ).reshape(max_rows, width)
        #: key -> row number; rows ``[0, _filled)`` are taken.
        self._row_of: Dict[Hashable, int] = {}
        self._filled = 0
        self._mutex = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        with _instances_mutex:
            _instances.add(self)

    def __len__(self) -> int:
        return len(self._row_of)

    def read(self, keys: Sequence[Hashable]) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, missed)``: a private ``(len(keys), width)`` matrix whose
        row i is the row held for ``keys[i]``, and the positions of the keys
        held nowhere (their rows in the matrix are unspecified).  ``None``
        is never held, so it always misses."""
        with self._mutex:
            ids = np.fromiter(
                map(self._row_of.get, keys, repeat(-1)), dtype=np.intp, count=len(keys)
            )
            rows = self._rows.take(ids, axis=0, mode="clip")
            missed = np.flatnonzero(ids < 0)
            self.misses += len(missed)
            self.hits += len(ids) - len(missed)
        return rows, missed

    def write(self, keys: Iterable[Hashable], rows: np.ndarray) -> None:
        """Hold ``rows[i]`` for the i-th of ``keys`` (distinct, not ``None``)
        unless a row is held for it already."""
        with self._mutex:
            row_of = self._row_of
            start, taken = self._filled, []
            for position, key in enumerate(keys):
                if key in row_of:
                    continue
                if self._filled == self.max_rows:
                    # Start over: what this call wrote so far drops too.
                    self.evictions += len(row_of)
                    row_of.clear()
                    start, taken, self._filled = 0, [], 0
                row_of[key] = self._filled
                self._filled += 1
                taken.append(position)
            if taken:
                self._rows[start : self._filled] = rows[taken]

    def stats(self) -> Dict[str, int]:
        """``hit`` / ``miss`` / ``evict`` counts since construction and the
        ``size`` (keys held) now."""
        with self._mutex:
            return {
                "hit": self.hits,
                "miss": self.misses,
                "evict": self.evictions,
                "size": len(self._row_of),
            }


def memoized(name: str, max_entries: int, typed: bool = False):
    """Decorator: ``functools.lru_cache`` under a name :func:`stats` reports.

    For module-level pure functions of hashable arguments whose results are
    immutable, so that every caller may be handed the one resident object.
    A lookup is a C call (0.07 us measured against 0.44 for :meth:`LRU.get`),
    thread-safe, and counted exactly: ``hit + miss`` is the number of calls
    made (a call with an unhashable argument raises ``TypeError`` before it
    is counted; callers that accept one compute it through ``__wrapped__``).
    ``evict`` is ``miss - size``: misses whose result is not resident, which
    counts a call that raised (nothing is stored for it) along with the
    entries the bound pushed out.
    """

    def decorate(function: Callable) -> Callable:
        cached = functools.lru_cache(maxsize=max_entries, typed=typed)(function)
        with _instances_mutex:
            _memos[name] = cached
        return cached

    return decorate


def stats() -> Dict[str, Dict[str, int]]:
    """Every live :class:`LRU`'s and :class:`RowTable`'s ``stats()``, summed
    by instance name, and every :func:`memoized` function's counts under its
    own."""
    with _instances_mutex:
        instances = list(_instances)
        memos = list(_memos.items())
    totals: Dict[str, Dict[str, int]] = {}
    for name, cached in memos:
        info = cached.cache_info()
        totals[name] = {
            "hit": info.hits,
            "miss": info.misses,
            "evict": info.misses - info.currsize,
            "size": info.currsize,
        }
    for instance in instances:
        total = totals.setdefault(instance.name, {})
        for field, count in instance.stats().items():
            total[field] = total.get(field, 0) + count
    return dict(sorted(totals.items()))
