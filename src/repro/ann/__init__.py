"""Approximate nearest-neighbour search substrate (the Faiss stand-in).

The online phase of Auto-Formula retrieves similar sheets and regions by
nearest-neighbour search over dense vectors.  Three interchangeable indexes
are provided behind a common interface:

* :class:`ExactIndex` — brute-force exact search (the accuracy reference);
* :class:`LSHIndex` — random-hyperplane locality-sensitive hashing with
  multi-table probing;
* :class:`IVFIndex` — inverted-file index with a k-means coarse quantizer
  and configurable probe count (the closest analogue of ``IndexIVFFlat``).
"""

from repro.ann.base import SearchResult, VectorIndex
from repro.ann.exact import ExactIndex
from repro.ann.lsh import LSHIndex
from repro.ann.ivf import IVFIndex

__all__ = [
    "SearchResult",
    "VectorIndex",
    "ExactIndex",
    "LSHIndex",
    "IVFIndex",
    "create_index",
    "canonical_index_kind",
    "KNOWN_INDEX_KINDS",
]

_INDEX_BUILDERS = {
    "exact": ExactIndex,
    "flat": ExactIndex,
    "brute": ExactIndex,
    "lsh": LSHIndex,
    "ivf": IVFIndex,
}

#: Every spelling :func:`create_index` accepts (lower-case; matching is
#: case-insensitive and whitespace-tolerant).  Configuration objects import
#: this to validate index-kind strings at construction time.
KNOWN_INDEX_KINDS = frozenset(_INDEX_BUILDERS)


def canonical_index_kind(kind: str) -> str:
    """The one spelling of ``kind``: stripped, lower-case, and an alias
    resolved to the first name registered for the same index class
    (``flat`` / ``brute`` → ``exact``).  Raises ``ValueError`` when unknown.
    """
    builder = _INDEX_BUILDERS.get(kind.strip().lower())
    if builder is None:
        raise ValueError(
            f"unknown index kind {kind!r}; expected one of {sorted(KNOWN_INDEX_KINDS)}"
        )
    return next(name for name, other in _INDEX_BUILDERS.items() if other is builder)


def create_index(kind: str, dimension: int, **kwargs) -> VectorIndex:
    """Factory for index construction from configuration strings."""
    return _INDEX_BUILDERS[canonical_index_kind(kind)](dimension, **kwargs)
