"""Nearest-neighbour search substrate (the Faiss stand-in).

The online phase of Auto-Formula retrieves similar sheets (S1) and formula
regions (S2) by nearest-neighbour search over dense vectors.  One exact
index, :class:`VectorIndex`, serves both: every live vector (or every one
of a caller's candidate pool) is scored, so its answers are the paper's
exact-search answers.
"""

from repro.ann.base import SearchResult, VectorIndex

__all__ = ["SearchResult", "VectorIndex"]
