"""Word-averaging embedder: the GloVe stand-in.

Each word maps to a deterministic pseudo-random unit vector (seeded by the
word's hash), and a string embeds as the mean of its word vectors.  This is
the classical "average of word vectors" recipe used with GloVe, minus the
pretrained co-occurrence statistics.  It is lower-dimensional and cheaper
than :class:`~repro.embedding.hashed.HashedSemanticEmbedder`, reproducing
the paper's quality/efficiency trade-off between the two content embedders.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cache import LRU
from repro.embedding.base import TextEmbedder
from repro.embedding.hashed import _stable_hash

#: Word vectors kept per embedder (a vocabulary, not a working set).  The
#: cache earns its place *behind* ``cell_features``: featurizing PGE once
#: with the ``glove`` featurizer, ``cell_features`` takes 2 352 of 4 462 cell
#: lookups, and of the 3 831 word lookups its misses still make, this cache
#: takes 2 345 (61 %).  A miss is a ``default_rng`` plus a draw, 15-17 us
#: against under 1 us for a hit: about 35-39 ms of a 115-120 ms pass.
_MAX_CACHED_WORDS = 50_000


class WordAveragingEmbedder(TextEmbedder):
    """Mean of per-word deterministic pseudo-random unit vectors."""

    name = "glove"

    def __init__(self, dimension: int = 50) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self._dimension = dimension
        self._word_vectors = LRU("word_vectors", _MAX_CACHED_WORDS)

    @property
    def dimension(self) -> int:
        return self._dimension

    def _word_vector(self, word: str) -> np.ndarray:
        cached = self._word_vectors.get(word)
        if cached is not None:
            return cached
        rng = np.random.default_rng(_stable_hash(word) % (2**32))
        vector = rng.standard_normal(self._dimension).astype(np.float32)
        vector /= float(np.linalg.norm(vector)) or 1.0
        return self._word_vectors.put(word, vector)

    def _tokens(self, text: str) -> List[str]:
        cleaned = "".join(char.lower() if char.isalnum() else " " for char in text)
        return [token for token in cleaned.split() if token]

    def embed(self, text: str) -> np.ndarray:
        tokens = self._tokens(text)
        if not tokens:
            return np.zeros(self._dimension, dtype=np.float32)
        vectors = [self._word_vector(token) for token in tokens]
        mean = np.mean(vectors, axis=0)
        norm = float(np.linalg.norm(mean))
        if norm > 0.0:
            mean = mean / norm
        return mean.astype(np.float32)
