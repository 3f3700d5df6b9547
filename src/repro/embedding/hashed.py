"""Hashed semantic embedder: the Sentence-BERT stand-in.

The embedder hashes word unigrams and character trigrams into a fixed-size
vector (signed feature hashing), then L2-normalizes.  Strings that share
words or substrings therefore land close together in cosine space — e.g.
``"Total Sales"`` and ``"Total Revenue"`` overlap through "total", while
``"2020-01-01"`` and ``"2020-01-02"`` overlap through most of their
character trigrams.  That neighbourhood structure is the only property the
downstream representation models rely on.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List

import numpy as np

from repro.cache import memoized
from repro.embedding.base import TextEmbedder


@memoized("token_hashes", max_entries=32768)
def _stable_hash(token: str) -> int:
    """A deterministic 64-bit hash (Python's builtin ``hash`` is salted).

    Memoized: one blake2b per distinct word or character n-gram.  One
    set-up of a benchmark workload hashes 9-12 k distinct tokens about 15
    times each; an entry of an ordinary token is ~0.25 kB, so a full memo
    holds ~8 MB.
    """
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class HashedSemanticEmbedder(TextEmbedder):
    """Signed feature-hashing over word unigrams and character trigrams."""

    name = "sentence-bert"

    def __init__(self, dimension: int = 384, char_ngram: int = 3) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self._dimension = dimension
        self._char_ngram = char_ngram

    @property
    def dimension(self) -> int:
        return self._dimension

    # ------------------------------------------------------------------ tokens

    def _word_tokens(self, text: str) -> List[str]:
        cleaned = "".join(char.lower() if char.isalnum() else " " for char in text)
        return [token for token in cleaned.split() if token]

    def _char_tokens(self, text: str) -> List[str]:
        normalized = text.lower().strip()
        n = self._char_ngram
        if len(normalized) < n:
            return [normalized] if normalized else []
        return [normalized[i : i + n] for i in range(len(normalized) - n + 1)]

    def _hash_into(self, vector: np.ndarray, tokens: Iterable[str], weight: float) -> None:
        for token in tokens:
            token_hash = _stable_hash(token)
            index = token_hash % self._dimension
            sign = 1.0 if (token_hash >> 32) & 1 else -1.0
            vector[index] += sign * weight

    # ------------------------------------------------------------------- embed

    def embed(self, text: str) -> np.ndarray:
        vector = np.zeros(self._dimension, dtype=np.float32)
        if not text:
            return vector
        self._hash_into(vector, self._word_tokens(text), weight=1.0)
        self._hash_into(vector, self._char_tokens(text), weight=0.5)
        norm = float(np.linalg.norm(vector))
        if norm > 0.0:
            vector /= norm
        return vector
