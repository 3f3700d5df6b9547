"""Hashed semantic embedder: the Sentence-BERT stand-in.

The embedder hashes word unigrams and character trigrams into a fixed-size
vector (signed feature hashing), then L2-normalizes.  Strings that share
words or substrings therefore land close together in cosine space — e.g.
``"Total Sales"`` and ``"Total Revenue"`` overlap through "total", while
``"2020-01-01"`` and ``"2020-01-02"`` overlap through most of their
character trigrams.  That neighbourhood structure is the only property the
downstream representation models rely on.

A batch of texts is embedded with one scatter-add of every token's signed
weight and one row-wise normalization, and gives each text the bytes a
token-by-token loop over that text alone gives (see
:meth:`HashedSemanticEmbedder.embed_batch`).
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

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

    # ------------------------------------------------------------------- embed

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed ``texts`` into an ``(n, dimension)`` float32 matrix.

        Row i is byte for byte what accumulating text i's tokens one by one
        in float32 (words at weight 1, then character n-grams at 0.5, each
        with its hash's sign) and dividing by the vector's
        ``np.linalg.norm`` gives:

        * the sums are one ``np.add.at``, which adds in float32 in index
          order — the order of that loop;
        * the norm is ``sqrt`` of a row-wise float32 sum of squares.  A row
          whose tokens weigh ``total`` in all has entries that are multiples
          of 0.5 and a sum of squares of at most ``total ** 2``; below
          ``2 ** 22`` every square and partial sum is an exact multiple of
          0.25, so any summation order gives the exact total.  A row with
          ``total >= 2048`` (texts of about 2 000 characters and more) takes
          ``np.linalg.norm`` itself.
        """
        dimension = self._dimension
        vectors = np.zeros((len(texts), dimension), dtype=np.float32)
        cells: List[int] = []  # flat index of each token's bucket, in order
        signed: List[float] = []  # its weight, signed by its hash
        long_rows: List[int] = []
        for row, text in enumerate(texts):
            if not text:
                continue
            offset, total = row * dimension, 0.0
            for tokens, weight in ((self._word_tokens(text), 1.0), (self._char_tokens(text), 0.5)):
                for token_hash in map(_stable_hash, tokens):
                    cells.append(offset + token_hash % dimension)
                    signed.append(weight if (token_hash >> 32) & 1 else -weight)
                total += weight * len(tokens)
            if total >= 2048:
                long_rows.append(row)
        if not cells:
            return vectors
        np.add.at(vectors.reshape(-1), cells, np.array(signed, dtype=np.float32))
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
        for row in long_rows:
            norms[row] = np.linalg.norm(vectors[row])
        norms[norms == 0.0] = 1.0  # an all-zero row stays as it is
        vectors /= norms[:, None]
        return vectors
