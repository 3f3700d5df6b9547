"""Text embedding substrate.

The paper embeds each cell's textual content with a pre-trained model
(Sentence-BERT, with GloVe as a cheaper alternative).  Pre-trained weights
are not available offline, so this package provides deterministic,
dependency-free embedders with the property the downstream model actually
relies on: textually/semantically similar strings receive nearby vectors.

* :class:`HashedSemanticEmbedder` — character n-gram + word feature hashing,
  384 dimensions by default (the Sentence-BERT stand-in).
* :class:`WordAveragingEmbedder` — word-level hashing only, 50 dimensions by
  default and noticeably cheaper (the GloVe stand-in).

Neither memoizes whole texts: repeated cell texts are absorbed one level up,
by the cell-feature cache of :class:`repro.features.CellFeaturizer`, which
keys on everything a feature vector depends on (the text included).  What
distinct texts share — their words and character n-grams — is hashed once
(the ``token_hashes`` memo of :mod:`repro.embedding.hashed`).
"""

from repro.embedding.base import TextEmbedder
from repro.embedding.hashed import HashedSemanticEmbedder
from repro.embedding.word_average import WordAveragingEmbedder

__all__ = [
    "TextEmbedder",
    "HashedSemanticEmbedder",
    "WordAveragingEmbedder",
    "create_embedder",
]


def create_embedder(name: str, dimension: int | None = None) -> TextEmbedder:
    """Factory used by configuration code.

    ``name`` is ``"sbert"`` (or ``"sentence-bert"``) for the hashed semantic
    embedder, ``"glove"`` for the word-averaging embedder.
    """
    key = name.strip().lower()
    if key in ("sbert", "sentence-bert", "sentence_bert", "hashed"):
        return HashedSemanticEmbedder(dimension or 384)
    if key in ("glove", "word-average", "word_average"):
        return WordAveragingEmbedder(dimension or 50)
    raise ValueError(f"unknown embedder {name!r}")
