"""Per-cell feature vectors: content features and style features."""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cache import LRU, memoized
from repro.embedding import TextEmbedder
from repro.features.config import FeatureConfig
from repro.sheet.cell import Cell, CellType, syntactic_pattern
from repro.sheet.style import CellStyle

#: Fixed ordering of cell types for the one-hot type feature.
_CELL_TYPES = [
    CellType.EMPTY,
    CellType.NUMERIC,
    CellType.TEXT,
    CellType.DATE,
    CellType.BOOLEAN,
    CellType.FORMULA,
    CellType.ERROR,
]

#: Number of syntactic-pattern summary features.
_N_PATTERN_FEATURES = 8
#: Number of style features.
_N_STYLE_FEATURES = 16
#: Extra indicator features (cell validity inside the sheet bounds).
_N_INDICATOR_FEATURES = 1
#: Feature vectors kept per featurizer.
_MAX_CACHED_CELLS = 100_000
#: A style's fields as one tuple, which C hashes and compares (the frozen
#: dataclass itself does both in Python, per lookup).
_style_fields = attrgetter(*CellStyle.__dataclass_fields__)

_ONE_HOTS = np.eye(len(_CELL_TYPES), dtype=np.float32)
_ONE_HOTS.setflags(write=False)
#: The cell-type part of each type: a read-only row of one shared matrix.
_TYPE_PARTS = dict(zip(_CELL_TYPES, _ONE_HOTS))


# Bounds of the part memos: one set-up of a benchmark workload meets 149-161
# distinct patterns and 15-16 distinct styles.
@memoized("pattern_features", max_entries=512)
def _pattern_part(pattern: str) -> np.ndarray:
    """The syntactic-pattern part of a cell whose value has ``pattern``
    (read-only: one array is shared by every cell with that pattern)."""
    features = np.zeros(_N_PATTERN_FEATURES, dtype=np.float32)
    if pattern:
        length = len(pattern)
        features[0] = min(length / 32.0, 1.0)
        features[1] = pattern.count("D") / length
        features[2] = pattern.count("L") / length
        features[3] = pattern.count("S") / length
        features[4] = 1.0 if "-" in pattern or "/" in pattern else 0.0
        features[5] = 1.0 if "." in pattern else 0.0
        features[6] = 1.0 if "$" in pattern or "%" in pattern else 0.0
        features[7] = 1.0 if pattern[0] == "D" else 0.0
    features.setflags(write=False)
    return features


@memoized("style_features", max_entries=64)
def _style_part(style: CellStyle) -> np.ndarray:
    """The style part of a cell with ``style`` (read-only, shared by every
    cell with an equal style).  Styles share an entry exactly when they
    share a style number in :meth:`CellFeaturizer._keys` (equal fields): a
    ``font_size`` of 11 or 11.0, a ``bold`` of 1 or True, which truth and
    float arithmetic turn into the same features."""
    features = np.zeros(_N_STYLE_FEATURES, dtype=np.float32)
    features[0:3] = style.background_rgb()
    features[3:6] = style.font_rgb()
    features[6] = 1.0 if style.bold else 0.0
    features[7] = 1.0 if style.italic else 0.0
    features[8] = 1.0 if style.underline else 0.0
    features[9] = min(style.font_size / 24.0, 2.0)
    features[10] = min(style.height / 60.0, 2.0)
    features[11] = min(style.width / 200.0, 2.0)
    features[12] = 1.0 if style.border_top else 0.0
    features[13] = 1.0 if style.border_bottom else 0.0
    features[14] = 1.0 if style.border_left else 0.0
    features[15] = 1.0 if style.border_right else 0.0
    features.setflags(write=False)
    return features


class CellFeaturizer:
    """Turns a :class:`Cell` into a fixed-length feature vector.

    Layout of the feature vector (in order):

    1. semantic content embedding (``content_embedding_dim`` floats),
    2. cell-type one-hot (7),
    3. syntactic pattern summary (8),
    4. style features (16),
    5. validity indicator (1): 1.0 for real cells, 0.0 for out-of-bounds
       padding cells in a view window.

    Disabled feature groups (ablations) are zeroed rather than removed so
    the model input dimensionality — and hence trained weights — stay
    compatible across ablation runs.
    """

    def __init__(
        self,
        config: FeatureConfig,
        embedder: Optional[TextEmbedder] = None,
    ) -> None:
        self._config = config
        self._embedder = embedder or config.create_embedder()
        self._content_dim = config.content_embedding_dim
        #: Full feature vectors, keyed by the cell *content* that determines
        #: them: (value, has-formula, style, validity).  Corpora repeat the
        #: same headers, labels and styles across thousands of cells, so
        #: this removes most per-cell Python work (text embedding included).
        #: One featurizer is shared by every concurrent serving thread
        #: driving the same encoder.
        self._cache = LRU("cell_features", _MAX_CACHED_CELLS)
        #: Style field tuple -> the number it contributes to a cache key.
        self._style_ids: Dict[tuple, int] = {}
        self._next_style_id = itertools.count()

    # ----------------------------------------------------------------- layout

    @property
    def dimension(self) -> int:
        """Total length of the per-cell feature vector."""
        return (
            self._content_dim
            + len(_CELL_TYPES)
            + _N_PATTERN_FEATURES
            + _N_STYLE_FEATURES
            + _N_INDICATOR_FEATURES
        )

    @property
    def embedder(self) -> TextEmbedder:
        """The content embedder in use."""
        return self._embedder

    def content_feature_slice(self) -> slice:
        """Indices of the content-feature block (embedding + type + pattern)."""
        return slice(0, self._content_dim + len(_CELL_TYPES) + _N_PATTERN_FEATURES)

    def style_feature_slice(self) -> slice:
        """Indices of the style-feature block."""
        start = self._content_dim + len(_CELL_TYPES) + _N_PATTERN_FEATURES
        return slice(start, start + _N_STYLE_FEATURES)

    # --------------------------------------------------------------- features

    def _semantic_features(self, cell: Cell) -> np.ndarray:
        text = cell.display_text()
        if not text:
            return np.zeros(self._content_dim, dtype=np.float32)
        vector = self._embedder.embed(text)
        if vector.shape[0] == self._content_dim:
            return vector
        if vector.shape[0] > self._content_dim:
            return vector[: self._content_dim]
        padded = np.zeros(self._content_dim, dtype=np.float32)
        padded[: vector.shape[0]] = vector
        return padded

    def _keys(self, cells: Sequence[Cell], valid: bool) -> List[Optional[tuple]]:
        """The cache key of each cell — the content that determines its
        vector — or ``None`` for a cell that cannot be keyed (an unhashable
        exotic value or style field): that one is never resident, reads as
        a miss and is computed on every call.

        C hashes and compares every part of a key.  A style contributes a
        small integer interned from the tuple of its fields, so an entry
        holds one number for its style, not twelve fields.
        """
        interned = self._style_ids
        keys: List[Optional[tuple]] = []
        for cell in cells:
            value = cell.value
            fields = _style_fields(cell.style)
            try:
                hash(value)  # cheap (a string keeps its hash); the key's own is not
                style_id = interned.get(fields)
                if style_id is None:
                    if len(interned) >= _MAX_CACHED_CELLS:
                        # Numbers are never handed out twice, so forgetting
                        # them orphans cache entries and aliases none.
                        interned.clear()
                    style_id = interned.setdefault(fields, next(self._next_style_id))
            except TypeError:
                keys.append(None)
                continue
            # The type disambiguates 1 / 1.0 / True, which compare (and hash)
            # equal as dict keys but featurize differently.
            keys.append((type(value), value, bool(cell.formula), style_id, valid))
        return keys

    def _fill(self, key: Optional[tuple], cell: Cell, valid: bool) -> np.ndarray:
        vector = self._featurize_uncached(cell, valid)
        vector.setflags(write=False)
        return vector if key is None else self._cache.put(key, vector)

    def featurize(self, cell: Cell, valid: bool = True) -> np.ndarray:
        """Full feature vector for a single cell.

        The returned array is shared through a content-keyed cache and
        marked read-only; copy it before mutating.
        """
        (key,) = self._keys((cell,), valid)
        cached = self._cache.get(key)
        return cached if cached is not None else self._fill(key, cell, valid)

    def featurize_many(self, cells: Sequence[Cell]) -> List[np.ndarray]:
        """:meth:`featurize` of every cell (as a valid cell), in order.

        The bulk form a whole sheet goes through: all cells are looked up in
        one cache transaction (:meth:`~repro.cache.LRU.get_many`), which
        counts one lookup per cell exactly as the single-cell form does.  A
        key that misses more than once is computed once.
        """
        keys = self._keys(cells, True)
        vectors = self._cache.get_many(keys)
        fresh: Dict[tuple, np.ndarray] = {}
        for index, vector in enumerate(vectors):
            if vector is None:
                key = keys[index]
                vector = fresh.get(key)
                if vector is None:
                    vector = self._fill(key, cells[index], True)
                    if key is not None:
                        fresh[key] = vector
                vectors[index] = vector
        return vectors

    def _featurize_uncached(self, cell: Cell, valid: bool) -> np.ndarray:
        """The vector of one cell key.  Only the text embedding is computed
        here per key; the type, pattern and style parts are shared across
        keys (:data:`_TYPE_PARTS`, :func:`_pattern_part`,
        :func:`_style_part`)."""
        parts: List[np.ndarray] = []
        if self._config.use_content_features:
            parts.append(self._semantic_features(cell))
            parts.append(_TYPE_PARTS[cell.cell_type])
            parts.append(_pattern_part(syntactic_pattern(cell.value)))
        else:
            parts.append(
                np.zeros(
                    self._content_dim + len(_CELL_TYPES) + _N_PATTERN_FEATURES,
                    dtype=np.float32,
                )
            )
        if self._config.use_style_features:
            try:
                parts.append(_style_part(cell.style))
            except TypeError:  # an unhashable field: computed, never cached
                parts.append(_style_part.__wrapped__(cell.style))
        else:
            parts.append(np.zeros(_N_STYLE_FEATURES, dtype=np.float32))
        parts.append(np.array([1.0 if valid else 0.0], dtype=np.float32))
        return np.concatenate(parts)
