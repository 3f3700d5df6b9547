"""Per-cell feature vectors: content features and style features."""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import RowTable, memoized
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
#: Feature vectors kept per featurizer (rows of its table).  The benchmark
#: corpora hold 6 163 - 18 430 distinct cell keys.
_MAX_CACHED_CELLS = 100_000
#: Style objects pinned, and style field tuples numbered, per featurizer; a
#: table over the bound is cleared.  The largest benchmark corpus (TI x6)
#: carries 2 348 style objects of 16 distinct values.
_MAX_STYLES = 16_384
#: A style's fields as one tuple, which C hashes and compares (the frozen
#: dataclass itself does both in Python, per lookup).
_style_fields = attrgetter(*CellStyle.__dataclass_fields__)

#: The cell-type parts: row ``_TYPE_INDEX[cell_type]`` is that type's one-hot.
_ONE_HOTS = np.eye(len(_CELL_TYPES), dtype=np.float32)
_ONE_HOTS.setflags(write=False)
_TYPE_INDEX = {cell_type: index for index, cell_type in enumerate(_CELL_TYPES)}


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
    share a style number (:meth:`CellFeaturizer._style_number`: equal
    fields): a ``font_size`` of 11 or 11.0, a ``bold`` of 1 or True, which
    truth and float arithmetic turn into the same features."""
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


def _style_row(style: CellStyle) -> np.ndarray:
    try:
        return _style_part(style)
    except TypeError:  # an unhashable field: computed, never memoized
        return _style_part.__wrapped__(style)


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
        #: Feature vectors, one row per cell *content* that determines one:
        #: (value, has-formula, style, validity).  Corpora repeat the same
        #: headers, labels and styles across thousands of cells, so this
        #: removes most per-cell work (text embedding included).  One
        #: featurizer is shared by every concurrent serving thread driving
        #: the same encoder.
        self._table = RowTable("cell_features", _MAX_CACHED_CELLS, self.dimension)
        #: ``id(style)`` -> (the style, its number); the entry pins the style
        #: so its ``id()`` is not handed to another object while it lives.
        self._pinned_styles: Dict[int, Tuple[CellStyle, Optional[int]]] = {}
        #: Style field tuple -> its number: equal styles share one.
        self._style_numbers: Dict[tuple, int] = {}
        self._next_style_number = itertools.count()

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

    def _style_number(self, style: CellStyle) -> Optional[int]:
        """Number ``style`` by its fields (``None`` when one is unhashable)
        and pin it under its identity.  Numbers are never handed out twice,
        so clearing either table orphans table rows and aliases none."""
        numbers = self._style_numbers
        fields = _style_fields(style)
        try:
            number = numbers.get(fields)
            if number is None:
                if len(numbers) >= _MAX_STYLES:
                    numbers.clear()
                number = numbers.setdefault(fields, next(self._next_style_number))
        except TypeError:
            number = None
        pinned = self._pinned_styles
        if len(pinned) >= _MAX_STYLES:
            pinned.clear()
        pinned[id(style)] = (style, number)
        return number

    def _keys(self, cells: Sequence[Cell], valid: bool) -> List[Optional[tuple]]:
        """The table key of each cell — the content that determines its
        vector — or ``None`` for a cell that cannot be keyed (an unhashable
        exotic value or style field): that one is never held, reads as a
        miss and is computed on every call.

        C hashes and compares every part of a key.  A style contributes a
        small integer, found by the style object's identity; only a style
        object met for the first time has its twelve fields read and hashed.
        """
        pinned = self._pinned_styles
        keys: List[Optional[tuple]] = []
        for cell in cells:
            value, style = cell.value, cell.style
            entry = pinned.get(id(style))
            number = self._style_number(style) if entry is None else entry[1]
            try:
                hash(value)  # cheap (a string keeps its hash); the key's own is not
            except TypeError:
                number = None
            # The type disambiguates 1 / 1.0 / True, which compare (and hash)
            # equal as dict keys but featurize differently.
            keys.append(
                None if number is None else (type(value), value, bool(cell.formula), number, valid)
            )
        return keys

    def featurize(self, cell: Cell, valid: bool = True) -> np.ndarray:
        """Full feature vector for a single cell: a one-cell
        :meth:`featurize_many`, returned read-only."""
        vector = self.featurize_many((cell,), valid)[0]
        vector.setflags(write=False)
        return vector

    def featurize_many(self, cells: Sequence[Cell], valid: bool = True) -> np.ndarray:
        """The vectors of ``cells``, in order, as a private ``(len(cells),
        dimension)`` matrix.

        Every cell is looked up in the table in one read (one lookup counted
        per cell); the keys that miss are featurized together in one
        :meth:`_featurize_batch`, a key that misses more than once computed
        once, and written to the table.
        """
        keys = self._keys(cells, valid)
        vectors, missed = self._table.read(keys)
        if len(missed):
            # Distinct missed key -> its row in the batch; a cell with no
            # key gets a row of its own.
            batch_row: Dict[object, int] = {}
            batch: List[Cell] = []
            rows = []
            for position in missed.tolist():
                key = keys[position]
                row = batch_row.get(key) if key is not None else None
                if row is None:
                    row = len(batch)
                    batch.append(cells[position])
                    if key is not None:
                        batch_row[key] = row
                rows.append(row)
            fresh = self._featurize_batch(batch, valid)
            vectors[missed] = fresh[rows]
            self._table.write(batch_row, fresh[list(batch_row.values())])
        return vectors

    def _featurize_batch(self, cells: Sequence[Cell], valid: bool) -> np.ndarray:
        """The vectors of ``cells``, built part by part for all of them at
        once: one :meth:`~repro.embedding.TextEmbedder.embed_batch` of the
        non-empty texts, then one column-block write each for the type,
        pattern and style parts (rows of :data:`_ONE_HOTS` and of the
        :func:`_pattern_part` / :func:`_style_part` memos).  Disabled groups
        stay zero."""
        vectors = np.zeros((len(cells), self.dimension), dtype=np.float32)
        type_start = self._content_dim
        pattern_start = type_start + len(_CELL_TYPES)
        style_start = pattern_start + _N_PATTERN_FEATURES
        if self._config.use_content_features:
            texts = [cell.display_text() for cell in cells]
            written = [row for row, text in enumerate(texts) if text]
            if written:
                embedded = self._embedder.embed_batch([texts[row] for row in written])
                width = min(embedded.shape[1], self._content_dim)
                vectors[written, :width] = embedded[:, :width]
            vectors[:, type_start:pattern_start] = _ONE_HOTS[
                [_TYPE_INDEX[cell.cell_type] for cell in cells]
            ]
            vectors[:, pattern_start:style_start] = [
                _pattern_part(syntactic_pattern(cell.value)) for cell in cells
            ]
        if self._config.use_style_features:
            vectors[:, style_start : style_start + _N_STYLE_FEATURES] = [
                _style_row(cell.style) for cell in cells
            ]
        if valid:
            vectors[:, -1] = 1.0
        return vectors
