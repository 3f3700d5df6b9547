"""The :class:`SheetEncoder`: featurization + trained models in one object.

The encoder is the one place a sheet or a region becomes a vector: the
pipeline, both extensions and the reference oracle call
:meth:`SheetEncoder.embed_sheet` and :meth:`SheetEncoder.embed_regions`
(the pipeline's S2 queries :meth:`SheetEncoder.embed_region_groups`, its
several-sheet form), which hide the featurizer, the two networks and the
fine model's reduced-tensor fast path.
"""

from __future__ import annotations

from itertools import accumulate
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.features import WindowFeaturizer
from repro.features.window import (
    MAX_CACHED_TARGET_SHEETS,
    MAX_CACHED_TENSOR_BYTES,
    gather_windows,
    sheet_cache,
)
from repro.models.config import ModelConfig
from repro.models.networks import build_coarse_model, build_fine_model
from repro.nn import Sequential
from repro.nn.layers import Dropout, Flatten, L2Normalize, Linear, ReLU, Tanh
from repro.sheet.addressing import CellAddress
from repro.sheet.sheet import Sheet

#: Layers that act independently on every cell of a window, so they commute
#: with window extraction (see :func:`_fast_path`).
_PER_CELL_LAYERS = (Linear, ReLU, Tanh, Dropout)


def _fast_path(model: Sequential):
    """``(per-cell prefix layers, normalizer)`` when ``model`` is per-cell
    all the way to a ``Flatten`` + ``L2Normalize`` tail, else ``None``.

    Such a model commutes with window extraction: applying the prefix to a
    sheet's padded feature tensor once and gathering windows in the reduced
    space gives the same embeddings as reducing every (heavily overlapping)
    window separately, at a fraction of the cost.  Architectures with
    spatial layers (conv / pooling) take the general per-window path.
    """
    layers = getattr(model, "layers", ())
    for index, layer in enumerate(layers):
        if isinstance(layer, Flatten):
            tail = layers[index + 1 :]
            if len(tail) == 1 and isinstance(tail[0], L2Normalize):
                return layers[:index], tail[0]
            return None
        if not isinstance(layer, _PER_CELL_LAYERS):
            return None
    return None


def _window_sq_norms(tensor: np.ndarray, window_rows: int, window_cols: int) -> np.ndarray:
    """Squared norm of every ``window_rows`` x ``window_cols`` block of
    ``tensor`` (flattened), by the block's top-left: each cell's squared
    norm in float32, then float64 sliding sums, one axis at a time.  Every
    term is non-negative, so no sum cancels and an all-zero block is
    exactly 0."""
    cells = np.einsum("ijk,ijk->ij", tensor, tensor).astype(np.float64)
    height = cells.shape[0] - window_rows + 1
    width = cells.shape[1] - window_cols + 1
    rows = cells[:height].copy()
    for offset in range(1, window_rows):
        rows += cells[offset : offset + height]
    grid = rows[:, :width].copy()
    for offset in range(1, window_cols):
        grid += rows[:, offset : offset + width]
    return grid


class _Reduced:
    """A sheet's ``reduced_tensors`` entry: the fine prefix applied to its
    padded tensor, and the squared norm of the flattened reduced window
    centred on each cell of the used extent — what the fine model's
    ``L2Normalize`` divides by, before its square root.  The norms are
    worked out on first use (S3 reads them; indexing a sheet does not).
    Both arrays are read-only; two threads that race to the norms compute
    equal grids and either is kept."""

    __slots__ = ("tensor", "_window", "_sq_norms")

    def __init__(self, tensor: np.ndarray, window: Tuple[int, int]) -> None:
        self.tensor = tensor
        self._window = window
        self._sq_norms: Optional[np.ndarray] = None

    @property
    def nbytes(self) -> int:
        """The tensor and its norm grid, counted before the grid is made,
        so the cache's byte bound holds either way."""
        height, width = self.tensor.shape[:2]
        return self.tensor.nbytes + 8 * (height - self._window[0] + 1) * (
            width - self._window[1] + 1
        )

    def window_sq_norms(self) -> np.ndarray:
        grid = self._sq_norms
        if grid is None:
            grid = _window_sq_norms(self.tensor, *self._window)
            grid.flags.writeable = False
            self._sq_norms = grid
        return grid


class SheetEncoder:
    """Embeds sheets (coarse) and regions (fine) with the trained models."""

    def __init__(
        self,
        config: Optional[ModelConfig] = None,
        coarse_model: Optional[Sequential] = None,
        fine_model: Optional[Sequential] = None,
        featurizer: Optional[WindowFeaturizer] = None,
    ) -> None:
        self.config = config or ModelConfig()
        self.featurizer = featurizer or WindowFeaturizer(self.config.features)
        cell_dim = self.featurizer.cell_featurizer.dimension
        self.coarse_model = coarse_model or build_coarse_model(self.config, cell_dim)
        self.fine_model = fine_model or build_fine_model(self.config, cell_dim)
        #: Model-reduced per-sheet tensors (the fine model's per-cell prefix
        #: applied to a sheet's padded feature tensor once, instead of once
        #: per overlapping window), with their window-norm grids.
        self._reduced_cache = sheet_cache(
            "reduced_tensors", MAX_CACHED_TARGET_SHEETS, MAX_CACHED_TENSOR_BYTES
        )
        self.weights_changed()

    def weights_changed(self) -> None:
        """Drop everything derived from the models' weights: the fast-path
        decision, the reduced padding and the reduced tensors.  :meth:`load`
        and :class:`~repro.models.TripletTrainer` call it; so must anything
        else that changes the models in place."""
        self._fast = _fast_path(self.fine_model)
        self._reduced_padding = None
        self._reduced_cache.clear()

    # ------------------------------------------------------------------- dims

    @property
    def coarse_dimension(self) -> int:
        """Dimensionality of coarse (sheet-level) embeddings."""
        return self.config.coarse_embedding_dim

    @property
    def fine_dimension(self) -> int:
        """Dimensionality of fine (region-level) embeddings."""
        return self.config.fine_embedding_dim

    # ------------------------------------------------------------------ embed

    def embed_sheet(self, sheet: Sheet, fine: bool = False) -> np.ndarray:
        """Embedding of a whole sheet: its one sheet window through the
        coarse model (the fine one with ``fine=True``), one sheet per
        forward — a stacked forward rounds every row differently."""
        window = self.featurizer.featurize_sheet(sheet)[None, ...]
        model = self.fine_model if fine else self.coarse_model
        return model.forward(window)[0]

    def embed_region(self, sheet: Sheet, center: CellAddress) -> np.ndarray:
        """Fine embedding of the window centered at ``center``."""
        return self.embed_regions(sheet, np.array([center.row]), np.array([center.col]))[0]

    def embed_regions(
        self,
        sheet: Sheet,
        rows: np.ndarray,
        cols: np.ndarray,
        blank_center: bool = False,
        coarse: bool = False,
    ) -> np.ndarray:
        """Embeddings of the windows centered on the cells
        ``(rows[i], cols[i])``: fine-model ones, or the coarse model's with
        ``coarse=True``.

        Only under the fine fast path (``coarse=False`` on a densifiable
        sheet) is a row independent of the other cells of the call: it is a
        gather from the sheet's reduced tensor and a per-row normalisation.
        S3's exact re-rank relies on that, embedding only the candidates
        its tier-1 slice keeps.  The window forwards — the coarse model's,
        and the fine model's over the densification budget — are
        batch-dependent (BLAS rounds a row differently in another batch),
        so the coarse-only S2 query gives each cell a forward of its own
        (:meth:`~repro.core.pipeline.AutoFormula.region_query_vectors`) and
        S3 embeds all of a formula's candidates in one call there.  A
        reference sheet's S2 rows and S3 block need no such property:
        every writer embeds the same cells in the same order in one call.

        ``blank_center`` masks the center cell of every window; the S2
        formula-region comparison uses this so that an already-filled
        reference cell and a still-empty target cell embed comparably.

        This is :meth:`embed_region_groups` of one sheet.
        """
        return self.embed_region_groups([(sheet, rows, cols)], blank_center, coarse)

    def embed_region_groups(
        self,
        groups: Sequence[Tuple[Sheet, np.ndarray, np.ndarray]],
        blank_center: bool = False,
        coarse: bool = False,
    ) -> np.ndarray:
        """:meth:`embed_regions` of several ``(sheet, rows, cols)`` groups at
        once, their rows stacked in group order.

        Under the fine fast path every group's windows are gathered from
        its sheet's reduced tensor and all of them go through one row-wise
        normalisation, so each row is the one the group alone gets.  A
        group the fast path does not take (``coarse=True``, a sheet over
        the densification budget) has a window forward of its own, as it
        has alone.
        """
        dimension = self.coarse_dimension if coarse else self.fine_dimension
        parts: List[Optional[np.ndarray]] = []
        gathered: List[np.ndarray] = []
        for sheet, rows, cols in groups:
            windows = None
            if not coarse and len(rows):
                windows = self._fast_windows(sheet, rows, cols, blank_center)
            if windows is not None:
                gathered.append(windows)
                parts.append(None)
            elif not len(rows):
                parts.append(np.zeros((0, dimension), dtype=np.float32))
            else:
                centers = [CellAddress(row, col) for row, col in zip(rows.tolist(), cols.tolist())]
                windows = self.featurizer.featurize_regions(sheet, centers, blank_center=blank_center)
                parts.append((self.coarse_model if coarse else self.fine_model).forward(windows))
        if gathered:
            stacked = gathered[0] if len(gathered) == 1 else np.concatenate(gathered)
            normalized = self._fast[1].forward(stacked, training=False)
            if len(gathered) == len(parts):
                return normalized
            starts = list(accumulate((len(windows) for windows in gathered), initial=0))
            fast = iter(normalized[start:stop] for start, stop in zip(starts, starts[1:]))
            parts = [next(fast) if part is None else part for part in parts]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # ----------------------------------------------------- fine-model fast path

    def _reduce(self, block: np.ndarray) -> np.ndarray:
        """The fine model's per-cell prefix applied to the rows of ``block``."""
        for layer in self._fast[0]:
            block = layer.forward(block, training=False)
        return block

    def _reduced_padding_features(self) -> np.ndarray:
        if self._reduced_padding is None:
            self._reduced_padding = self._reduce(self.featurizer.padding_features()[None, :])[0]
        return self._reduced_padding

    def _reduced_entry(self, sheet: Sheet) -> Optional[_Reduced]:
        """The sheet's reduced tensor (and window norms), memoized;
        ``None`` for a sheet over the densification budget.  The padded
        tensor is read only on a miss."""
        if not self.featurizer.densifiable(sheet):
            return None
        entry = self._reduced_cache.get(sheet)
        if entry is not None:
            return entry
        tensor = self.featurizer.padded_sheet_tensor(sheet)
        reduced = self._reduce(tensor.reshape(-1, tensor.shape[-1])).reshape(*tensor.shape[:2], -1)
        reduced = np.ascontiguousarray(reduced)
        reduced.flags.writeable = False
        window = (self.featurizer.config.window_rows, self.featurizer.config.window_cols)
        return self._reduced_cache.put(sheet, _Reduced(reduced, window))

    def _fast_windows(
        self, sheet: Sheet, center_rows: np.ndarray, center_cols: np.ndarray, blank_center: bool
    ) -> Optional[np.ndarray]:
        """The flattened reduced windows of the fine fast path, one row per
        centre, that its ``L2Normalize`` turns into region embeddings; or
        ``None`` when the fast path does not apply."""
        if self._fast is None:
            return None
        entry = self._reduced_entry(sheet)
        if entry is None:
            return None
        rows, cols = self.featurizer.config.window_rows, self.featurizer.config.window_cols
        padding = self._reduced_padding_features()
        windows = gather_windows(
            entry.tensor, center_rows, center_cols, sheet.n_rows, sheet.n_cols, rows, cols, padding
        )
        if blank_center:
            windows[:, rows // 2, cols // 2] = padding
        return windows.reshape(len(center_rows), -1)

    def region_products(
        self,
        sheet: Sheet,
        origins: np.ndarray,
        shape: Tuple[int, int],
        references: np.ndarray,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """S3's tier-1 terms, read off the reduced tensor without forming a
        window: for the cells of each ``shape`` box of centres with top-left
        ``origins[k]`` (inside the sheet's used extent), as ``(box, row,
        col)`` float64 arrays, the dot products of the fine embeddings
        :meth:`embed_regions` gives them with ``references[k]`` (box
        ``k``'s), and those embeddings' squared norms.  Each is
        within float32 rounding of a length-``D`` accumulation of the
        embedding's own (DESIGN.md "S3 — parameter re-grounding").
        ``None`` when the fine fast path does not apply to the sheet or the
        box shape does not fit in its extent (an empty axis).

        A window's flattened reduced vector ``u`` is ``window_rows`` strips
        of ``window_cols`` cells, and its embedding is ``u / (||u|| +
        eps)``.  The strips of a box's windows centred in one column are
        one run of tensor rows: every box's runs are gathered into one
        array, and one stacked product with the boxes' reference strips
        gives each ``u . r`` as a sum along a diagonal; ``||u||^2`` is read
        off the entry's window-norm grid.
        """
        if self._fast is None:
            return None
        entry = self._reduced_entry(sheet)
        if entry is None:
            return None
        tensor, grid = entry.tensor, entry.window_sq_norms()
        height, width = shape
        if height > grid.shape[0] or width > grid.shape[1]:
            return None
        window_rows = self.featurizer.config.window_rows
        strip = self.featurizer.config.window_cols * tensor.shape[2]
        n_boxes, span = len(origins), height + window_rows - 1
        row_stride, col_stride, item_stride = tensor.strides
        # runs[y, x, t, b]: the strip at padded row y + t of the windows
        # centred in column x + b (a view of the tensor).
        runs = np.ndarray(
            (grid.shape[0] - height + 1, grid.shape[1] - width + 1, span, width, strip),
            np.float32,
            tensor,
            0,
            (row_stride, col_stride, row_stride, col_stride, item_stride),
        )[origins[:, 0], origins[:, 1]]
        # Reference strips as columns, contiguous: the stacked product then
        # runs one sgemm per box.
        partial = np.matmul(
            runs.reshape(n_boxes, span * width, strip),
            np.ascontiguousarray(references.reshape(n_boxes, window_rows, strip).transpose(0, 2, 1)),
        )
        # The window centred at (row + a, col + b) of box k is the sum of
        # partial[k, a + i, b, i] over its strips i.
        box, run, column, item = partial.reshape(n_boxes, span, width, window_rows).strides
        diagonals = np.ndarray(
            (n_boxes, height, width, window_rows),
            np.float32,
            partial,
            0,
            (box, run, column, run + item),
        )
        grid_rows, grid_cols = grid.strides
        squares = np.ndarray(
            (grid.shape[0] - height + 1, grid.shape[1] - width + 1, height, width),
            grid.dtype,
            grid,
            0,
            (grid_rows, grid_cols, grid_rows, grid_cols),
        )[origins[:, 0], origins[:, 1]]
        norms = np.sqrt(squares) + self._fast[1].epsilon
        return diagonals.sum(axis=3) / norms, squares / (norms * norms)

    # ------------------------------------------------------------ persistence

    def save(self, directory: Union[str, Path]) -> None:
        """Persist both models' parameters under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.coarse_model.save(directory / "coarse.npz")
        self.fine_model.save(directory / "fine.npz")

    def load(self, directory: Union[str, Path]) -> None:
        """Load parameters previously written by :meth:`save`."""
        directory = Path(directory)
        self.coarse_model.load(directory / "coarse.npz")
        self.fine_model.load(directory / "fine.npz")
        self.weights_changed()
