"""The :class:`SheetEncoder`: featurization + trained models in one object.

The encoder is the one place a sheet or a region becomes a vector: the
pipeline, both extensions and the reference oracle call
:meth:`SheetEncoder.embed_sheet` and :meth:`SheetEncoder.embed_regions`,
which hide the featurizer, the two networks and the fine model's
reduced-tensor fast path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

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
        #: per overlapping window).
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
        ``coarse=True``.  A row does not depend on the other cells of the
        call.

        ``blank_center`` masks the center cell of every window; the S2
        formula-region comparison uses this so that an already-filled
        reference cell and a still-empty target cell embed comparably.
        """
        if not len(rows):
            dimension = self.coarse_dimension if coarse else self.fine_dimension
            return np.zeros((0, dimension), dtype=np.float32)
        if not coarse:
            vectors = self._fast_regions(sheet, rows, cols, blank_center)
            if vectors is not None:
                return vectors
        centers = [CellAddress(row, col) for row, col in zip(rows.tolist(), cols.tolist())]
        windows = self.featurizer.featurize_regions(sheet, centers, blank_center=blank_center)
        return (self.coarse_model if coarse else self.fine_model).forward(windows)

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

    def _reduced_sheet_tensor(self, sheet: Sheet) -> Optional[np.ndarray]:
        """The fine prefix applied to the sheet's padded tensor, memoized;
        ``None`` for a sheet over the densification budget.  The padded
        tensor is read only on a miss."""
        if not self.featurizer.densifiable(sheet):
            return None
        reduced = self._reduced_cache.get(sheet)
        if reduced is not None:
            return reduced
        tensor = self.featurizer.padded_sheet_tensor(sheet)
        reduced = self._reduce(tensor.reshape(-1, tensor.shape[-1])).reshape(*tensor.shape[:2], -1)
        reduced.flags.writeable = False
        return self._reduced_cache.put(sheet, reduced)

    def _fast_regions(
        self, sheet: Sheet, center_rows: np.ndarray, center_cols: np.ndarray, blank_center: bool
    ) -> Optional[np.ndarray]:
        """Fine region embeddings via the reduced per-sheet tensor, or
        ``None`` when the fast path does not apply."""
        if self._fast is None:
            return None
        reduced = self._reduced_sheet_tensor(sheet)
        if reduced is None:
            return None
        rows, cols = self.featurizer.config.window_rows, self.featurizer.config.window_cols
        padding = self._reduced_padding_features()
        windows = gather_windows(
            reduced, center_rows, center_cols, sheet.n_rows, sheet.n_cols, rows, cols, padding
        )
        if blank_center:
            windows[:, rows // 2, cols // 2] = padding
        return self._fast[1].forward(windows.reshape(len(center_rows), -1), training=False)

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
