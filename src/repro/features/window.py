"""View-window extraction: regions and whole sheets as input tensors."""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.cache import LRU
from repro.features.cell_features import CellFeaturizer
from repro.features.config import FeatureConfig
from repro.sheet.addressing import CellAddress
from repro.sheet.cell import EMPTY_CELL
from repro.sheet.sheet import Sheet

#: Padded-tensor byte budget above which a sheet is featurized window by
#: window instead of densified.  Counted in bytes of the dense tensor (cells
#: x feature dim x 4), so both huge extents and sparse sheets with far-flung
#: cells (tiny stored count, enormous bounding box) fall back to the sparse
#: path instead of materializing hundreds of megabytes.
_MAX_DENSE_BYTES = 1 << 25  # 32 MiB per sheet tensor
#: Sheets whose padded tensors are kept per featurizer.
_MAX_CACHED_SHEETS = 64
#: Byte budget of a cache of per-sheet tensors (the padded tensors here,
#: the pipeline's reduced tensors), beside its entry bound: entries alone
#: would admit ``_MAX_CACHED_SHEETS * _MAX_DENSE_BYTES`` = 2 GiB of two-cell
#: sheets with far-flung cells.  9x the largest footprint the benchmark
#: corpora reach at 64 entries (29.3 MiB), so no measured workload meets it.
MAX_CACHED_TENSOR_BYTES = 1 << 28  # 256 MiB


def sheet_cache(name: str, max_entries: int, max_bytes: Optional[int] = None) -> LRU:
    """An :class:`~repro.cache.LRU` of per-sheet values: keyed by sheet
    identity (the entry pins the sheet) and valid only for the
    ``sheet.version`` it was filled at, so a sheet mutated in place misses
    and nothing derived from its earlier content is served."""
    return LRU(name, max_entries, max_bytes, token_of=attrgetter("version"))


def region_window_bounds(
    center: CellAddress, window_rows: int, window_cols: int
) -> Tuple[int, int]:
    """Top-left ``(row, col)`` of a window centered on ``center``.

    The window is *always* centered on the cell, even near the sheet
    boundary: positions that fall outside the sheet (negative rows/columns
    or past the used extent) are represented as invalid padding cells,
    mirroring Figure 5 of the paper.  Keeping the center fixed is what makes
    the fine-grained representation sensitive to one-cell shifts near the
    edges of a sheet.
    """
    top = center.row - window_rows // 2
    left = center.col - window_cols // 2
    return top, left


def sheet_window_bounds() -> Tuple[int, int]:
    """Top-left of the window representing a whole sheet (always (0, 0))."""
    return 0, 0


def window_from_padded(
    tensor: np.ndarray,
    row0: int,
    col0: int,
    window_rows: int,
    window_cols: int,
    padding_vector: np.ndarray,
) -> np.ndarray:
    """One window whose top-left sits at padded coordinates (row0, col0).

    Parts of the window that fall outside the tensor read as
    ``padding_vector``.  Works for any per-sheet tensor in any vector space
    (raw cell features or model-reduced features).
    """
    window = np.empty((window_rows, window_cols, tensor.shape[-1]), dtype=np.float32)
    window[:] = padding_vector
    row_lo, row_hi = max(row0, 0), min(row0 + window_rows, tensor.shape[0])
    col_lo, col_hi = max(col0, 0), min(col0 + window_cols, tensor.shape[1])
    if row_lo < row_hi and col_lo < col_hi:
        window[row_lo - row0 : row_hi - row0, col_lo - col0 : col_hi - col0] = tensor[
            row_lo:row_hi, col_lo:col_hi
        ]
    return window


def _window_blocks(tensor: np.ndarray, window_rows: int, window_cols: int) -> np.ndarray:
    """Every ``window_rows`` x ``window_cols`` block of ``tensor`` as a
    read-only ``(row, col, window_row, window_col, dim)`` strided view;
    ``[row, col]`` is the block whose top-left sits there.  Bounds-checked
    like any array: the leading extents are exactly the positions at which
    a whole block lies inside the tensor."""
    height, width, dim = tensor.shape
    row_stride, col_stride, dim_stride = tensor.strides
    return as_strided(
        tensor,
        (height - window_rows + 1, width - window_cols + 1, window_rows, window_cols, dim),
        (row_stride, col_stride, row_stride, col_stride, dim_stride),
        writeable=False,
    )


def gather_windows(
    tensor: np.ndarray,
    center_rows: np.ndarray,
    center_cols: np.ndarray,
    n_rows: int,
    n_cols: int,
    window_rows: int,
    window_cols: int,
    padding_vector: np.ndarray,
) -> np.ndarray:
    """All windows in one vectorized gather from a padded per-sheet tensor.

    The windows are centered on the cells ``(center_rows[i], center_cols[i])``.
    ``tensor`` must have a ``window_rows // 2`` / ``window_cols // 2`` border
    around the sheet's ``n_rows`` x ``n_cols`` used extent, so a window
    centered on an in-extent cell is exactly the tensor block whose top-left
    padded coordinate equals the center's sheet coordinate.  Blocks are read
    through :func:`_window_blocks`, so the common case — every center in the
    extent — is one fancy-indexed copy, made in the layout it is returned
    in.  Centers outside the used extent (a query on an empty part of the
    sheet) fall back to a per-window rectangle copy against the same tensor.

    The result is a private, writable, C-contiguous array: callers blank
    centers in it and flatten it without another copy.
    """
    in_extent = (
        (center_rows >= 0) & (center_rows < n_rows) & (center_cols >= 0) & (center_cols < n_cols)
    )
    outside = np.flatnonzero(~in_extent)
    if len(center_rows) and not len(outside):
        blocks = _window_blocks(tensor, window_rows, window_cols)
        return np.ascontiguousarray(blocks[center_rows, center_cols], dtype=np.float32)
    windows = np.empty(
        (len(center_rows), window_rows, window_cols, tensor.shape[-1]), dtype=np.float32
    )
    inside = np.flatnonzero(in_extent)
    if len(inside):
        blocks = _window_blocks(tensor, window_rows, window_cols)
        windows[inside] = blocks[center_rows[inside], center_cols[inside]]
    for position in outside:
        # Padded coordinates of a window's top-left are its center's sheet
        # coordinates: the border is half a window wide.
        windows[position] = window_from_padded(
            tensor,
            int(center_rows[position]),
            int(center_cols[position]),
            window_rows,
            window_cols,
            padding_vector,
        )
    return windows


class WindowFeaturizer:
    """Builds ``(window_rows, window_cols, cell_dim)`` tensors from sheets.

    Windows on the same sheet overlap heavily (every formula cell gets its
    own region window), so each sheet is featurized *once* into a padded
    per-sheet feature tensor — interior cells carry their real features,
    the border carries invalid-padding features — and every window is then
    a vectorized gather from that tensor.  Tensors live in a
    :func:`sheet_cache` bounded by entries and by bytes.  Call
    :meth:`clear_cache` between unrelated workloads to release memory early.
    """

    def __init__(
        self,
        config: Optional[FeatureConfig] = None,
        featurizer: Optional[CellFeaturizer] = None,
    ) -> None:
        self.config = config or FeatureConfig()
        self.cell_featurizer = featurizer or CellFeaturizer(self.config)
        #: Padded per-sheet feature tensors.
        self._tensor_cache = sheet_cache(
            "sheet_tensors", _MAX_CACHED_SHEETS, MAX_CACHED_TENSOR_BYTES
        )
        self._padding_vector: Optional[np.ndarray] = None
        self._empty_vector: Optional[np.ndarray] = None

    @property
    def window_shape(self) -> Tuple[int, int, int]:
        """Shape of a single window tensor."""
        return (self.config.window_rows, self.config.window_cols, self.cell_featurizer.dimension)

    def clear_cache(self) -> None:
        """Drop all memoized per-sheet feature tensors."""
        self._tensor_cache.clear()

    def _padding_features(self) -> np.ndarray:
        if self._padding_vector is None:
            self._padding_vector = self.cell_featurizer.featurize(EMPTY_CELL, valid=False)
        return self._padding_vector

    def padding_features(self) -> np.ndarray:
        """Feature vector of an out-of-bounds (invalid) padding cell."""
        return self._padding_features()

    def _empty_features(self) -> np.ndarray:
        if self._empty_vector is None:
            self._empty_vector = self.cell_featurizer.featurize(EMPTY_CELL, valid=True)
        return self._empty_vector

    # ------------------------------------------------------- per-sheet tensor

    def _padded_shape(self, sheet: Sheet) -> Tuple[int, int]:
        rows, cols = self.config.window_rows, self.config.window_cols
        return sheet.n_rows + rows - 1, sheet.n_cols + cols - 1

    def _build_tensor(self, sheet: Sheet) -> np.ndarray:
        """Padded feature tensor: a ``window_rows//2`` / ``window_cols//2``
        border of invalid-padding cells around the sheet's used extent.

        The stored cells are walked once, in storage order, featurized
        against the cell cache in one transaction
        (:meth:`CellFeaturizer.featurize_many`) and written with one scatter;
        the result equals a cell-by-cell ``featurize`` loop byte for byte.
        """
        rows, cols = self.config.window_rows, self.config.window_cols
        pad_row, pad_col = rows // 2, cols // 2
        height, width = self._padded_shape(sheet)
        tensor = np.empty((height, width, self.cell_featurizer.dimension), dtype=np.float32)
        tensor[:] = self._padding_features()
        interior = tensor[pad_row : pad_row + sheet.n_rows, pad_col : pad_col + sheet.n_cols]
        interior[:] = self._empty_features()
        stored = sheet.items()
        if stored:
            addresses, cells = zip(*stored)
            interior[
                [address.row for address in addresses], [address.col for address in addresses]
            ] = np.array(self.cell_featurizer.featurize_many(cells))
        return tensor

    def _sheet_tensor(self, sheet: Sheet) -> np.ndarray:
        tensor = self._tensor_cache.get(sheet)
        if tensor is None:
            tensor = self._build_tensor(sheet)
            # Shared by every request on the sheet until its next edit.
            tensor.flags.writeable = False
            tensor = self._tensor_cache.put(sheet, tensor)
        return tensor

    def _densifiable(self, sheet: Sheet) -> bool:
        height, width = self._padded_shape(sheet)
        return height * width * self.cell_featurizer.dimension * 4 <= _MAX_DENSE_BYTES

    def padded_sheet_tensor(self, sheet: Sheet) -> Optional[np.ndarray]:
        """The cached padded feature tensor of ``sheet``, or ``None`` when
        the sheet exceeds the densification budget.

        Exposed so callers can derive their own per-sheet tensors (e.g. the
        pipeline's model-reduced tensors) from the same featurization.
        """
        if not self._densifiable(sheet):
            return None
        return self._sheet_tensor(sheet)

    def _window_sparse(self, sheet: Sheet, top: int, left: int) -> np.ndarray:
        """Cell-by-cell assembly for sheets too large to densify."""
        rows, cols = self.config.window_rows, self.config.window_cols
        tensor = np.zeros(self.window_shape, dtype=np.float32)
        n_rows, n_cols = sheet.n_rows, sheet.n_cols
        padding = self._padding_features()
        empty = self._empty_features()
        for row_offset in range(rows):
            row = top + row_offset
            for col_offset in range(cols):
                col = left + col_offset
                if 0 <= row < n_rows and 0 <= col < n_cols:
                    cell = sheet.get((row, col))
                    if cell is EMPTY_CELL:
                        tensor[row_offset, col_offset] = empty
                    else:
                        tensor[row_offset, col_offset] = self.cell_featurizer.featurize(
                            cell, valid=True
                        )
                else:
                    tensor[row_offset, col_offset] = padding
        return tensor

    # -------------------------------------------------------------- windowing

    def featurize_region(
        self, sheet: Sheet, center: CellAddress, blank_center: bool = False
    ) -> np.ndarray:
        """Window tensor for the region centered on ``center``.

        ``blank_center=True`` replaces the center cell's features with the
        invalid-padding vector.  The online pipeline uses this for the S2
        formula-region comparison: the target cell is empty (the user has not
        written the formula yet) while the reference cell holds a computed
        value, so masking the center on both sides makes their surrounding
        regions directly comparable.
        """
        return self.featurize_regions(sheet, [center], blank_center=blank_center)[0]

    def featurize_sheet(self, sheet: Sheet) -> np.ndarray:
        """Window tensor representing the whole sheet (top-left anchored)."""
        top, left = sheet_window_bounds()
        rows, cols = self.config.window_rows, self.config.window_cols
        if not self._densifiable(sheet):
            return self._window_sparse(sheet, top, left)
        tensor = self._sheet_tensor(sheet)
        # Padded coordinates of a window are its sheet coordinates shifted by
        # the border width.
        return window_from_padded(
            tensor, top + rows // 2, left + cols // 2, rows, cols, self._padding_features()
        )

    def featurize_regions(self, sheet: Sheet, centers, blank_center: bool = False) -> np.ndarray:
        """Stack of window tensors, one per center address."""
        centers = list(centers)
        rows, cols, dim = self.window_shape
        if not centers:
            return np.zeros((0, rows, cols, dim), dtype=np.float32)
        if not self._densifiable(sheet):
            windows = np.stack(
                [
                    self._window_sparse(sheet, *region_window_bounds(center, rows, cols))
                    for center in centers
                ]
            )
        else:
            windows = gather_windows(
                self._sheet_tensor(sheet),
                np.array([center.row for center in centers], dtype=np.int64),
                np.array([center.col for center in centers], dtype=np.int64),
                sheet.n_rows,
                sheet.n_cols,
                rows,
                cols,
                self._padding_features(),
            )
        if blank_center:
            windows[:, rows // 2, cols // 2] = self._padding_features()
        return windows
