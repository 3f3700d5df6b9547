"""The :class:`Workbook`: an ordered collection of named sheets.

Workbooks correspond to ``.xlsx`` files in the paper.  The ordered sequence
of sheet names is the signal used by the weak-supervision hypothesis test
(Section 4.2), so the workbook preserves insertion order and exposes the
name sequence directly.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional

from repro.sheet.sheet import SealedError, Sheet


def _timestamp(value: object) -> float:
    """``value`` as a finite float; ``ValueError`` for anything else (a
    ``bool``, text, ``None``, an infinity, NaN)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ValueError(f"last_modified must be a finite number of seconds, got {value!r}")


class Workbook:
    """An ordered collection of :class:`Sheet` objects with unique names.

    A workbook a workspace holds is sealed with its sheets (see
    :class:`~repro.sheet.sheet.Sheet`): :meth:`add_sheet` raises
    :class:`~repro.sheet.sheet.SealedError`.
    """

    def __init__(self, name: str = "workbook", last_modified: float = 0.0) -> None:
        self._name = name
        self._last_modified = _timestamp(last_modified)
        self._sheets: Dict[str, Sheet] = {}
        self._sealed = False

    @property
    def name(self) -> str:
        """Workbook (file) name, e.g. ``"fy23_budget.xlsx"`` (fixed at
        construction)."""
        return self._name

    @property
    def last_modified(self) -> float:
        """Last-modified timestamp in seconds, a finite float (fixed at
        construction); used for timestamp-based splits."""
        return self._last_modified

    # ------------------------------------------------------------------ sheets

    def add_sheet(self, sheet_or_name) -> Sheet:
        """Add a sheet (or create one by name) and return it."""
        if self._sealed:
            raise SealedError(
                f"workbook {self._name!r} belongs to a workspace; it takes no new sheets"
            )
        sheet = sheet_or_name if isinstance(sheet_or_name, Sheet) else Sheet(str(sheet_or_name))
        if sheet.name in self._sheets:
            raise ValueError(f"duplicate sheet name: {sheet.name!r}")
        self._sheets[sheet.name] = sheet
        return sheet

    def get_sheet(self, name: str) -> Sheet:
        """Return the sheet called ``name`` (raises ``KeyError`` if missing)."""
        return self._sheets[name]

    def __getitem__(self, name: str) -> Sheet:
        return self.get_sheet(name)

    def __contains__(self, name: str) -> bool:
        return name in self._sheets

    def __iter__(self) -> Iterator[Sheet]:
        return iter(self._sheets.values())

    def __len__(self) -> int:
        return len(self._sheets)

    @property
    def sheets(self) -> List[Sheet]:
        """Sheets in insertion order."""
        return list(self._sheets.values())

    @property
    def sheet_names(self) -> List[str]:
        """Sheet names in insertion order (the weak-supervision signal)."""
        return list(self._sheets.keys())

    def copy(self, name: Optional[str] = None) -> "Workbook":
        """An unsealed copy: fresh sheets sharing the (immutable) cells.

        A workspace seals what it holds and edits it in place; adding a
        copy keeps the original writable and pristine, so two replays of
        one workload start from identical corpus state.
        """
        clone = Workbook(name or self._name, last_modified=self.last_modified)
        for sheet in self:
            clone.add_sheet(sheet.copy())
        return clone

    def _seal(self, sealed: bool) -> None:
        """Seal (or unseal) the workbook and its sheets: what a workspace
        does on adding (removing) it."""
        self._sealed = sealed
        for sheet in self._sheets.values():
            sheet._sealed = sealed

    # ------------------------------------------------------------------- stats

    def n_formulas(self) -> int:
        """Total number of formula cells across all sheets."""
        return sum(sheet.n_formulas() for sheet in self._sheets.values())

    def n_cells(self) -> int:
        """Total number of stored cells across all sheets."""
        return sum(sheet.n_cells for sheet in self._sheets.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Workbook(name={self._name!r}, sheets={self.sheet_names})"
