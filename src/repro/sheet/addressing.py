"""A1-style cell and range addressing.

Spreadsheet formulas reference other cells using the familiar ``A1``
notation (column letters followed by a 1-based row number) and ranges such
as ``C7:C37``.  Internally the library works with 0-based ``(row, col)``
integer coordinates; this module converts between the two representations
and provides small value objects for addresses and ranges.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.cache import memoized

_CELL_RE = re.compile(r"^(\$?)([A-Za-z]{1,3})(\$?)([0-9]+)$")
_RANGE_RE = re.compile(
    r"^(\$?[A-Za-z]{1,3}\$?[0-9]+):(\$?[A-Za-z]{1,3}\$?[0-9]+)$"
)


#: Columns A–Z, the answer for almost every cell a sheet is written from.
_SINGLE_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class AddressError(ValueError):
    """Raised when a cell or range reference cannot be parsed."""


def column_letters_to_index(letters: str) -> int:
    """Convert column letters (``"A"``, ``"AB"``) to a 0-based column index.

    >>> column_letters_to_index("A")
    0
    >>> column_letters_to_index("Z")
    25
    >>> column_letters_to_index("AA")
    26
    """
    if not letters or not letters.isalpha():
        raise AddressError(f"invalid column letters: {letters!r}")
    index = 0
    for char in letters.upper():
        index = index * 26 + (ord(char) - ord("A") + 1)
    return index - 1


def column_index_to_letters(index: int) -> str:
    """Convert a 0-based column index to column letters.

    >>> column_index_to_letters(0)
    'A'
    >>> column_index_to_letters(26)
    'AA'
    """
    if 0 <= index < 26:
        return _SINGLE_LETTERS[index]
    if index < 0:
        raise AddressError(f"column index must be non-negative, got {index}")
    letters = []
    remaining = index + 1
    while remaining > 0:
        remaining, digit = divmod(remaining - 1, 26)
        letters.append(chr(ord("A") + digit))
    return "".join(reversed(letters))


def cell_a1(row: int, col: int) -> str:
    """The A1 text of the cell at 0-based ``(row, col)``.

    >>> cell_a1(40, 2)
    'C41'
    """
    return f"{column_index_to_letters(col)}{row + 1}"


class CellAddress(namedtuple("CellAddress", ("row", "col"))):
    """A single cell location as 0-based ``(row, col)`` coordinates.

    A tuple, so it hashes, compares and orders as ``(row, col)`` does, in C,
    and equals that plain tuple: ``CellAddress(2, 3) == (2, 3)``.  A
    negative coordinate raises :class:`AddressError`.
    """

    __slots__ = ()

    def __new__(cls, row: int, col: int) -> "CellAddress":
        if row < 0 or col < 0:
            raise AddressError(f"cell coordinates must be non-negative, got ({row}, {col})")
        return tuple.__new__(cls, (row, col))

    @classmethod
    def _make(cls, iterable) -> "CellAddress":
        return cls(*iterable)

    @classmethod
    def from_a1(cls, text: str) -> "CellAddress":
        """Parse an A1-style reference such as ``"C41"`` or ``"$C$41"``."""
        return parse_cell_address(text)

    def to_a1(self) -> str:
        """Render the address in A1 notation."""
        return cell_a1(*self)

    def shifted(self, row_delta: int, col_delta: int) -> "CellAddress":
        """Return a new address displaced by the given row/column deltas."""
        return CellAddress(self.row + row_delta, self.col + col_delta)

    def offset_from(self, other: "CellAddress") -> Tuple[int, int]:
        """Return ``(row_delta, col_delta)`` from ``other`` to this address."""
        return (self.row - other.row, self.col - other.col)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.to_a1()


@dataclass(frozen=True)
class RangeAddress:
    """A rectangular cell range, normalized so start <= end on both axes."""

    start: CellAddress
    end: CellAddress

    def __post_init__(self) -> None:
        if self.start.row > self.end.row or self.start.col > self.end.col:
            normalized_start = CellAddress(
                min(self.start.row, self.end.row), min(self.start.col, self.end.col)
            )
            normalized_end = CellAddress(
                max(self.start.row, self.end.row), max(self.start.col, self.end.col)
            )
            object.__setattr__(self, "start", normalized_start)
            object.__setattr__(self, "end", normalized_end)

    @classmethod
    def from_a1(cls, text: str) -> "RangeAddress":
        """Parse an A1-style range such as ``"C7:C37"``."""
        return parse_range_address(text)

    def to_a1(self) -> str:
        """Render the range in A1 notation."""
        return f"{self.start.to_a1()}:{self.end.to_a1()}"

    @property
    def n_rows(self) -> int:
        return self.end.row - self.start.row + 1

    @property
    def n_cols(self) -> int:
        return self.end.col - self.start.col + 1

    @property
    def size(self) -> int:
        return self.n_rows * self.n_cols

    def contains(self, address: CellAddress) -> bool:
        """Whether ``address`` falls inside this range."""
        return (
            self.start.row <= address.row <= self.end.row
            and self.start.col <= address.col <= self.end.col
        )

    def cells(self) -> Iterator[CellAddress]:
        """Iterate over all cell addresses in row-major order."""
        for row in range(self.start.row, self.end.row + 1):
            for col in range(self.start.col, self.end.col + 1):
                yield CellAddress(row, col)

    def shifted(self, row_delta: int, col_delta: int) -> "RangeAddress":
        """Return a new range displaced by the given row/column deltas."""
        return RangeAddress(
            self.start.shifted(row_delta, col_delta),
            self.end.shifted(row_delta, col_delta),
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.to_a1()


def parse_cell_address(text: str) -> CellAddress:
    """Parse ``"C41"`` (optionally with ``$`` anchors) into a :class:`CellAddress`.

    The sheets of one corpus name the same few hundred cells over and over
    and addresses are frozen, so a repeated string is answered from a memo
    with the one shared object.  A spelling longer than ``$XFD$1048576``
    (padding, leading zeros) is parsed but never pinned, so the memo's 16384
    entries of at most 0.35 kB (text, address, slot) hold 6 MB at worst.
    """
    return _parsed(text) if len(text) <= 12 else _parsed.__wrapped__(text)


@memoized("cell_addresses", max_entries=16384)
def _parsed(text: str) -> CellAddress:
    match = _CELL_RE.match(text.strip())
    if not match:
        raise AddressError(f"invalid cell reference: {text!r}")
    __, letters, __, row_digits = match.groups()
    row = int(row_digits) - 1
    if row < 0:
        raise AddressError(f"row numbers are 1-based, got {text!r}")
    address = CellAddress(row, column_letters_to_index(letters))
    # "$c$7", " C7" and "C7" share the object of the canonical spelling.
    canonical = address.to_a1()
    return address if canonical == text else parse_cell_address(canonical)


def parse_range_address(text: str) -> RangeAddress:
    """Parse ``"C7:C37"`` into a :class:`RangeAddress`."""
    match = _RANGE_RE.match(text.strip())
    if not match:
        raise AddressError(f"invalid range reference: {text!r}")
    start_text, end_text = match.groups()
    return RangeAddress(parse_cell_address(start_text), parse_cell_address(end_text))


def is_cell_reference(text: str) -> bool:
    """Whether ``text`` looks like a single-cell A1 reference."""
    return bool(_CELL_RE.match(text.strip()))


def is_range_reference(text: str) -> bool:
    """Whether ``text`` looks like an A1 range reference."""
    return bool(_RANGE_RE.match(text.strip()))
