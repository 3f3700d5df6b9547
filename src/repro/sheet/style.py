"""Cell style attributes.

Spreadsheets carry rich non-textual styling (background colors, fonts,
borders, sizes) that the paper uses as "style features" for its
computer-vision-inspired representation.  :class:`CellStyle` captures the
attributes enumerated in Section 4.4.1 of the paper.
"""

from __future__ import annotations

import re
import reprlib
import sys
from collections import namedtuple
from typing import Dict, Optional, Tuple

from repro.cache import memoized

#: Default row height / column width, in arbitrary display units.
DEFAULT_HEIGHT = 15.0
DEFAULT_WIDTH = 64.0


def _parse_hex_color(color: Optional[str]) -> Tuple[float, float, float]:
    """Convert a ``"#RRGGBB"`` string into normalized (r, g, b) in [0, 1].

    ``None`` (no fill / automatic color) maps to white for backgrounds and
    is handled by the caller for font colors.
    """
    if not color:
        return (1.0, 1.0, 1.0)
    text = color.lstrip("#")
    if len(text) != 6:
        raise ValueError(f"expected #RRGGBB color, got {color!r}")
    red = int(text[0:2], 16) / 255.0
    green = int(text[2:4], 16) / 255.0
    blue = int(text[4:6], 16) / 255.0
    return (red, green, blue)


class CellStyle(
    namedtuple(
        "CellStyle",
        "background_color font_color bold italic underline font_size height width"
        " border_top border_bottom border_left border_right",
    )
):
    """Visual attributes of a spreadsheet cell.

    Attributes mirror the style features listed in the paper: background
    color, font color, font style (bold / italic / underline), font size and
    cell size (height and width).

    A tuple of its fields, so it hashes and compares as that tuple does, in
    C.  Each field is checked on construction: a colour is ``None`` or
    ``"#RRGGBB"``, a size a non-negative number (not a boolean) that is
    finite as a float, a flag ``True``, ``False``, 0 or 1.  Anything else
    raises ``ValueError``.
    """

    __slots__ = ()

    def __new__(
        cls,
        background_color: Optional[str] = None,
        font_color: Optional[str] = None,
        bold: bool = False,
        italic: bool = False,
        underline: bool = False,
        font_size: float = 11.0,
        height: float = DEFAULT_HEIGHT,
        width: float = DEFAULT_WIDTH,
        border_top: bool = False,
        border_bottom: bool = False,
        border_left: bool = False,
        border_right: bool = False,
    ) -> "CellStyle":
        values = (
            background_color, font_color, bold, italic, underline, font_size,
            height, width, border_top, border_bottom, border_left, border_right,
        )
        for name, value in zip(cls._fields, values):
            if not _holds(name, value):
                raise ValueError(f"style field {name!r} cannot hold {reprlib.repr(value)}")
        return tuple.__new__(cls, values)

    @classmethod
    def _make(cls, iterable) -> "CellStyle":
        return cls(*iterable)

    def background_rgb(self) -> Tuple[float, float, float]:
        """Background color as normalized RGB (defaults to white)."""
        return _parse_hex_color(self.background_color)

    def font_rgb(self) -> Tuple[float, float, float]:
        """Font color as normalized RGB (defaults to black)."""
        if self.font_color is None:
            return (0.0, 0.0, 0.0)
        return _parse_hex_color(self.font_color)

    def to_dict(self) -> Dict[str, object]:
        """Serialize to a plain dictionary (JSON friendly)."""
        return dict(zip(self._fields, self))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CellStyle":
        """Reconstruct a style from :meth:`to_dict` output; a field no
        style can hold raises ``ValueError``, as on construction.  Styles
        are frozen, so every decode of one distinct value returns the one
        shared instance (:func:`_shared`): a corpus holds a dozen distinct
        styles on thousands of cells.
        """
        values = tuple(map(data.get, _FIELD_NAMES, _FIELD_DEFAULTS))
        try:
            return _shared(*values)
        except TypeError:  # an unhashable value, which no field can hold
            raise ValueError(f"style fields hold JSON scalars: {reprlib.repr(data)}") from None


_FIELD_NAMES = CellStyle._fields
_FIELD_DEFAULTS = CellStyle.__new__.__defaults__

_COLOR = re.compile(r"#[0-9A-Fa-f]{6}")


def _holds(name: str, value: object) -> bool:
    """Whether style field ``name`` may hold ``value``."""
    if name.endswith("_color"):
        return value is None or (isinstance(value, str) and bool(_COLOR.fullmatch(value)))
    if name in ("font_size", "height", "width"):
        # Compared exactly: an int past the largest float is refused too.
        return type(value) in (int, float) and 0 <= value <= sys.float_info.max
    return type(value) in (bool, int) and value in (0, 1)


# Typed: 1, 1.0 and True hash alike, and ``font_size: 11`` must not be
# answered with an 11.0 decoded earlier.
@memoized("cell_styles", max_entries=4096, typed=True)
def _shared(*values: object) -> CellStyle:
    return CellStyle(*values)  # type: ignore[arg-type]


#: A plain, unstyled cell.
DEFAULT_STYLE = CellStyle()
