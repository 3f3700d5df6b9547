"""Cell style attributes.

Spreadsheets carry rich non-textual styling (background colors, fonts,
borders, sizes) that the paper uses as "style features" for its
computer-vision-inspired representation.  :class:`CellStyle` captures the
attributes enumerated in Section 4.4.1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from sys import getsizeof
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


@dataclass(frozen=True)
class CellStyle:
    """Visual attributes of a spreadsheet cell.

    Attributes mirror the style features listed in the paper: background
    color, font color, font style (bold / italic / underline), font size and
    cell size (height and width).
    """

    background_color: Optional[str] = None
    font_color: Optional[str] = None
    bold: bool = False
    italic: bool = False
    underline: bool = False
    font_size: float = 11.0
    height: float = DEFAULT_HEIGHT
    width: float = DEFAULT_WIDTH
    border_top: bool = False
    border_bottom: bool = False
    border_left: bool = False
    border_right: bool = False

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
        return dict(zip(_FIELD_NAMES, _FIELD_VALUES(self)))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CellStyle":
        """Reconstruct a style from :meth:`to_dict` output.

        Styles are frozen, so every decode of one distinct value returns the
        one shared instance (:func:`_shared`): a corpus holds a dozen
        distinct styles on thousands of cells.
        """
        values = tuple(map(data.get, _FIELD_NAMES, _FIELD_DEFAULTS))
        if sum(map(getsizeof, values)) > _MAX_SHARED_BYTES:
            return cls(*values)  # type: ignore[arg-type]
        return _shared(*values)


_FIELD_NAMES = tuple(field.name for field in fields(CellStyle))
_FIELD_DEFAULTS = tuple(field.default for field in fields(CellStyle))
_FIELD_VALUES = attrgetter(*_FIELD_NAMES)


#: Twelve ordinary field values weigh about 0.45 kB; a style carrying a
#: megabyte "colour" is decoded but never pinned, so the table's 4096 entries
#: of at most 1.5 kB (values, key, style, slot) hold 6 MB at worst.
_MAX_SHARED_BYTES = 1024


# Typed: 1, 1.0 and True hash alike, and ``font_size: 11`` must not be
# answered with an 11.0 decoded earlier.
@memoized("cell_styles", max_entries=4096, typed=True)
def _shared(*values: object) -> CellStyle:
    return CellStyle(*values)  # type: ignore[arg-type]


#: A plain, unstyled cell.
DEFAULT_STYLE = CellStyle()

#: Typical header styling used by the synthetic corpus generator.
HEADER_STYLE = CellStyle(
    background_color="#4472C4",
    font_color="#FFFFFF",
    bold=True,
    font_size=12.0,
    border_bottom=True,
)

#: Typical "total row" styling used by the synthetic corpus generator.
TOTAL_STYLE = CellStyle(bold=True, border_top=True)
