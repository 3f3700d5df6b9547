"""Built-in spreadsheet function library for the formula evaluator.

Implements the common Excel / Google Sheets functions needed to evaluate
the formulas produced by the synthetic corpus generator and by real-world
style workloads: aggregation (SUM, AVERAGE, COUNT, ...), conditional
aggregation (SUMIF, COUNTIF, AVERAGEIF, SUMIFS, COUNTIFS), logic (IF, AND,
OR, NOT, IFERROR), lookup (VLOOKUP, HLOOKUP, INDEX, MATCH), math (ROUND,
ABS, ...), text (CONCATENATE, LEFT, RIGHT, MID, LEN, UPPER, LOWER, TRIM,
TEXT) and date helpers (YEAR, MONTH, DAY, DATE).

Each function receives already-evaluated arguments.  A range arrives as a
:class:`Grid`: its shape, and the cells of it that lie inside the sheet's
used extent (every other cell is blank).  A scalar arrives as a plain
value.  An aggregate reads a range's cells through :func:`_flatten`, the
lookups and the aligned ranges of the ``*IF(S)`` functions read them by
position, and a function that wants one value reads it through
:func:`scalar`: a range of one cell is that cell, a larger range is
``#VALUE!``.
"""

from __future__ import annotations

import datetime as _dt
import math
import numbers
import re
import sys
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class FunctionError(ValueError):
    """Raised when a built-in function is applied to invalid arguments.

    ``error_code`` names the Excel-style error value the failure maps to
    when evaluation is value-based (see ``repro.formula.errors``); the
    default ``#VALUE!`` covers type/argument misuse, while empty-set
    aggregations and zero divisors carry ``#DIV/0!`` like real
    spreadsheets.
    """

    def __init__(self, message: str, error_code: str = "#VALUE!") -> None:
        super().__init__(message)
        self.error_code = error_code


# --------------------------------------------------------------------- helpers


def _flatten(args: Iterable) -> List:
    """The cells of a list of arguments, in order: a scalar, or a range's
    held cells and one blank standing for all of its cells past the used
    extent, if it has any.  That is what every function that reads its
    cells in order needs of a range: their values do not depend on how
    many blanks it holds, only on whether it holds one (``COUNTBLANK``
    counts them itself)."""
    out: List = []
    for arg in args:
        if type(arg) is Grid:
            out.extend(arg.values)
            if arg.unheld:
                out.append(None)
        else:
            out.append(arg)
    return out


class Grid:
    """A range's value: ``rows`` x ``cols`` cells, of which the top-left
    ``held_rows`` x ``held_cols`` block is held in ``values`` (row-major)
    and every other cell is blank.  A cell's *position* is its row-major
    index, the order :func:`_flatten` reads a range in; a range one cell
    wide either way is one column, as the lookups see it."""

    __slots__ = ("rows", "cols", "held_rows", "held_cols", "values")

    def __init__(self, rows: int, cols: int, held_rows: int, held_cols: int, values: List) -> None:
        self.rows, self.cols = rows, cols
        self.held_rows, self.held_cols = held_rows, held_cols
        self.values = values

    def __len__(self) -> int:
        return self.rows * self.cols

    @property
    def unheld(self) -> int:
        """How many cells lie past the held block (all blank)."""
        return self.rows * self.cols - len(self.values)

    def at(self, row: int, col: int):
        if row < self.held_rows and col < self.held_cols:
            return self.values[row * self.held_cols + col]
        return None

    def position(self, position: int):
        if self.held_cols == self.cols:  # whole rows held: a position is an index
            return self.values[position] if position < len(self.values) else None
        return self.at(*divmod(position, self.cols))

    def held(self) -> Iterable[Tuple[int, object]]:
        """``(position, value)`` of every held cell, in position order."""
        cols, held_cols = self.cols, self.held_cols
        if held_cols == cols:
            return enumerate(self.values)
        return (
            (index // held_cols * cols + index % held_cols, value)
            for index, value in enumerate(self.values)
        )

    def first_blank(self) -> Optional[int]:
        """The position of the first cell past the held block, if any."""
        if not self.held_rows or not self.held_cols:
            return 0 if len(self) else None
        if self.held_cols < self.cols:
            return self.held_cols
        return self.held_rows * self.cols if self.held_rows < self.rows else None

    def first_column(self) -> Iterable[Tuple[int, object]]:
        """``(row, value)`` of the first cell of every row, in row order,
        the rows past the held block as one ``(row, None)``."""
        held = self.held_rows if self.held_cols else 0
        for row in range(held):
            yield row, self.values[row * self.held_cols]
        if held < self.rows:
            yield held, None

    def transposed(self) -> "Grid":
        held_rows, held_cols, values = self.held_rows, self.held_cols, self.values
        return Grid(
            self.cols,
            self.rows,
            held_cols,
            held_rows,
            [values[row * held_cols + col] for col in range(held_cols) for row in range(held_rows)],
        )


def scalar(value):
    """The one value of an argument that wants one: a range of one cell is
    that cell's value, and a larger range has none (``#VALUE!``)."""
    if type(value) is Grid:
        if len(value) != 1:
            raise FunctionError("a range of more than one cell is not one value")
        return value.position(0)
    return value


def _grid(value) -> Grid:
    """A range argument as a :class:`Grid`: a scalar is a range of one
    cell."""
    return value if type(value) is Grid else Grid(1, 1, 1, 1, [value])


def _numeric_values(args: Iterable) -> List[float]:
    """All numeric values across the (flattened) arguments, ignoring text/blank."""
    numbers_out: List[float] = []
    for value in _flatten(args):
        if isinstance(value, bool):
            continue
        if isinstance(value, numbers.Number):
            numbers_out.append(float(value))
    return numbers_out


def _coerce_number(value) -> float:
    """Coerce one value (:func:`scalar`) to float (blank -> 0), raising on
    non-numeric text."""
    value = scalar(value)
    if value is None or value == "":
        return 0.0
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, numbers.Number):
        return float(value)
    try:
        return float(str(value))
    except ValueError as exc:
        raise FunctionError(f"expected a number, got {value!r}") from exc


_CRITERIA_RE = re.compile(r"^(<=|>=|<>|=|<|>)(.*)$")


def criterion_matcher(criterion) -> Callable[[object], bool]:
    """Build a predicate from a SUMIF/COUNTIF criterion.

    Criteria may be plain values (equality), or strings with a comparison
    prefix such as ``">=10"`` or ``"<>done"``.  Text comparison is
    case-insensitive, matching spreadsheet semantics.
    """
    if isinstance(criterion, str):
        match = _CRITERIA_RE.match(criterion.strip())
        if match and match.group(1) != "=" or (match and match.group(2) != ""):
            op, operand_text = match.groups()
            try:
                operand: object = float(operand_text)
                numeric = True
            except ValueError:
                operand = operand_text.lower()
                numeric = False

            def compare(value: object) -> bool:
                if numeric:
                    if isinstance(value, bool) or not isinstance(value, numbers.Number):
                        try:
                            value = float(str(value))
                        except (TypeError, ValueError):
                            return op == "<>"
                    left: object = float(value)
                else:
                    left = str(value).lower() if value is not None else ""
                if op == "=":
                    return left == operand
                if op == "<>":
                    return left != operand
                if op == "<":
                    return left < operand  # type: ignore[operator]
                if op == "<=":
                    return left <= operand  # type: ignore[operator]
                if op == ">":
                    return left > operand  # type: ignore[operator]
                return left >= operand  # type: ignore[operator]

            return compare
        criterion_text = criterion.lower()
        return lambda value: str(value).lower() == criterion_text if value is not None else False
    if isinstance(criterion, numbers.Number) and not isinstance(criterion, bool):
        target = float(criterion)

        def equals_number(value: object) -> bool:
            if isinstance(value, bool) or not isinstance(value, numbers.Number):
                return False
            return float(value) == target

        return equals_number
    return lambda value: value == criterion


# ---------------------------------------------------------------- aggregation


def fn_sum(*args) -> float:
    return float(sum(_numeric_values(args)))


def fn_average(*args) -> float:
    values = _numeric_values(args)
    if not values:
        raise FunctionError("AVERAGE of no numeric values", error_code="#DIV/0!")
    return float(sum(values) / len(values))


def fn_count(*args) -> float:
    return float(len(_numeric_values(args)))


def fn_counta(*args) -> float:
    return float(sum(1 for value in _flatten(args) if value not in (None, "")))


def fn_countblank(*args) -> float:
    """Blank and empty-text cells, a range's cells past the extent among
    them."""
    count = 0
    for arg in args:
        if type(arg) is Grid:
            count += arg.unheld + sum(1 for value in arg.values if value in (None, ""))
        elif arg in (None, ""):
            count += 1
    return float(count)


def fn_max(*args) -> float:
    values = _numeric_values(args)
    return float(max(values)) if values else 0.0


def fn_min(*args) -> float:
    values = _numeric_values(args)
    return float(min(values)) if values else 0.0


def fn_median(*args) -> float:
    values = sorted(_numeric_values(args))
    if not values:
        raise FunctionError("MEDIAN of no numeric values", error_code="#DIV/0!")
    middle = len(values) // 2
    if len(values) % 2:
        return values[middle]
    return (values[middle - 1] + values[middle]) / 2.0


def fn_product(*args) -> float:
    result = 1.0
    for value in _numeric_values(args):
        result *= value
    return result


def fn_stdev(*args) -> float:
    values = _numeric_values(args)
    if len(values) < 2:
        raise FunctionError(
            "STDEV requires at least two numeric values", error_code="#DIV/0!"
        )
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / (len(values) - 1)
    return math.sqrt(variance)


def fn_var(*args) -> float:
    values = _numeric_values(args)
    if len(values) < 2:
        raise FunctionError(
            "VAR requires at least two numeric values", error_code="#DIV/0!"
        )
    mean = sum(values) / len(values)
    return sum((value - mean) ** 2 for value in values) / (len(values) - 1)


# ---------------------------------------------------- conditional aggregation


def fn_countif(values, criterion) -> float:
    matcher = criterion_matcher(criterion)
    return float(sum(1 for value in _flatten((values,)) if value not in (None, "") and matcher(value)))


def _aligned(values, out_values) -> Iterable[Tuple[object, object]]:
    """``(test, out)`` of the aligned cells of a ``*IF`` test range and its
    output range (the test range itself when ``out_values`` is ``None``),
    for the held test cells: the others are blank, and a blank test
    selects nothing.  Past the end of the output range ``out`` is blank,
    which nothing adds up, as if the pairs stopped at the shorter range."""
    tests = _grid(values)
    outs = tests if out_values is None else _grid(out_values)
    for position, test in tests.held():
        yield test, outs.position(position)


def fn_sumif(values, criterion, sum_values=None) -> float:
    matcher = criterion_matcher(criterion)
    total = 0.0
    for test, out in _aligned(values, sum_values):
        if test in (None, ""):
            continue
        if matcher(test) and isinstance(out, numbers.Number) and not isinstance(out, bool):
            total += float(out)
    return total


def fn_averageif(values, criterion, avg_values=None) -> float:
    matcher = criterion_matcher(criterion)
    selected = [
        float(out)
        for test, out in _aligned(values, avg_values)
        if test not in (None, "")
        and matcher(test)
        and isinstance(out, numbers.Number)
        and not isinstance(out, bool)
    ]
    if not selected:
        raise FunctionError("AVERAGEIF matched no numeric values", error_code="#DIV/0!")
    return sum(selected) / len(selected)


def _ifs_pairs(args: Sequence) -> List[Tuple[Grid, Callable[[object], bool]]]:
    """The ``(range, criterion)`` pairs of a ``*IFS`` call, as grids and
    predicates."""
    if len(args) % 2 != 0:
        raise FunctionError("criteria arguments must come in (range, criterion) pairs")
    return [(_grid(args[i]), criterion_matcher(args[i + 1])) for i in range(0, len(args), 2)]


def fn_countifs(*args) -> float:
    pairs = _ifs_pairs(args)
    if not pairs:
        return 0.0
    # A position past the shortest range counts for nothing; one where no
    # range holds a cell is blank in all of them.
    end = min(len(grid) for grid, __ in pairs)
    held = {position for grid, __ in pairs for position, __ in grid.held() if position < end}
    count = sum(
        1 for position in held if all(matcher(grid.position(position)) for grid, matcher in pairs)
    )
    if all(matcher(None) for __, matcher in pairs):
        count += end - len(held)
    return float(count)


def fn_sumifs(sum_values, *args) -> float:
    outs = _grid(sum_values)
    pairs = _ifs_pairs(args)
    total = 0.0
    for position, out in outs.held():
        if not isinstance(out, numbers.Number) or isinstance(out, bool):
            continue
        if all(
            position < len(grid) and matcher(grid.position(position)) for grid, matcher in pairs
        ):
            total += float(out)
    return total


# ----------------------------------------------------------------------- logic


def fn_if(condition, when_true=True, when_false=False):
    return when_true if _truthy(scalar(condition)) else when_false


def _truthy(value) -> bool:
    if isinstance(value, str):
        return value.strip().lower() not in ("", "false", "0")
    return bool(value)


def fn_and(*args) -> bool:
    return all(_truthy(value) for value in _flatten(args))


def fn_or(*args) -> bool:
    return any(_truthy(value) for value in _flatten(args))


def fn_not(value) -> bool:
    return not _truthy(scalar(value))


def fn_isblank(value) -> bool:
    return value in (None, "")


def fn_isnumber(value) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


# ---------------------------------------------------------------------- lookup


def _matching_row(grid: Grid, lookup_value) -> Optional[int]:
    """The first row whose first cell equals ``lookup_value``."""
    return next(
        (row for row, first in grid.first_column() if _loose_equal(first, lookup_value)), None
    )


def fn_vlookup(lookup_value, table, col_index, range_lookup=False):
    grid = _grid(table)
    col = int(_coerce_number(col_index)) - 1
    if col < 0:
        raise FunctionError("VLOOKUP column index must be >= 1")
    row = _matching_row(grid, lookup_value)
    if row is not None:
        if col >= grid.cols:
            raise FunctionError("VLOOKUP column index out of range")
        return grid.at(row, col)
    if _truthy(scalar(range_lookup)):
        best = None
        for row, first in grid.first_column():
            if _comparable(first, lookup_value) and first <= lookup_value:
                best = row
        if best is not None:
            return grid.at(best, col) if col < grid.cols else None
    raise FunctionError(f"VLOOKUP value {lookup_value!r} not found")


def fn_hlookup(lookup_value, table, row_index, range_lookup=False):
    return fn_vlookup(lookup_value, _grid(table).transposed(), row_index, range_lookup)


def fn_index(table, row_index, col_index=1):
    grid = _grid(table)
    row = int(_coerce_number(row_index)) - 1
    col = int(_coerce_number(col_index)) - 1
    if row < 0 or row >= grid.rows or col < 0 or col >= grid.cols:
        raise FunctionError("INDEX out of range")
    return grid.at(row, col)


def fn_match(lookup_value, values, match_type=0):
    grid = _grid(values)
    found = next(
        (position for position, value in grid.held() if _loose_equal(value, lookup_value)), None
    )
    blank = grid.first_blank()
    if blank is not None and (found is None or blank < found) and _loose_equal(None, lookup_value):
        found = blank
    if found is None:
        raise FunctionError(f"MATCH value {lookup_value!r} not found")
    return float(found + 1)


def _loose_equal(left, right) -> bool:
    if isinstance(left, str) and isinstance(right, str):
        return left.strip().lower() == right.strip().lower()
    if isinstance(left, numbers.Number) and isinstance(right, numbers.Number):
        return float(left) == float(right)
    return left == right


def _comparable(left, right) -> bool:
    return isinstance(left, numbers.Number) and isinstance(right, numbers.Number)


# ------------------------------------------------------------------------ math


def fn_round(value, digits=0) -> float:
    return round(_coerce_number(value), int(_coerce_number(digits)))


def _decimal_factor(digits) -> float:
    """``10 ** digits`` of ROUNDUP / ROUNDDOWN.  No float holds a larger
    one, so past that it raises ``OverflowError`` (an error value) rather
    than build a power of ten with millions of digits."""
    exponent = int(_coerce_number(digits))
    if exponent > sys.float_info.max_10_exp:
        raise OverflowError(f"10 ** {exponent} is past the float range")
    return 10 ** exponent


def fn_roundup(value, digits=0) -> float:
    factor = _decimal_factor(digits)
    return math.ceil(_coerce_number(value) * factor) / factor


def fn_rounddown(value, digits=0) -> float:
    factor = _decimal_factor(digits)
    return math.floor(_coerce_number(value) * factor) / factor


def fn_abs(value) -> float:
    return abs(_coerce_number(value))


def fn_sqrt(value) -> float:
    number = _coerce_number(value)
    if number < 0:
        raise FunctionError("SQRT of a negative number")
    return math.sqrt(number)


def fn_power(base, exponent) -> float:
    result = _coerce_number(base) ** _coerce_number(exponent)
    if isinstance(result, complex):  # a negative base to a fractional exponent
        raise FunctionError("POWER has no real result")
    return result


def fn_mod(value, divisor) -> float:
    divisor_value = _coerce_number(divisor)
    if divisor_value == 0:
        raise FunctionError("MOD by zero", error_code="#DIV/0!")
    return math.fmod(_coerce_number(value), divisor_value)


def fn_int(value) -> float:
    return float(math.floor(_coerce_number(value)))


# ------------------------------------------------------------------------ text


def _text(value) -> str:
    """A text function's text of its text argument, one value
    (:func:`scalar`): a blank, a zero or FALSE is the empty text."""
    return str(scalar(value) or "")


def fn_concatenate(*args) -> str:
    return "".join("" if value is None else str(value) for value in _flatten(args))


def fn_left(text, count=1) -> str:
    return _text(text)[: int(_coerce_number(count))]


def fn_right(text, count=1) -> str:
    count = int(_coerce_number(count))
    source = _text(text)
    return source[-count:] if count else ""


def fn_mid(text, start, count) -> str:
    start_index = int(_coerce_number(start)) - 1
    return _text(text)[start_index : start_index + int(_coerce_number(count))]


def fn_len(text) -> float:
    return float(len(_text(text)))


def fn_upper(text) -> str:
    return _text(text).upper()


def fn_lower(text) -> str:
    return _text(text).lower()


def fn_trim(text) -> str:
    return " ".join(_text(text).split())


def fn_text(value, format_text="") -> str:
    value = scalar(value)
    number = _coerce_number(value)
    fmt = str(scalar(format_text))
    if fmt in ("0", "#"):
        return str(int(round(number)))
    if fmt.startswith("0.") and set(fmt[2:]) <= {"0"}:
        return f"{number:.{len(fmt) - 2}f}"
    if fmt == "0%":
        return f"{int(round(number * 100))}%"
    return str(value)


def fn_substitute(text, old, new) -> str:
    return _text(text).replace(str(scalar(old)), str(scalar(new)))


# ------------------------------------------------------------------------ date


def _as_date(value) -> _dt.date:
    value = scalar(value)
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, _dt.date):
        return value
    if isinstance(value, str):
        return _dt.date.fromisoformat(value.replace("/", "-"))
    raise FunctionError(f"expected a date, got {value!r}")


def fn_year(value) -> float:
    return float(_as_date(value).year)


def fn_month(value) -> float:
    return float(_as_date(value).month)


def fn_day(value) -> float:
    return float(_as_date(value).day)


def fn_date(year, month, day) -> _dt.date:
    return _dt.date(int(_coerce_number(year)), int(_coerce_number(month)), int(_coerce_number(day)))


def fn_today() -> _dt.date:
    return _dt.date(2024, 1, 1)  # deterministic "today" for reproducible evaluation


# -------------------------------------------------------------------- registry

BUILTIN_FUNCTIONS: Dict[str, Callable] = {
    "SUM": fn_sum,
    "AVERAGE": fn_average,
    "AVG": fn_average,
    "COUNT": fn_count,
    "COUNTA": fn_counta,
    "COUNTBLANK": fn_countblank,
    "MAX": fn_max,
    "MIN": fn_min,
    "MEDIAN": fn_median,
    "PRODUCT": fn_product,
    "STDEV": fn_stdev,
    "VAR": fn_var,
    "COUNTIF": fn_countif,
    "SUMIF": fn_sumif,
    "AVERAGEIF": fn_averageif,
    "COUNTIFS": fn_countifs,
    "SUMIFS": fn_sumifs,
    "IF": fn_if,
    "AND": fn_and,
    "OR": fn_or,
    "NOT": fn_not,
    "ISBLANK": fn_isblank,
    "ISNUMBER": fn_isnumber,
    "IFERROR": None,  # handled lazily by the evaluator
    "VLOOKUP": fn_vlookup,
    "HLOOKUP": fn_hlookup,
    "INDEX": fn_index,
    "MATCH": fn_match,
    "ROUND": fn_round,
    "ROUNDUP": fn_roundup,
    "ROUNDDOWN": fn_rounddown,
    "ABS": fn_abs,
    "SQRT": fn_sqrt,
    "POWER": fn_power,
    "MOD": fn_mod,
    "INT": fn_int,
    "CONCATENATE": fn_concatenate,
    "CONCAT": fn_concatenate,
    "LEFT": fn_left,
    "RIGHT": fn_right,
    "MID": fn_mid,
    "LEN": fn_len,
    "UPPER": fn_upper,
    "LOWER": fn_lower,
    "TRIM": fn_trim,
    "TEXT": fn_text,
    "SUBSTITUTE": fn_substitute,
    "YEAR": fn_year,
    "MONTH": fn_month,
    "DAY": fn_day,
    "DATE": fn_date,
    "TODAY": fn_today,
}
