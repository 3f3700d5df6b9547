"""Built-in spreadsheet function library for the formula evaluator.

Implements the common Excel / Google Sheets functions needed to evaluate
the formulas produced by the synthetic corpus generator and by real-world
style workloads: aggregation (SUM, AVERAGE, COUNT, ...), conditional
aggregation (SUMIF, COUNTIF, AVERAGEIF, SUMIFS, COUNTIFS), logic (IF, AND,
OR, NOT, IFERROR), lookup (VLOOKUP, HLOOKUP, INDEX, MATCH), math (ROUND,
ABS, ...), text (CONCATENATE, LEFT, RIGHT, MID, LEN, UPPER, LOWER, TRIM,
TEXT) and date helpers (YEAR, MONTH, DAY, DATE).

Each function receives already-evaluated arguments.  Range arguments arrive
as (possibly nested) Python lists of cell values; scalar arguments arrive as
plain values.
"""

from __future__ import annotations

import datetime as _dt
import math
import numbers
import re
import sys
from typing import Callable, Dict, Iterable, List, Sequence


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


def _flatten(value) -> List:
    """Flatten nested lists (range values) into a flat list of scalars."""
    if isinstance(value, list):
        out: List = []
        for item in value:
            out.extend(_flatten(item))
        return out
    return [value]


def _numeric_values(args: Iterable) -> List[float]:
    """All numeric values across the (flattened) arguments, ignoring text/blank."""
    numbers_out: List[float] = []
    for value in _flatten(list(args)):
        if isinstance(value, bool):
            continue
        if isinstance(value, numbers.Number):
            numbers_out.append(float(value))
    return numbers_out


def _coerce_number(value) -> float:
    """Coerce a scalar to float (blank -> 0), raising on non-numeric text."""
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
    return float(sum(1 for value in _flatten(list(args)) if value not in (None, "")))


def fn_countblank(*args) -> float:
    return float(sum(1 for value in _flatten(list(args)) if value in (None, "")))


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
    return float(sum(1 for value in _flatten(values) if value not in (None, "") and matcher(value)))


def fn_sumif(values, criterion, sum_values=None) -> float:
    matcher = criterion_matcher(criterion)
    test_values = _flatten(values)
    out_values = _flatten(sum_values) if sum_values is not None else test_values
    total = 0.0
    for test, out in zip(test_values, out_values):
        if test in (None, ""):
            continue
        if matcher(test) and isinstance(out, numbers.Number) and not isinstance(out, bool):
            total += float(out)
    return total


def fn_averageif(values, criterion, avg_values=None) -> float:
    matcher = criterion_matcher(criterion)
    test_values = _flatten(values)
    out_values = _flatten(avg_values) if avg_values is not None else test_values
    selected = [
        float(out)
        for test, out in zip(test_values, out_values)
        if test not in (None, "")
        and matcher(test)
        and isinstance(out, numbers.Number)
        and not isinstance(out, bool)
    ]
    if not selected:
        raise FunctionError("AVERAGEIF matched no numeric values", error_code="#DIV/0!")
    return sum(selected) / len(selected)


def _ifs_pairs(args: Sequence) -> List:
    if len(args) % 2 != 0:
        raise FunctionError("criteria arguments must come in (range, criterion) pairs")
    return [(args[i], args[i + 1]) for i in range(0, len(args), 2)]


def fn_countifs(*args) -> float:
    pairs = _ifs_pairs(args)
    if not pairs:
        return 0.0
    flattened = [( _flatten(values), criterion_matcher(criterion)) for values, criterion in pairs]
    length = len(flattened[0][0])
    count = 0
    for index in range(length):
        if all(index < len(values) and matcher(values[index]) for values, matcher in flattened):
            count += 1
    return float(count)


def fn_sumifs(sum_values, *args) -> float:
    out_values = _flatten(sum_values)
    pairs = _ifs_pairs(args)
    flattened = [(_flatten(values), criterion_matcher(criterion)) for values, criterion in pairs]
    total = 0.0
    for index, out in enumerate(out_values):
        if not isinstance(out, numbers.Number) or isinstance(out, bool):
            continue
        if all(index < len(values) and matcher(values[index]) for values, matcher in flattened):
            total += float(out)
    return total


# ----------------------------------------------------------------------- logic


def fn_if(condition, when_true=True, when_false=False):
    return when_true if _truthy(condition) else when_false


def _truthy(value) -> bool:
    if isinstance(value, str):
        return value.strip().lower() not in ("", "false", "0")
    return bool(value)


def fn_and(*args) -> bool:
    return all(_truthy(value) for value in _flatten(list(args)))


def fn_or(*args) -> bool:
    return any(_truthy(value) for value in _flatten(list(args)))


def fn_not(value) -> bool:
    return not _truthy(value)


def fn_isblank(value) -> bool:
    return value in (None, "")


def fn_isnumber(value) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


# ---------------------------------------------------------------------- lookup


def _as_table(values) -> List[List]:
    """Normalize a range argument to a list of rows."""
    if not isinstance(values, list):
        return [[values]]
    if values and not isinstance(values[0], list):
        return [[value] for value in values]
    return values


def fn_vlookup(lookup_value, table, col_index, range_lookup=False):
    rows = _as_table(table)
    col = int(_coerce_number(col_index)) - 1
    if col < 0:
        raise FunctionError("VLOOKUP column index must be >= 1")
    for row in rows:
        if not row:
            continue
        if _loose_equal(row[0], lookup_value):
            if col >= len(row):
                raise FunctionError("VLOOKUP column index out of range")
            return row[col]
    if _truthy(range_lookup):
        best = None
        for row in rows:
            if row and _comparable(row[0], lookup_value) and row[0] <= lookup_value:
                best = row
        if best is not None:
            return best[col] if col < len(best) else None
    raise FunctionError(f"VLOOKUP value {lookup_value!r} not found")


def fn_hlookup(lookup_value, table, row_index, range_lookup=False):
    rows = _as_table(table)
    transposed = [list(column) for column in zip(*rows)] if rows else []
    return fn_vlookup(lookup_value, transposed, row_index, range_lookup)


def fn_index(table, row_index, col_index=1):
    rows = _as_table(table)
    row = int(_coerce_number(row_index)) - 1
    col = int(_coerce_number(col_index)) - 1
    if row < 0 or row >= len(rows) or col < 0 or col >= len(rows[row]):
        raise FunctionError("INDEX out of range")
    return rows[row][col]


def fn_match(lookup_value, values, match_type=0):
    flat = _flatten(values)
    for position, value in enumerate(flat, start=1):
        if _loose_equal(value, lookup_value):
            return float(position)
    raise FunctionError(f"MATCH value {lookup_value!r} not found")


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


def fn_concatenate(*args) -> str:
    return "".join("" if value is None else str(value) for value in _flatten(list(args)))


def fn_left(text, count=1) -> str:
    return str(text or "")[: int(_coerce_number(count))]


def fn_right(text, count=1) -> str:
    count = int(_coerce_number(count))
    source = str(text or "")
    return source[-count:] if count else ""


def fn_mid(text, start, count) -> str:
    start_index = int(_coerce_number(start)) - 1
    return str(text or "")[start_index : start_index + int(_coerce_number(count))]


def fn_len(text) -> float:
    return float(len(str(text or "")))


def fn_upper(text) -> str:
    return str(text or "").upper()


def fn_lower(text) -> str:
    return str(text or "").lower()


def fn_trim(text) -> str:
    return " ".join(str(text or "").split())


def fn_text(value, format_text="") -> str:
    number = _coerce_number(value)
    fmt = str(format_text)
    if fmt in ("0", "#"):
        return str(int(round(number)))
    if fmt.startswith("0.") and set(fmt[2:]) <= {"0"}:
        return f"{number:.{len(fmt) - 2}f}"
    if fmt == "0%":
        return f"{int(round(number * 100))}%"
    return str(value)


def fn_substitute(text, old, new) -> str:
    return str(text or "").replace(str(old), str(new))


# ------------------------------------------------------------------------ date


def _as_date(value) -> _dt.date:
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
