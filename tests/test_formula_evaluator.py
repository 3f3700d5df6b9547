"""Tests for direct formula evaluation (``FormulaEngine.evaluate_formula`` /
``evaluate_cell`` / ``recalculate``) and the built-in function library.

A failed evaluation is an Excel-style error *value*, never an exception.
"""

import datetime

import pytest

from repro.formula import (
    CYCLE_ERROR,
    DIV0_ERROR,
    NAME_ERROR,
    VALUE_ERROR,
    FormulaEngine,
    is_error_value,
)
from repro.formula.functions import criterion_matcher
from repro.sheet import Sheet


@pytest.fixture()
def data_sheet() -> Sheet:
    sheet = Sheet("Data")
    values = [10, 20, 30, 40, 50]
    for index, value in enumerate(values):
        sheet.set((index, 0), value)            # A1:A5 numbers
        sheet.set((index, 1), f"item{index}")   # B1:B5 text
    sheet.set("C1", "North")
    sheet.set("C2", "South")
    sheet.set("C3", "North")
    sheet.set("C4", "East")
    sheet.set("C5", "North")
    sheet.set("D1", "2023-05-15")
    return sheet


@pytest.fixture()
def evaluator(data_sheet) -> FormulaEngine:
    return FormulaEngine(data_sheet)


def assert_error(value, kind) -> None:
    """``value`` is the error value ``kind`` (not the equal plain string)."""
    assert is_error_value(value) and value == kind, repr(value)


class TestAggregation:
    def test_sum(self, evaluator):
        assert evaluator.evaluate_formula("=SUM(A1:A5)") == 150

    def test_sum_ignores_text(self, evaluator):
        assert evaluator.evaluate_formula("=SUM(A1:B5)") == 150

    def test_average(self, evaluator):
        assert evaluator.evaluate_formula("=AVERAGE(A1:A5)") == 30

    def test_count_vs_counta(self, evaluator):
        assert evaluator.evaluate_formula("=COUNT(A1:B5)") == 5
        assert evaluator.evaluate_formula("=COUNTA(A1:B5)") == 10

    def test_countblank(self, evaluator):
        assert evaluator.evaluate_formula("=COUNTBLANK(A1:A6)") == 1

    def test_max_min_median(self, evaluator):
        assert evaluator.evaluate_formula("=MAX(A1:A5)") == 50
        assert evaluator.evaluate_formula("=MIN(A1:A5)") == 10
        assert evaluator.evaluate_formula("=MEDIAN(A1:A5)") == 30

    def test_product(self, evaluator):
        assert evaluator.evaluate_formula("=PRODUCT(A1:A2)") == 200

    def test_stdev_requires_two_values(self, evaluator):
        assert_error(evaluator.evaluate_formula("=STDEV(A1:A1)"), DIV0_ERROR)


class TestConditionalAggregation:
    def test_countif_value(self, evaluator):
        assert evaluator.evaluate_formula('=COUNTIF(C1:C5,"North")') == 3

    def test_countif_with_comparison(self, evaluator):
        assert evaluator.evaluate_formula('=COUNTIF(A1:A5,">25")') == 3

    def test_countif_cell_criterion(self, evaluator):
        assert evaluator.evaluate_formula("=COUNTIF(C1:C5,C1)") == 3

    def test_sumif_same_range(self, evaluator):
        assert evaluator.evaluate_formula('=SUMIF(A1:A5,">25")') == 120

    def test_sumif_separate_sum_range(self, evaluator):
        assert evaluator.evaluate_formula('=SUMIF(C1:C5,"North",A1:A5)') == 10 + 30 + 50

    def test_averageif(self, evaluator):
        assert evaluator.evaluate_formula('=AVERAGEIF(C1:C5,"North",A1:A5)') == 30

    def test_countifs(self, evaluator):
        assert evaluator.evaluate_formula('=COUNTIFS(C1:C5,"North",A1:A5,">15")') == 2

    def test_sumifs(self, evaluator):
        assert evaluator.evaluate_formula('=SUMIFS(A1:A5,C1:C5,"North",A1:A5,">15")') == 80

    def test_criterion_matcher_text_case_insensitive(self):
        matcher = criterion_matcher("north")
        assert matcher("North")
        assert not matcher("South")

    def test_criterion_matcher_not_equal(self):
        matcher = criterion_matcher("<>North")
        assert matcher("South")
        assert not matcher("North")


class TestLogicAndLookup:
    def test_if(self, evaluator):
        assert evaluator.evaluate_formula('=IF(A5>40,"big","small")') == "big"
        assert evaluator.evaluate_formula('=IF(A1>40,"big","small")') == "small"

    def test_and_or_not(self, evaluator):
        assert evaluator.evaluate_formula("=AND(A1>5,A2>5)") is True
        assert evaluator.evaluate_formula("=OR(A1>15,A2>15)") is True
        assert evaluator.evaluate_formula("=NOT(A1>15)") is True

    def test_iferror_catches_division_by_zero(self, evaluator):
        assert evaluator.evaluate_formula('=IFERROR(A1/0,"fallback")') == "fallback"

    def test_iferror_passthrough(self, evaluator):
        assert evaluator.evaluate_formula("=IFERROR(A1/2,0)") == 5

    def test_isblank_isnumber(self, evaluator):
        assert evaluator.evaluate_formula("=ISBLANK(Z99)") is True
        assert evaluator.evaluate_formula("=ISNUMBER(A1)") is True
        assert evaluator.evaluate_formula("=ISNUMBER(B1)") is False

    def test_vlookup(self, evaluator):
        assert evaluator.evaluate_formula('=VLOOKUP("item2",B1:C5,2)') == "North"

    def test_vlookup_missing_raises(self, evaluator):
        assert_error(evaluator.evaluate_formula('=VLOOKUP("missing",B1:C5,2)'), VALUE_ERROR)

    def test_index_and_match(self, evaluator):
        assert evaluator.evaluate_formula("=INDEX(A1:C5,2,3)") == "South"
        assert evaluator.evaluate_formula('=MATCH("East",C1:C5,0)') == 4


class TestMathTextDate:
    def test_round_family(self, evaluator):
        assert evaluator.evaluate_formula("=ROUND(A1/3,2)") == 3.33
        assert evaluator.evaluate_formula("=ROUNDUP(A1/3,0)") == 4
        assert evaluator.evaluate_formula("=ROUNDDOWN(A1/3,0)") == 3

    def test_abs_sqrt_power_mod_int(self, evaluator):
        assert evaluator.evaluate_formula("=ABS(0-A1)") == 10
        assert evaluator.evaluate_formula("=SQRT(A2*A1/8)") == 5
        assert evaluator.evaluate_formula("=POWER(2,5)") == 32
        assert evaluator.evaluate_formula("=MOD(A3,7)") == 2
        assert evaluator.evaluate_formula("=INT(7.9)") == 7

    def test_power_without_a_real_result_is_an_error_like_the_operator(self, evaluator):
        """A negative base to a fractional exponent is complex in Python; a
        cell cannot hold that (it used to reach the cell and fail the save)."""
        assert_error(evaluator.evaluate_formula("=POWER(-0.5,-0.5)"), "#VALUE!")
        assert_error(evaluator.evaluate_formula("=(0-0.5)^(0-0.5)"), "#VALUE!")
        assert evaluator.evaluate_formula("=POWER(-2,3)") == -8

    def test_string_functions(self, evaluator):
        assert evaluator.evaluate_formula('=CONCATENATE(B1," / ",C1)') == "item0 / North"
        assert evaluator.evaluate_formula("=LEFT(C1,2)") == "No"
        assert evaluator.evaluate_formula("=RIGHT(C1,3)") == "rth"
        assert evaluator.evaluate_formula("=MID(C1,2,3)") == "ort"
        assert evaluator.evaluate_formula("=LEN(C1)") == 5
        assert evaluator.evaluate_formula("=UPPER(B1)") == "ITEM0"
        assert evaluator.evaluate_formula("=LOWER(C1)") == "north"
        assert evaluator.evaluate_formula('=TRIM("  a  b  ")') == "a b"
        assert evaluator.evaluate_formula('=SUBSTITUTE(C1,"North","N")') == "N"

    def test_text_concatenation_operator(self, evaluator):
        assert evaluator.evaluate_formula('=C1&"-"&A1') == "North-10"

    def test_date_functions(self, evaluator):
        assert evaluator.evaluate_formula("=YEAR(D1)") == 2023
        assert evaluator.evaluate_formula("=MONTH(D1)") == 5
        assert evaluator.evaluate_formula("=DAY(D1)") == 15
        assert evaluator.evaluate_formula("=DATE(2024,2,29)") == datetime.date(2024, 2, 29)


class TestEvaluatorMechanics:
    def test_arithmetic_and_comparison(self, evaluator):
        assert evaluator.evaluate_formula("=A1+A2*2") == 50
        assert evaluator.evaluate_formula("=(A1+A2)*2") == 60
        assert evaluator.evaluate_formula("=A1^2") == 100
        assert evaluator.evaluate_formula("=A1<A2") is True
        assert evaluator.evaluate_formula("=50%") == 0.5

    def test_division_by_zero_raises(self, evaluator):
        assert_error(evaluator.evaluate_formula("=A1/0"), DIV0_ERROR)

    def test_unknown_function_raises(self, evaluator):
        assert_error(evaluator.evaluate_formula("=NOTAFUNCTION(A1)"), NAME_ERROR)

    def test_transitive_formula_evaluation(self):
        sheet = Sheet()
        sheet.set("A1", 2)
        sheet.set("A2", formula="=A1*10")
        sheet.set("A3", formula="=A2+5")
        assert FormulaEngine(sheet).evaluate_cell("A3") == 25

    def test_circular_reference_detected(self):
        sheet = Sheet()
        sheet.set("A1", formula="=A2")
        sheet.set("A2", formula="=A1")
        assert_error(FormulaEngine(sheet).evaluate_cell("A1"), CYCLE_ERROR)

    def test_recalculate_writes_values(self):
        sheet = Sheet()
        sheet.set("A1", 3)
        sheet.set("A2", 4)
        sheet.set("A3", formula="=SUM(A1:A2)")
        report = FormulaEngine(sheet).recalculate()
        assert (report.recalculated, report.errored) == (1, 0)
        assert report.total == 1
        assert sheet.get("A3").value == 7

    def test_evaluate_cell_plain_value(self, data_sheet):
        assert FormulaEngine(data_sheet).evaluate_cell("A1") == 10


class TestSeedRegressions:
    """Regression tests for the seed evaluator's bugs (each fails there)."""

    def test_evaluate_formula_sees_sheet_mutation(self, data_sheet):
        # Seed bug: the per-instance value cache was never invalidated, so
        # the second evaluation returned the pre-edit sum (150).
        evaluator = FormulaEngine(data_sheet)
        assert evaluator.evaluate_formula("=SUM(A1:A5)") == 150
        data_sheet.set("A1", 1000)
        assert evaluator.evaluate_formula("=SUM(A1:A5)") == 1140

    def test_recalculate_sees_sheet_mutation(self):
        # Seed bug: recalculate() after an edit recomputed from the stale
        # cache and left A2 at its pre-edit value.
        sheet = Sheet()
        sheet.set("A1", 2)
        sheet.set("A2", formula="=A1*10")
        evaluator = FormulaEngine(sheet)
        evaluator.recalculate()
        assert sheet.get("A2").value == 20
        sheet.set("A1", 5)
        evaluator.recalculate()
        assert sheet.get("A2").value == 50

    def test_string_number_equality_is_false(self, evaluator):
        # Seed bug: mixed operands were coerced to lowercased strings, so
        # ="1"=1 evaluated TRUE.  Excel: numbers and text never compare
        # equal, and text sorts above numbers for ordering operators.
        assert evaluator.evaluate_formula('="1"=1') is False
        assert evaluator.evaluate_formula('="1"<>1') is True
        assert evaluator.evaluate_formula('=1<"a"') is True
        assert evaluator.evaluate_formula('="a">999') is True
        assert evaluator.evaluate_formula('="Apple"="APPLE"') is True

    def test_concatenation_renders_booleans_uppercase(self, evaluator):
        # Seed bug: _as_text used str(), producing "True"/"False".
        assert evaluator.evaluate_formula('=TRUE&""') == "TRUE"
        assert evaluator.evaluate_formula('="is "&FALSE') == "is FALSE"
        assert evaluator.evaluate_formula("=(A1>5)&(A1>15)") == "TRUEFALSE"

    def test_recalculate_reports_and_commits_errors(self):
        # Seed bug: failures were silently swallowed, keeping stale values
        # with no signal.  Now the error value is committed and counted.
        sheet = Sheet()
        sheet.set("A1", 10)
        sheet.set("B1", formula="=A1/0")
        sheet.set("B2", formula="=B1+1")
        sheet.set("C1", formula="=A1*2")
        report = FormulaEngine(sheet).recalculate()
        assert (report.recalculated, report.errored) == (1, 2)
        assert sheet.get("B1").value == "#DIV/0!"
        assert sheet.get("B2").value == "#DIV/0!"
        assert sheet.get("C1").value == 20
