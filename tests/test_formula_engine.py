"""Tests for the incremental dependency-graph recalculation engine."""

import contextlib
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formula import (
    CYCLE_ERROR,
    DIV0_ERROR,
    NAME_ERROR,
    VALUE_ERROR,
    ErrorValue,
    FormulaEngine,
    is_error_value,
)
from repro.features import FeatureConfig, WindowFeaturizer
from repro.formula.functions import Grid
from repro.sheet import CellAddress, Sheet


def _chain_sheet() -> Sheet:
    sheet = Sheet()
    sheet.set("A1", 3)
    sheet.set("A2", 4)
    sheet.set("B1", formula="=SUM(A1:A2)")
    sheet.set("B2", formula="=B1*2")
    sheet.set("C1", formula="=A1+1")
    return sheet


class TestDependencyGraph:
    def test_precedents_and_dependents(self):
        engine = FormulaEngine(_chain_sheet())
        cells, ranges = engine.precedents_of("B2")
        assert cells == (CellAddress.from_a1("B1"),)
        assert ranges == ()
        __, b1_ranges = engine.precedents_of("B1")
        assert [r.to_a1() for r in b1_ranges] == ["A1:A2"]
        assert engine.dependents_of("B1") == {CellAddress.from_a1("B2")}
        # Range containment: A1 feeds B1 (via A1:A2) and C1 (directly).
        assert engine.dependents_of("A1") == {
            CellAddress.from_a1("B1"),
            CellAddress.from_a1("C1"),
        }

    def test_set_formula_rewires_edges(self):
        sheet = _chain_sheet()
        engine = FormulaEngine(sheet)
        engine.recalculate()
        engine.set_formula("C1", "=A2+1")
        assert engine.dependents_of("A2") >= {CellAddress.from_a1("C1")}
        engine.recalculate()
        # A1 edits no longer reach C1 through the old =A1+1 edge.
        engine.set_value("A1", 30)
        report = engine.recalculate()
        assert sheet.get("C1").value == 5
        assert sheet.get("B1").value == 34
        assert report.total == 2  # B1 and B2 only

    def test_set_value_clears_formula_node(self):
        sheet = _chain_sheet()
        engine = FormulaEngine(sheet)
        engine.recalculate()
        engine.set_value("B1", 100)
        report = engine.recalculate()
        assert sheet.get("B1").value == 100
        assert not sheet.get("B1").has_formula
        assert sheet.get("B2").value == 200
        assert report.total == 1  # only B2 recomputed


class TestIncrementality:
    def test_single_edit_recomputes_only_dirty_subgraph(self):
        sheet = Sheet()
        for row in range(50):
            sheet.set((row, 0), float(row + 1))
            sheet.set((row, 1), formula=f"=A{row + 1}*2")
        sheet.set((50, 2), formula="=SUM(B1:B50)")
        engine = FormulaEngine(sheet)
        first = engine.recalculate()
        assert first.total == 51
        engine.set_value("A10", 0.5)
        report = engine.recalculate()
        # Exactly the edited row's formula and the aggregate recompute.
        assert report.total == 2
        assert sheet.get("B10").value == 1.0

    def test_clean_recalculate_is_a_no_op(self):
        engine = FormulaEngine(_chain_sheet())
        engine.recalculate()
        report = engine.recalculate()
        assert report.total == 0

    def test_external_mutation_triggers_resync(self):
        sheet = _chain_sheet()
        engine = FormulaEngine(sheet)
        engine.recalculate()
        engine.set_value("A2", 4)
        report = engine.recalculate()
        assert report.total == 2  # B1 and B2: an edit through the engine stays incremental
        # Mutation behind the engine's back (plain sheet.set, no engine).
        sheet.set("A2", 40)
        report = engine.recalculate()
        assert report.total == 3  # full resync: everything recomputed
        assert sheet.get("B1").value == 43


class TestRecalculationMovesTheVersion:
    def test_a_version_keyed_tensor_sees_the_recalculated_values(self):
        """Fails at the parent: the values were written into the cells in
        place, the version stayed, and the sheet's cached tensor was the one
        from before the recalculation."""
        sheet = Sheet()
        sheet.set("A1", 1.0)
        sheet.set("A2", 2.0)
        sheet.set("A3", formula="=A1+A2")
        featurizer = WindowFeaturizer(FeatureConfig(window_rows=8, window_cols=4, content_embedding_dim=16))
        stale = featurizer.featurize_sheet(sheet)
        version = sheet.version
        engine = FormulaEngine(sheet)
        engine.recalculate()
        assert sheet.get("A3").value == 3.0 and sheet.version == version + 1
        fresh = WindowFeaturizer(featurizer.config).featurize_sheet(sheet)
        assert not np.array_equal(fresh, stale)
        assert np.array_equal(featurizer.featurize_sheet(sheet), fresh)
        # The engine made the change itself: its watermark moved along.
        engine.set_value("A1", 5.0)
        assert engine.recalculate().total == 1  # incremental: no resync
        assert sheet.get("A3").value == 7.0

    def test_the_version_moves_once_and_only_when_a_value_changed(self):
        sheet = _chain_sheet()
        engine = FormulaEngine(sheet)
        version = sheet.version
        engine.recalculate()
        assert sheet.version == version + 1  # three new values, one bump
        engine.set_value("A2", 4)  # the same value: every formula recomputes to itself
        version = sheet.version
        assert engine.recalculate().total == 2
        assert sheet.version == version
        engine.set_formula("C1", "=A1*1")  # written without a value
        version = sheet.version
        engine.recalculate()
        assert sheet.get("C1").value == 3 and sheet.version == version + 1

    @pytest.mark.parametrize(
        "old, new, same",
        [
            (3.0, 3.0, True),
            (3, 3.0, False),
            (1, True, False),
            (0.0, -0.0, False),
            (float("nan"), float("nan"), False),
            ("#DIV/0!", DIV0_ERROR, False),
            (DIV0_ERROR, ErrorValue("#DIV/0!"), True),
            (None, 0.0, False),
        ],
    )
    def test_what_counts_as_a_changed_value(self, old, new, same):
        sheet = Sheet()
        sheet.set("A1", old, formula="=1")
        version = sheet.version
        changed = sheet._commit_values([(CellAddress(0, 0), new)])
        # A cell that already shows its value is not rewritten.
        assert sheet.get("A1").value is (old if same else new)
        assert changed == ([] if same else [CellAddress(0, 0)])
        assert sheet.version == version + (not same)


class TestCyclesAndErrors:
    def test_a_reference_that_names_no_cell_is_a_name_error(self):
        # Excel reads "A0" and "XFE1" as names nothing defines.
        sheet = Sheet()
        sheet.set("A1", formula="=A0")
        sheet.set("A2", formula="=XFE1+1")
        sheet.set("A3", formula="=IFERROR(A1,7)")
        FormulaEngine(sheet).recalculate()
        assert sheet.get("A1").value == sheet.get("A2").value == "#NAME?"
        assert sheet.get("A3").value == 7

    def test_self_reference_is_cycle(self):
        sheet = Sheet()
        sheet.set("A1", formula="=A1+1")
        FormulaEngine(sheet).recalculate()
        assert sheet.get("A1").value == CYCLE_ERROR

    def test_two_cell_cycle_marks_both_and_dependents(self):
        sheet = Sheet()
        sheet.set("A1", formula="=A2")
        sheet.set("A2", formula="=A1")
        sheet.set("A3", formula="=A1+1")
        report = FormulaEngine(sheet).recalculate()
        assert report == (0, 3)
        assert sheet.get("A1").value == CYCLE_ERROR
        assert sheet.get("A2").value == CYCLE_ERROR
        assert sheet.get("A3").value == CYCLE_ERROR

    def test_diamond_is_not_a_false_cycle(self):
        sheet = Sheet()
        sheet.set("A1", 1)
        sheet.set("B1", formula="=A1")
        sheet.set("C1", formula="=A1")
        sheet.set("D1", formula="=B1+C1")
        report = FormulaEngine(sheet).recalculate()
        assert report == (3, 0)
        assert sheet.get("D1").value == 2

    def test_a_loop_closed_through_an_untaken_if_arm_is_a_cycle(self):
        """The graph is static: every reference is an edge, taken or not."""
        sheet = Sheet()
        sheet.set("A1", formula="=IF(TRUE,1,B1)")
        sheet.set("B1", formula="=A1")
        assert FormulaEngine(sheet).recalculate() == (0, 2)
        assert sheet.get("A1").value == CYCLE_ERROR
        assert sheet.get("B1").value == CYCLE_ERROR

    def test_iferror_over_a_cycle_member_is_a_cycle(self):
        """Whichever cell is read first, neither catches the other's error."""
        sheet = Sheet()
        sheet.set("A1", formula="=IFERROR(B1,5)")
        sheet.set("B1", formula="=A1")
        engine = FormulaEngine(sheet)
        assert engine.evaluate_cell("A1") == CYCLE_ERROR
        assert engine.evaluate_cell("B1") == CYCLE_ERROR
        engine.recalculate()
        assert sheet.get("A1").value == CYCLE_ERROR
        assert sheet.get("B1").value == CYCLE_ERROR

    def test_a_formula_written_downstream_of_a_committed_cycle_is_a_cycle(self):
        sheet = Sheet()
        sheet.set("A1", formula="=A2")
        sheet.set("A2", formula="=A1")
        engine = FormulaEngine(sheet)
        engine.recalculate()
        # The cycle stays dirty, so its #CYCLE! is not a committed error
        # that IFERROR could catch.
        engine.set_formula("B1", "=IFERROR(A1,5)")
        assert engine.recalculate() == (0, 3)
        assert sheet.get("B1").value == CYCLE_ERROR
        assert [cell.value for __, cell in _full_pass_copy(sheet).cells()] == [
            cell.value for __, cell in sheet.cells()
        ]

    def test_breaking_a_cycle_clears_the_error(self):
        sheet = Sheet()
        sheet.set("A1", formula="=A2")
        sheet.set("A2", formula="=A1")
        engine = FormulaEngine(sheet)
        engine.recalculate()
        engine.set_value("A2", 7)
        engine.recalculate()
        assert sheet.get("A1").value == 7
        assert engine.recalculate().total == 0

    def test_errors_propagate_through_operators_and_functions(self):
        sheet = Sheet()
        sheet.set("A1", formula="=1/0")
        sheet.set("A2", 5)
        sheet.set("B1", formula="=A1&A2")
        sheet.set("B2", formula="=A1=A2")
        sheet.set("B3", formula="=SUM(A1:A2)")
        sheet.set("B4", formula="=-A1")
        FormulaEngine(sheet).recalculate()
        for address in ("A1", "B1", "B2", "B3", "B4"):
            assert sheet.get(address).value == DIV0_ERROR

    def test_iferror_catches_error_values(self):
        sheet = Sheet()
        sheet.set("A1", formula="=1/0")
        sheet.set("B1", formula='=IFERROR(A1,"caught")')
        sheet.set("B2", formula="=IFERROR(A1)")
        sheet.set("B3", formula="=IFERROR(41+1,0)")
        FormulaEngine(sheet).recalculate()
        assert sheet.get("B1").value == "caught"
        assert sheet.get("B2").value == ""
        assert sheet.get("B3").value == 42

    def test_if_branches_are_lazy(self):
        sheet = Sheet()
        sheet.set("A1", 0)
        sheet.set("B1", formula="=IF(A1=0,0,100/A1)")
        engine = FormulaEngine(sheet)
        engine.recalculate()
        assert sheet.get("B1").value == 0
        engine.set_value("A1", 4)
        engine.recalculate()
        assert sheet.get("B1").value == 25
        # ... but an error in the *condition* still propagates.
        engine.set_formula("C1", "=IF(1/0,1,2)")
        engine.recalculate()
        assert sheet.get("C1").value == DIV0_ERROR

    def test_unknown_function_and_bad_syntax_become_error_values(self):
        sheet = Sheet()
        sheet.set("A1", formula="=NOTAFUNCTION(1)")
        sheet.set("A2", formula="=SUM((")
        report = FormulaEngine(sheet).recalculate()
        assert report == (0, 2)
        assert sheet.get("A1").value == NAME_ERROR
        assert sheet.get("A2").value == NAME_ERROR

    def test_error_values_are_strings_and_typed_error(self):
        from repro.sheet.cell import CellType, infer_cell_type

        assert DIV0_ERROR == "#DIV/0!"
        assert is_error_value(DIV0_ERROR)
        assert not is_error_value("#DIV/0!")
        assert infer_cell_type(str(VALUE_ERROR)) is CellType.ERROR
        assert isinstance(ErrorValue("#DIV/0!"), str)

    def test_error_values_survive_serialization_round_trip(self):
        from repro.sheet.io import sheet_from_dict, sheet_to_dict

        source = Sheet()
        source.set("A1", formula="=1/0")
        FormulaEngine(source).recalculate()
        # A value-only carrier of the committed error (e.g. a mirrored
        # column, as the sales template builds): after a round-trip the
        # value must still *be* an error, not equal-looking text.
        carrier = Sheet()
        carrier.set("A1", source.get("A1").value)
        carrier.set("A2", 5)
        reloaded = sheet_from_dict(sheet_to_dict(carrier))
        assert is_error_value(reloaded.get("A1").value)
        engine = FormulaEngine(reloaded)
        assert engine.evaluate_formula("=SUM(A1:A2)") == DIV0_ERROR
        assert engine.evaluate_formula("=A1=5") == DIV0_ERROR


    def test_a_range_result_commits_one_scalar(self):
        """A cell holds one scalar, so the sheet's payload decodes again:
        a one-cell range is that cell's value, a larger one ``#VALUE!``."""
        from repro.sheet.io import sheet_from_dict, sheet_to_dict

        sheet = Sheet()
        sheet.set("A1", 4.0)
        sheet.set("A2", 5.0)
        sheet.set("B1", formula="=A1:A1")
        sheet.set("B2", formula="=A1:A2")
        sheet.set("B3", formula="=SUM(B1:B2)")
        sheet.set("B4", formula="=B1*2")
        FormulaEngine(sheet).recalculate()
        assert sheet.get("B1").value == 4.0
        assert sheet.get("B2").value == VALUE_ERROR and sheet.get("B3").value == VALUE_ERROR
        assert sheet.get("B4").value == 8.0
        restored = sheet_from_dict(sheet_to_dict(sheet))
        assert [cell.value for __, cell in restored.cells()] == [
            cell.value for __, cell in sheet.cells()
        ]

    @pytest.mark.parametrize(
        "formula",
        [
            "=LEN(A1:A3)", "=UPPER(A1:A2)", '=A1:A2&"x"', '="x"&A1:A2', "=TRIM(A1:B2)",
            "=LEFT(A1:A2)", "=RIGHT(A1:A2,1)", "=MID(A1:A2,1,1)", "=LOWER(B1:B2)",
            '=SUBSTITUTE(B1:B2,"a","b")', '=SUBSTITUTE(B1,A1:A2,"b")', '=TEXT(A1,A1:A2)',
            "=ROUND(A1:A2)", "=-A1:A2", "=A1:A2+1", "=A1:A2=0",
        ],
    )
    def test_a_range_has_no_text(self, formula):
        """A range is no one number or text: it used to read Python's text
        of a list (``=LEN(A1:A3)`` 15.0, ``=UPPER(A1:A2)`` "[0.0, 3.0]",
        ``=A1:A2&"x"`` "[0.0, 3.0]x", ``=TRIM(A1:B2)``
        "[[0.0, 'ab'], [3.0, None]]")."""
        sheet = Sheet()
        for row, value in enumerate((0.0, 3.0, 6.0)):
            sheet.set((row, 0), value)
        sheet.set("B1", "ab")
        value = FormulaEngine(sheet).evaluate_formula(formula)
        assert type(value) is ErrorValue and value == VALUE_ERROR


class TestEvaluateWithoutCommit:
    def test_evaluate_formula_does_not_write_values(self):
        sheet = _chain_sheet()
        engine = FormulaEngine(sheet)
        assert engine.evaluate_formula("=B2+1") == 15
        assert sheet.get("B1").value is None
        assert sheet.get("B2").value is None

    def test_evaluate_cell_follows_chain(self):
        engine = FormulaEngine(_chain_sheet())
        assert engine.evaluate_cell("B2") == 14
        assert engine.evaluate_cell("A1") == 3

    def test_evaluate_sees_transitive_dirtiness_before_recalc(self):
        # Regression: the dirty set must be closed under dependents, or an
        # evaluation between an engine-mediated edit and the next
        # recalculate() would serve B2's committed pre-edit value.
        sheet = _chain_sheet()
        engine = FormulaEngine(sheet)
        engine.recalculate()
        engine.set_value("A1", 30)
        assert engine.evaluate_cell("B2") == 68
        assert engine.evaluate_formula("=B2+1") == 69
        assert sheet.get("B2").value == 14  # nothing committed yet
        engine.recalculate()
        assert sheet.get("B2").value == 68


def _random_sheet(rng: np.random.Generator) -> Sheet:
    """A random grid with per-row formulas, chained cells and aggregates."""
    sheet = Sheet("Random")
    n_rows = int(rng.integers(6, 14))
    for row in range(n_rows):
        sheet.set((row, 0), float(rng.integers(0, 50)))
        sheet.set((row, 1), float(np.round(rng.uniform(0.5, 100.0), 2)))
        sheet.set((row, 2), formula=f"=A{row + 1}+B{row + 1}")
        # Guarded and unguarded divisions: edits that write zeros turn the
        # unguarded ones into #DIV/0! cells, exercising error parity.
        if row % 2:
            sheet.set((row, 3), formula=f"=ROUND(B{row + 1}/A{row + 1},2)")
        else:
            sheet.set((row, 3), formula=f"=IF(A{row + 1}=0,0,B{row + 1}/A{row + 1})")
    sheet.set((n_rows, 2), formula=f"=SUM(C1:C{n_rows})")
    sheet.set((n_rows, 3), formula=f"=COUNT(D1:D{n_rows})")
    sheet.set((n_rows + 1, 2), formula=f"=C{n_rows + 1}*2")
    return sheet


def _full_pass_copy(sheet: Sheet) -> Sheet:
    """A fresh full-pass evaluation of the sheet's final state."""
    fresh = Sheet(sheet.name)
    for address, cell in sheet.cells():
        fresh.set(address, None if cell.has_formula else cell.value, cell.formula, cell.style)
    FormulaEngine(fresh).recalculate()
    return fresh


class TestIncrementalFullPassParity:
    """N random edits + incremental recalc == fresh full pass (property)."""

    def test_random_edit_streams_match_full_pass(self, rng):
        for __ in range(4):
            sheet = _random_sheet(rng)
            engine = FormulaEngine(sheet)
            engine.recalculate()
            n_rows = sheet.n_rows
            for __ in range(20):
                row = int(rng.integers(0, n_rows - 2))
                col = int(rng.integers(0, 2))
                if rng.random() < 0.15:
                    value = 0.0  # force some #DIV/0! transitions
                else:
                    value = float(np.round(rng.uniform(0.0, 200.0), 2))
                engine.set_value((row, col), value)
                engine.recalculate()
            fresh = _full_pass_copy(sheet)
            for address, cell in sheet.cells():
                assert fresh.get(address).value == cell.value, (
                    f"divergence at {address.to_a1()}: incremental "
                    f"{cell.value!r} vs full pass {fresh.get(address).value!r}"
                )

    def test_formula_edits_match_full_pass(self, rng):
        sheet = _random_sheet(rng)
        engine = FormulaEngine(sheet)
        engine.recalculate()
        n_rows = sheet.n_rows
        formulas = ("=A{r}*2", "=B{r}-A{r}", "=IFERROR(B{r}/A{r},-1)", "=MAX(A{r},B{r})")
        for step in range(12):
            row = int(rng.integers(0, n_rows - 2))
            template = formulas[int(rng.integers(len(formulas)))]
            engine.set_formula((row, 2), template.format(r=row + 1))
            engine.recalculate()
        fresh = _full_pass_copy(sheet)
        for address, cell in sheet.cells():
            assert fresh.get(address).value == cell.value


def _running_total(engine: FormulaEngine, rows: range) -> None:
    """``B{r} = B{r+1} + A{r}`` over ``rows``, every ``A`` cell 1: a total
    whose formulas point down, written top to bottom with a recalculation
    after every edit."""
    for row in rows:
        engine.set_value(f"A{row}", 1.0)
        engine.set_formula(f"B{row}", f"=B{row + 1}+A{row}")
        engine.recalculate()


def _nested_links(n_links: int, depth: int) -> list:
    """``(address, formula)`` of a chain whose links are ``depth``-deep
    ``SUM(SUM(…))`` calls around the next link; the last link reads a 1."""
    links = [
        (f"A{row}", "=" + "SUM(" * depth + f"A{row + 1}" + ")" * depth)
        for row in range(1, n_links + 1)
    ]
    return links + [(f"A{n_links + 1}", 1.0)]


class TestDependencyOrder:
    """A cell's value is a function of the sheet, not of the edit history
    or of where a recalculation happened to start."""

    def test_a_running_total_pointing_down_is_the_same_however_it_was_built(self):
        whole = Sheet()
        for row in range(2, 202):
            whole.set(f"A{row}", 1.0)
            whole.set(f"B{row}", formula=f"=B{row + 1}+A{row}")
        FormulaEngine(whole).recalculate()
        assert whole.get("B2").value == 200.0

        built = Sheet()
        engine = FormulaEngine(built)
        _running_total(engine, range(2, 202))
        assert built.get("B2").value == 200.0
        engine.set_value("A201", 1.0)
        engine.recalculate()
        assert built.get("B2").value == 200.0
        assert [cell.value for __, cell in built.cells()] == [
            cell.value for __, cell in whole.cells()
        ]

    def test_a_chain_of_nested_links_built_edit_by_edit_equals_a_full_pass(self):
        sheet = Sheet()
        engine = FormulaEngine(sheet)
        for address, content in _nested_links(63, 40):
            if isinstance(content, str):
                engine.set_formula(address, content)
            else:
                engine.set_value(address, content)
            engine.recalculate()
        assert sheet.get("A1").value == 1.0
        fresh = _full_pass_copy(sheet)
        for address, cell in sheet.cells():
            assert fresh.get(address).value == cell.value, address.to_a1()

    def test_the_deepest_admitted_chain_recalculates_in_an_executor_thread(self):
        """As the server's edit path runs it: 500 links, each a tree as tall
        as the parser admits, and no ``RecursionError``."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.formula.parser import MAX_AST_HEIGHT

        def recalculate():
            sheet = Sheet()
            for row in range(1, 501):
                sheet.set(f"A{row}", formula=f"=A{row + 1}" + "+1" * (MAX_AST_HEIGHT - 1))
            assert FormulaEngine(sheet).recalculate() == (500, 0)
            return sheet.get("A1").value

        with ThreadPoolExecutor(max_workers=1) as executor:
            assert executor.submit(recalculate).result() == 500.0 * (MAX_AST_HEIGHT - 1)


class TestRangesOverTheExtent:
    """A range's value is a ``repro.formula.functions.Grid`` read over the
    range's intersection with the sheet's used extent, wherever the range
    stands: every cell past the extent is blank without being read.  A
    function that reads a range's cells in order sees one blank for all
    of them (``COUNTBLANK`` counts them), a lookup or an aligned ``*IF(S)``
    range sees them blank by position.  Its value is the one a range read
    address by address gives, error values included."""

    AGGREGATES = (
        "AND", "AVERAGE", "AVG", "CONCAT", "CONCATENATE", "COUNT", "COUNTA", "COUNTBLANK",
        "COUNTIF", "MAX", "MEDIAN", "MIN", "OR", "PRODUCT", "STDEV", "SUM", "VAR",
    )
    TEMPLATES = [f"{name}({{a}})" for name in AGGREGATES] + [
        f"{name}({{a}},{{b}},2)" for name in AGGREGATES if name != "COUNTIF"
    ] + [
        'COUNTIF({a},">2")', 'COUNTIF({a},"a")', 'COUNTIF({a},"")', "COUNTIF({a},{b})",
        "ISBLANK({a})", "SUM({a})+COUNTBLANK({b})",
        "INDEX({a},{i},{j})", "INDEX({a},{i})", "INDEX({a},{x},1)",
        "MATCH({v},{a},0)", "MATCH({x},{a},0)", "MATCH(Z99,{a},0)",
        "VLOOKUP({v},{a},{j})", "VLOOKUP({v},{a},{j},TRUE)", "VLOOKUP(Z99,{a},{j})",
        "HLOOKUP({v},{a},{j})", "HLOOKUP({v},{a},{j},TRUE)", "HLOOKUP(Z99,{a},{i})",
        'SUMIF({a},">1")', 'SUMIF({a},"<>a",{b})', "SUMIF({a},{v},{b})",
        'AVERAGEIF({a},"<5",{b})', 'AVERAGEIF({a},">0")',
        'COUNTIFS({a},">0",{b},"<5")', 'COUNTIFS({a},"<>3")', 'COUNTIFS({a},"",{b},"<>a")',
        'COUNTIFS({a},"<>x",{b},"<>y")', 'COUNTIFS({a},">0",{b})',
        'SUMIFS({b},{a},">0")', 'SUMIFS({b},{a},"<>a",{a},"<9")', 'SUMIFS({a},{b},"")',
        "SUMIF({a},{v},{b})+MATCH({v},{b},0)",
        # A range that is no function's argument.
        "SUM(IF(TRUE,{a}))", "INDEX(IF({v},{a},{b}),{i},{j})", "IFERROR({a},0)", "{a}+1",
        "LEN({a})", "{a}", 'IF({v},{a},"n")&"x"', "COUNTBLANK(IF(TRUE,{a},{b}))",
        "AND(IFERROR({a},{b}))", "MATCH({v},IF({v},{a}),0)",
    ]
    VALUES = [None, 0.0, -0.0, 1.0, 2.5, 3.0, 7.0, "", "a", "A", "3", "x y", True, False, DIV0_ERROR]
    #: Lookup values; a reference to ``Z99``, past every extent, is a blank.
    LOOKUPS = ["1", "3", "2.5", '"a"', '"3"', '""', "TRUE", "0", "A1", "B2"]

    @staticmethod
    def _every_address(engine, cell_range):
        """The reference range read: every address read on its own into a
        grid that holds all of its cells."""
        start, end = cell_range.start, cell_range.end
        values = [
            engine._read(CellAddress(row, col))
            for row in range(start.row, end.row + 1)
            for col in range(start.col, end.col + 1)
        ]
        if cell_range.n_rows == 1 or cell_range.n_cols == 1:
            return Grid(len(values), 1, len(values), 1, values)
        rows, cols = cell_range.n_rows, cell_range.n_cols
        return Grid(rows, cols, rows, cols, values)

    @settings(max_examples=800, deadline=None)
    @given(data=st.data())
    def test_equals_the_per_address_evaluation(self, data):
        n_rows, n_cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
        sheet = Sheet("s")
        for row in range(n_rows):
            for col in range(n_cols):
                value = data.draw(st.sampled_from(self.VALUES))
                if value is not None:
                    sheet.set((row, col), value)
        sheet.set((n_rows - 1, n_cols - 1), 1.0)  # pin the extent

        def span():
            row, col = data.draw(st.integers(0, n_rows + 1)), data.draw(st.integers(0, n_cols + 1))
            end = CellAddress(row + data.draw(st.integers(0, 6)), col + data.draw(st.integers(0, 4)))
            return f"{CellAddress(row, col).to_a1()}:{end.to_a1()}"

        formula = "=" + data.draw(st.sampled_from(self.TEMPLATES)).format(
            a=span(),
            b=span(),
            v=data.draw(st.sampled_from(self.LOOKUPS)),
            i=data.draw(st.integers(0, 9)),
            j=data.draw(st.integers(0, 6)),
            x="Z99+" + str(data.draw(st.integers(1, 9))),
        )
        value = FormulaEngine(sheet).evaluate_formula(formula)
        with mock.patch.object(FormulaEngine, "_range", self._every_address):
            expected = FormulaEngine(sheet).evaluate_formula(formula)
        assert type(value) is type(expected) and repr(value) == repr(expected), formula

    @staticmethod
    def _five_rows():
        sheet = Sheet("s")
        for row in range(5):
            for col in range(3):
                sheet.set((row, col), float(3 * row + col))
        return sheet

    @staticmethod
    @contextlib.contextmanager
    def _count_reads(engine, budget):
        """Count every stored cell the engine looks up in the sheet inside
        the block, and fail at the first one past ``budget`` (instead of
        reading on)."""
        reads = []

        class Counting(dict):
            def get(self, key, default=None):
                reads.append(key)
                assert len(reads) <= budget, "read a cell past the used extent"
                return dict.get(self, key, default)

        sheet = engine.sheet
        sheet._cells = Counting(sheet._cells)
        try:
            yield reads
        finally:
            sheet._cells = dict(sheet._cells)

    @pytest.mark.parametrize(
        "cell, formula, expected",
        [
            ("AA1", "=SUM(A1:Z20000)", 105.0),
            ("A7", "=SUM(B1:XFD1048576)", 75.0),
            ("D1", "=COUNTBLANK(A1:A20000)", 19995.0),
            ("D2", "=AVERAGE(A1:C1048576)", 7.0),
            ("E1", "=MATCH(5,A1:A100000,0)", "#VALUE!"),
            ("E1", "=MATCH(9,A1:A100000,0)", 4.0),
            ("A7", "=MATCH(Z99,A1:D2,0)", 4.0),  # D1, past the extent, comes first
            ("E1", '=SUMIF(A1:A100000,">2")', 30.0),
            ("E1", "=VLOOKUP(5,A1:B1048576,2)", "#VALUE!"),
            ("E1", "=VLOOKUP(9,A1:B1048576,2)", 10.0),
            ("E1", "=HLOOKUP(1,A1:C1048576,5)", 13.0),
            ("E1", "=INDEX(A1:C1048576,5,3)", 14.0),
            ("E1", '=COUNTIFS(A1:A100000,"<>3",B1:B100000,"<>x")', 99999.0),
            ("E1", '=SUMIFS(C1:C1048576,A1:A1048576,">2")', 38.0),
            # Ranges that are no function's argument.  A range over the whole
            # sheet holds its own cell (a cycle, decided before any read), so
            # those in a cell start at column B.
            ("AA1", "=SUM(IF(TRUE,A1:Z20000))", 105.0),
            ("A7", "=IF(TRUE,B1:XFD1048576)", "#VALUE!"),
            ("A7", "=SUM(IF(TRUE,B1:XFD1048576))", 75.0),
            ("E1", "=INDEX(IF(TRUE,A1:C1048576),5,3)", 14.0),
            ("A7", "=IFERROR(B1:XFD1048576,0)", "#VALUE!"),
            ("E1", "=A1:A1048576+1", "#VALUE!"),
            ("D1", "=COUNTBLANK(IF(TRUE,A1:A20000))", 19995.0),
        ],
    )
    def test_a_whole_grid_range_reads_what_the_sheet_stores(self, cell, formula, expected):
        """The probes of a five-row sheet: each answers Excel's value (a
        cell holds ``#VALUE!`` for a range of many cells) and reads no more
        cells than the used extent holds."""
        sheet = self._five_rows()
        engine = FormulaEngine(sheet)
        engine.recalculate()
        engine.set_formula(cell, formula)
        with self._count_reads(engine, sheet.n_rows * sheet.n_cols) as reads:
            engine.recalculate()
        assert sheet.get(cell).value == expected
        assert 0 < len(reads) <= sheet.n_rows * sheet.n_cols

    @pytest.mark.parametrize(
        "formula, expected",
        [
            ("=IF(TRUE,A1:XFD1048576)", "#VALUE!"),
            ("=SUM(IF(TRUE,B1:XFD1048576))", 75.0),
            ("=INDEX(IF(TRUE,A1:C1048576),5,3)", 14.0),
            ("=IFERROR(A1:XFD1048576,0)", "#VALUE!"),
            ("=A1:A1048576+1", "#VALUE!"),
        ],
    )
    def test_a_formula_evaluated_outside_a_cell_reads_what_the_sheet_stores(
        self, formula, expected
    ):
        """``evaluate_formula`` answers what a cell would hold, over the
        whole sheet too, and reads no cell past the used extent."""
        sheet = self._five_rows()
        engine = FormulaEngine(sheet)
        engine.recalculate()
        with self._count_reads(engine, sheet.n_rows * sheet.n_cols) as reads:
            assert engine.evaluate_formula(formula) == expected
        assert 0 < len(reads) <= sheet.n_rows * sheet.n_cols


class TestOneValue:
    """Wherever a formula wants one value (an ``IF`` condition, ``NOT``,
    the ``VLOOKUP`` flag, an operand, a number or text argument), a range
    of one cell is that cell and a larger range is ``#VALUE!``, as in what
    a cell holds.  (``AND``, ``OR`` and ``SUM`` read a range's cells:
    :class:`TestRangesOverTheExtent`.)"""

    @pytest.mark.parametrize(
        "formula, expected",
        [
            ("=IF(B1:B9,1,2)", VALUE_ERROR),
            ("=IF(A1:A2,1,2)", VALUE_ERROR),
            ("=NOT(B1:B9)", VALUE_ERROR),
            ('=C1:C1&"x"', "abcx"),
            ("=LEN(C1:C1)", 3.0),
            ("=D1:D1+1", 5.0),
            ("=ABS(D1:D1)", 4.0),
            ("=-D1:D1", -4.0),
            ("=VLOOKUP(5,D1:E1,1,A1:A2)", VALUE_ERROR),
            ('=TEXT(D1:D1,"0.0")', "4.0"),
            ("=YEAR(G1:G1)", 2024.0),
        ],
    )
    def test_a_range_where_one_value_is_wanted(self, formula, expected):
        """A sheet of A1 FALSE, A2 0, C1 "abc", D1 4 and G1 a date:
        evaluated, and committed into a cell."""
        sheet = Sheet("s")
        cells = (("A1", False), ("A2", 0.0), ("C1", "abc"), ("D1", 4.0), ("G1", date(2024, 3, 5)))
        for address, value in cells:
            sheet.set(address, value)
        engine = FormulaEngine(sheet)
        assert repr(engine.evaluate_formula(formula)) == repr(expected)
        engine.set_formula("F1", formula)
        engine.recalculate()
        assert repr(sheet.get("F1").value) == repr(expected)
