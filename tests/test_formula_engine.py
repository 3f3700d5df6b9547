"""Tests for the incremental dependency-graph recalculation engine."""

import numpy as np
import pytest

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
        engine.recalculate()
        # Neither the construction's own resync nor an edit through the
        # engine counts: only the watermark catching an outside edit does.
        assert engine.counters() == {"engine.full_resync": 0}
        # Mutation behind the engine's back (plain sheet.set, no engine).
        sheet.set("A2", 40)
        report = engine.recalculate()
        assert report.total == 3  # full resync: everything recomputed
        assert sheet.get("B1").value == 43
        assert engine.counters() == {"engine.full_resync": 1}


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
        engine.recalculate()
        assert sheet.get("A3").value == 7.0
        assert engine.counters() == {"engine.full_resync": 0}

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
        sheet.commit_values([(CellAddress(0, 0), new)])
        assert sheet.get("A1").value is new
        assert sheet.version == version + (not same)


class TestCyclesAndErrors:
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

    def test_breaking_a_cycle_clears_the_error(self):
        sheet = Sheet()
        sheet.set("A1", formula="=A2")
        sheet.set("A2", formula="=A1")
        engine = FormulaEngine(sheet)
        engine.recalculate()
        engine.set_value("A2", 7)
        engine.recalculate()
        assert sheet.get("A1").value == 7

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
    fresh = sheet.copy()
    for __, cell in fresh.cells():
        if cell.has_formula:
            cell.value = None
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
