"""Tests for formula templates, instantiation and reference shifting."""

import pytest

from repro.formula import extract_template, formula_references, instantiate_template
from repro.formula.template import normalize_formula, shift_formula
from repro.sheet.addressing import CellAddress, RangeAddress, parse_cell_address, parse_range_address


class TestTemplateExtraction:
    def test_countif_template(self):
        template = extract_template("=COUNTIF(C7:C37,C41)")
        assert template.signature == "COUNTIF(_:_,_)"
        assert template.slots == ("range", "cell")
        assert template.n_parameters == 2

    def test_sum_template(self):
        assert extract_template("=SUM(A1:A10)").signature == "SUM(_:_)"

    def test_arithmetic_template(self):
        template = extract_template("=B2-C2")
        assert template.signature == "_-_"
        assert template.slots == ("cell", "cell")

    def test_constants_are_kept(self):
        template = extract_template("=ROUND(A1/B1,2)")
        assert template.signature == "ROUND(_/_,2)"

    def test_same_logic_same_template(self):
        left = extract_template("=COUNTIF(C7:C37,C41)")
        right = extract_template("=COUNTIF(C6:C350,C354)")
        assert left == right

    def test_different_logic_different_template(self):
        assert extract_template("=SUM(A1:A5)") != extract_template("=AVERAGE(A1:A5)")


class TestReferences:
    def test_reference_order(self):
        references = formula_references("=COUNTIF(C7:C37,C41)")
        assert references == [parse_range_address("C7:C37"), parse_cell_address("C41")]

    def test_no_references(self):
        assert formula_references("=1+2") == []

    def test_nested_references(self):
        references = formula_references("=IF(A1>B1,SUM(C1:C5),0)")
        assert len(references) == 3


class TestInstantiation:
    def test_adapt_countif_to_new_context(self):
        new_parameters = [parse_range_address("C7:C37"), parse_cell_address("C41")]
        result = instantiate_template("=COUNTIF(C6:C350,C354)", new_parameters)
        assert result == "=COUNTIF(C7:C37,C41)"

    def test_parameter_count_mismatch_raises(self):
        with pytest.raises(ValueError) as too_few:
            instantiate_template("=SUM(A1:A5)", [])
        assert str(too_few.value) == "template 'SUM(_:_)' expects 1 parameters, got 0"
        references = formula_references("=IF(A1>B1,SUM(C1:C5),0)")
        with pytest.raises(ValueError) as too_many:
            instantiate_template("=IF(A1>B1,SUM(C1:C5),0)", references + references[:1])
        assert str(too_many.value) == "template 'IF(_>_,SUM(_:_),0)' expects 3 parameters, got 4"
        with pytest.raises(ValueError) as one_short:
            instantiate_template("=IF(A1>B1,SUM(C1:C5),0)", references[:2])
        assert str(one_short.value) == "template 'IF(_>_,SUM(_:_),0)' expects 3 parameters, got 2"

    def test_identity_instantiation(self):
        references = formula_references("=SUMIF(A1:A9,B1,C1:C9)")
        assert instantiate_template("=SUMIF(A1:A9,B1,C1:C9)", references) == "=SUMIF(A1:A9,B1,C1:C9)"


class TestShiftAndNormalize:
    def test_shift_down(self):
        assert shift_formula("=SUM(A1:A5)", 3, 0) == "=SUM(A4:A8)"

    def test_shift_right(self):
        assert shift_formula("=B2*C2", 0, 2) == "=D2*E2"

    def test_shift_matches_paper_example(self):
        shifted = shift_formula("=COUNTIF(C7:C37,C41)", 313, 0)
        assert shifted == "=COUNTIF(C320:C350,C354)"

    def test_shift_off_sheet_raises(self):
        with pytest.raises(Exception):
            shift_formula("=SUM(A1:A5)", -1, 0)

    def test_normalize_removes_formatting_differences(self):
        assert normalize_formula("= sum( a1:a5 )") == normalize_formula("=SUM(A1:A5)")
        assert normalize_formula("=SUM($A$1:$A$5)") == "=SUM(A1:A5)"

    def test_normalize_preserves_semantics(self):
        assert normalize_formula("=COUNTIF(C7:C37,C41)") == "=COUNTIF(C7:C37,C41)"
