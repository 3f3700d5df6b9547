"""Tests for the formula tokenizer and parser."""

import pytest

from repro.formula import (
    BinaryOp,
    CellReference,
    FormulaSyntaxError,
    FunctionCall,
    NumberLiteral,
    RangeReference,
    StringLiteral,
    BooleanLiteral,
    UnaryOp,
    FormulaEngine,
    classify_formula,
    extract_template,
    formula_references,
    instantiate_template,
    node_count,
    parse_formula,
    tokenize,
)
from repro.formula.parser import MAX_AST_HEIGHT, MAX_NESTING_DEPTH
from repro.formula.template import normalize_formula
from repro.formula.tokenizer import TokenType
from repro.sheet import Sheet


class TestTokenizer:
    def test_simple_function(self):
        tokens = tokenize("=SUM(A1:A5)")
        types = [token.type for token in tokens]
        assert types == [
            TokenType.IDENT,
            TokenType.LPAREN,
            TokenType.RANGE,
            TokenType.RPAREN,
            TokenType.EOF,
        ]

    def test_leading_equals_optional(self):
        assert len(tokenize("SUM(A1)")) == len(tokenize("=SUM(A1)"))

    def test_numbers_and_operators(self):
        tokens = tokenize("=1.5e2+A1*3")
        texts = [token.text for token in tokens if token.type is not TokenType.EOF]
        assert texts == ["1.5e2", "+", "A1", "*", "3"]

    def test_string_with_escaped_quotes(self):
        tokens = tokenize('="he said ""hi"""')
        assert tokens[0].type is TokenType.STRING

    def test_comparison_operators(self):
        tokens = tokenize("=A1>=10")
        assert tokens[1].type is TokenType.COMPARE
        assert tokens[1].text == ">="

    def test_booleans(self):
        tokens = tokenize("=TRUE")
        assert tokens[0].type is TokenType.BOOLEAN

    def test_semicolon_separator(self):
        tokens = tokenize("=SUM(A1;A2)")
        assert any(token.type is TokenType.COMMA for token in tokens)

    def test_whitespace_ignored(self):
        assert len(tokenize("= SUM( A1 , B2 )")) == len(tokenize("=SUM(A1,B2)"))

    def test_invalid_character_raises(self):
        with pytest.raises(FormulaSyntaxError):
            tokenize("=A1 @ B2")


class TestParser:
    def test_countif_structure(self):
        ast = parse_formula("=COUNTIF(C7:C37,C41)")
        assert isinstance(ast, FunctionCall)
        assert ast.name == "COUNTIF"
        assert isinstance(ast.args[0], RangeReference)
        assert isinstance(ast.args[1], CellReference)

    def test_function_name_uppercased(self):
        ast = parse_formula("=sum(A1)")
        assert isinstance(ast, FunctionCall)
        assert ast.name == "SUM"

    def test_nested_functions(self):
        ast = parse_formula("=ROUND(SUM(A1:A5)/COUNT(A1:A5),2)")
        assert isinstance(ast, FunctionCall)
        assert ast.name == "ROUND"
        inner = ast.args[0]
        assert isinstance(inner, BinaryOp)
        assert inner.op == "/"

    def test_operator_precedence(self):
        ast = parse_formula("=1+2*3")
        assert isinstance(ast, BinaryOp)
        assert ast.op == "+"
        assert isinstance(ast.right, BinaryOp)
        assert ast.right.op == "*"

    def test_comparison_lowest_precedence(self):
        ast = parse_formula("=A1+1>B1*2")
        assert isinstance(ast, BinaryOp)
        assert ast.op == ">"

    def test_concatenation(self):
        ast = parse_formula('=A1&" units"')
        assert isinstance(ast, BinaryOp)
        assert ast.op == "&"
        assert isinstance(ast.right, StringLiteral)

    def test_unary_minus_and_percent(self):
        ast = parse_formula("=-A1%")
        assert isinstance(ast, UnaryOp)
        assert ast.op == "-"
        assert isinstance(ast.operand, UnaryOp)
        assert ast.operand.op == "%"

    def test_parentheses_grouping(self):
        ast = parse_formula("=(1+2)*3")
        assert isinstance(ast, BinaryOp)
        assert ast.op == "*"

    def test_boolean_literal(self):
        ast = parse_formula("=IF(TRUE,1,0)")
        assert isinstance(ast.args[0], BooleanLiteral)

    def test_empty_argument_list(self):
        ast = parse_formula("=TODAY()")
        assert isinstance(ast, FunctionCall)
        assert ast.args == ()

    def test_dollar_anchors_stripped(self):
        ast = parse_formula("=SUM($A$1:$B$2)")
        assert ast.to_formula() == "SUM(A1:B2)"

    def test_node_count(self):
        assert node_count(parse_formula("=COUNTIF(C7:C37,C41)")) == 3
        assert node_count(parse_formula("=A1")) == 1
        assert node_count(parse_formula("=A1+B1")) == 3

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("=SUM(A1) B2")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("=SUM(A1")

    def test_missing_operand_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("=A1+")


    @pytest.mark.parametrize(
        "formula",
        [
            "=" + "(" * 400 + "1" + ")" * 400,
            "=" + "SUM(" * 300 + "1" + ")" * 300,
            "=" + "-" * 5000 + "1",
        ],
    )
    def test_nesting_past_the_grammar_limit_is_a_syntax_error(self, formula):
        # Not a RecursionError, which no caller of the parser catches.
        with pytest.raises(FormulaSyntaxError, match="nests deeper than 64"):
            parse_formula(formula)

    def test_nesting_up_to_the_limit_parses(self):
        from repro.formula.parser import MAX_NESTING_DEPTH

        formula = "=" + "(" * (MAX_NESTING_DEPTH - 1) + "A1" + ")" * (MAX_NESTING_DEPTH - 1)
        assert node_count(parse_formula(formula)) == MAX_NESTING_DEPTH
        # Siblings do not add up: the depth is that of the deepest branch.
        wide = "=SUM(" + ",".join(["((1))"] * 200) + ")"
        assert len(parse_formula(wide).args) == 200


def _height(node) -> int:
    return 1 + max(map(_height, node.children()), default=0)


def _tallest(shape: str, leaf: str = "1") -> str:
    """A formula exactly :data:`MAX_AST_HEIGHT` levels high, ``leaf`` at the
    bottom of its longest path."""
    if shape == "plus":
        return "=" + leaf + "+1" * (MAX_AST_HEIGHT - 1)
    if shape == "percent":
        return "=" + leaf + "%" * (MAX_AST_HEIGHT - 1)
    depth = MAX_NESTING_DEPTH - 1  # nested calls, a chain inside
    return "=" + "SUM(" * depth + leaf + "*1" * (MAX_AST_HEIGHT - depth - 1) + ")" * depth


class TestHeightBound:
    @pytest.mark.parametrize("shape", ["plus", "percent", "calls"])
    def test_up_to_the_bound_parses_one_more_level_does_not(self, shape):
        tallest = _tallest(shape)
        assert _height(parse_formula(tallest)) == MAX_AST_HEIGHT
        with pytest.raises(FormulaSyntaxError, match=f"taller than {MAX_AST_HEIGHT}"):
            parse_formula(tallest + ("%" if shape == "percent" else "+1"))
        # The extra level may sit on either side of the tallest subtree.
        with pytest.raises(FormulaSyntaxError, match=f"taller than {MAX_AST_HEIGHT}"):
            parse_formula("=1^" + tallest[1:])

    def test_the_probe_is_rejected_without_lexing_the_rest(self, monkeypatch):
        """``=1+1+…`` with 3 001 terms used to parse into a tree 3 000 levels
        high that every walker overflowed on; the parser stops at the bound,
        having read two tokens a level."""
        from repro.formula import parser

        lexed = []
        stream = parser.iter_tokens
        monkeypatch.setattr(
            parser, "iter_tokens", lambda text: (lexed.append(t) or t for t in stream(text))
        )
        with pytest.raises(FormulaSyntaxError, match="taller than"):
            parser._parsed.__wrapped__("=1" + "+1" * 3000)
        assert len(lexed) == 2 * (MAX_AST_HEIGHT + 1)

    @pytest.mark.parametrize("shape", ["plus", "calls"])
    @pytest.mark.parametrize("link", ["={}+1", "=SUM({0}:{0})"])
    def test_the_tallest_formula_evaluates_renders_and_templates_at_the_end_of_a_chain(
        self, shape, link
    ):
        """The bound's reason: at the bottom of the engine's 64-deep chain,
        the tallest tree still evaluates — as does everything that walks it."""
        sheet = Sheet()
        for row in range(1, 64):
            sheet.set(f"A{row}", formula=link.format(f"A{row + 1}"))
        tallest = _tallest(shape, leaf="A65")
        sheet.set("A64", formula=tallest)
        sheet.set("A65", 2.0)
        FormulaEngine(sheet).recalculate()
        assert isinstance(sheet.get("A1").value, float)
        tree = parse_formula(tallest)
        assert normalize_formula(tree.to_formula()) == normalize_formula(tallest)
        assert instantiate_template(tree, formula_references(tree)) == normalize_formula(tallest)
        assert extract_template(tree).n_parameters == 1
        assert classify_formula(tree).value == "math"


class TestRendering:
    @pytest.mark.parametrize(
        "formula",
        [
            "COUNTIF(C7:C37,C41)",
            "SUM(A1:A10)",
            "IF(B2>100,\"high\",\"low\")",
            "ROUND(C3/D3,2)",
            "A1+B1*C1",
            "CONCATENATE(A1,\" \",B1)",
            "-A5",
            "VLOOKUP(A2,B1:D20,3,FALSE)",
        ],
    )
    def test_roundtrip_canonical_formulas(self, formula):
        assert parse_formula("=" + formula).to_formula() == formula

    def test_number_rendering(self):
        assert NumberLiteral(5.0).to_formula() == "5"
        assert NumberLiteral(2.5).to_formula() == "2.5"

    def test_string_escaping(self):
        assert StringLiteral('say "hi"').to_formula() == '"say ""hi"""'
