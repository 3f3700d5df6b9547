"""Formula substrate: parsing, templates, evaluation and classification.

This package implements the spreadsheet-formula machinery the paper relies
on: a tokenizer and recursive-descent parser producing an AST, formula
*templates* (the AST with parameter "holes", Section 3.2), template
instantiation used by prediction step S3, an evaluator with a library of
common spreadsheet functions, and the classification utilities used by the
sensitivity analyses (formula complexity and formula type, Figures 10-11).

Evaluation is :class:`~repro.formula.engine.FormulaEngine`, an incremental
dependency-graph recalculation engine.  A failure is a value, not an
exception: ``evaluate_formula`` / ``evaluate_cell`` return an Excel-style
error value (``repro.formula.errors``; test with :func:`is_error_value`).
"""

from repro.formula.tokenizer import Token, TokenType, tokenize, FormulaSyntaxError
from repro.formula.ast_nodes import (
    ASTNode,
    BinaryOp,
    UnaryOp,
    FunctionCall,
    CellReference,
    RangeReference,
    NumberLiteral,
    StringLiteral,
    BooleanLiteral,
    node_count,
    walk,
)
from repro.formula.parser import parse_formula
from repro.formula.template import (
    FormulaTemplate,
    extract_template,
    instantiate_template,
    formula_references,
    shift_formula,
)
from repro.formula.errors import (
    ALL_ERROR_VALUES,
    CYCLE_ERROR,
    DIV0_ERROR,
    ErrorValue,
    NAME_ERROR,
    REF_ERROR,
    VALUE_ERROR,
    is_error_value,
)
from repro.formula.engine import FormulaEngine, RecalcReport
from repro.formula.classify import (
    FormulaCategory,
    classify_formula,
    formula_complexity,
    complexity_bucket,
    functions_used,
)

__all__ = [
    "Token",
    "TokenType",
    "tokenize",
    "FormulaSyntaxError",
    "ASTNode",
    "BinaryOp",
    "UnaryOp",
    "FunctionCall",
    "CellReference",
    "RangeReference",
    "NumberLiteral",
    "StringLiteral",
    "BooleanLiteral",
    "node_count",
    "walk",
    "parse_formula",
    "FormulaTemplate",
    "extract_template",
    "instantiate_template",
    "formula_references",
    "shift_formula",
    "FormulaEngine",
    "RecalcReport",
    "ErrorValue",
    "is_error_value",
    "ALL_ERROR_VALUES",
    "DIV0_ERROR",
    "REF_ERROR",
    "CYCLE_ERROR",
    "VALUE_ERROR",
    "NAME_ERROR",
    "FormulaCategory",
    "classify_formula",
    "formula_complexity",
    "complexity_bucket",
    "functions_used",
]
