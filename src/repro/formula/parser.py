"""Recursive-descent parser for spreadsheet formulas.

Grammar (lowest to highest precedence)::

    expression  := comparison
    comparison  := concat ( ("=" | "<>" | "<" | "<=" | ">" | ">=") concat )*
    concat      := additive ( "&" additive )*
    additive    := term ( ("+" | "-") term )*
    term        := power ( ("*" | "/") power )*
    power       := unary ( "^" unary )*
    unary       := ("-" | "+") unary | postfix
    postfix     := primary ( "%" )*
    primary     := NUMBER | STRING | BOOLEAN | CELL | RANGE
                 | IDENT "(" [expression ("," expression)*] ")"
                 | "(" expression ")"
"""

from __future__ import annotations

from functools import partial
from typing import List, Tuple

from repro.cache import memoized
from repro.formula.ast_nodes import (
    ASTNode,
    BinaryOp,
    BooleanLiteral,
    CellReference,
    FunctionCall,
    Grouping,
    NumberLiteral,
    RangeReference,
    StringLiteral,
    UnaryOp,
)
from repro.formula.tokenizer import FormulaSyntaxError, Token, TokenType, iter_tokens
from repro.sheet.addressing import parse_cell_address, parse_range_address

#: Deepest nesting of parentheses, function arguments and unary signs the
#: grammar admits (Excel's own limit on nested functions is 64).  Each level
#: costs the descent a fixed number of interpreter frames, so the limit is
#: what turns a hostile ``((((…`` into a syntax error instead of a
#: ``RecursionError``.
MAX_NESTING_DEPTH = 64

#: Tallest tree the grammar admits: nodes on the longest path from the root
#: to a leaf.  The operator loops iterate, so nesting alone does not bound
#: it — ``=1+1+…+1`` with n terms is n levels high — and every walker of a
#: tree (evaluation, rendering, templates) recurses one to three frames per
#: level.  At 128, rendering or templating the tallest tree takes 258
#: frames — no more than parsing the deepest nest takes (711) — of Python's
#: default 1000; evaluation, which follows references into other formulas,
#: bounds their summed height (``repro.formula.engine.MAX_PATH_HEIGHT``).
#: Excel admits taller formulas (a sum of 255 terms written with ``+``);
#: those are syntax errors here, and ``#NAME?`` in a cell.
MAX_AST_HEIGHT = 128

#: Formulas longer than this are parsed on every call, never pinned by the
#: memo: a tree costs up to ~85 bytes per character of its text, so the
#: memo's 4096 entries hold ~23 MB at worst.  The benchmark corpora's
#: longest formula has 27 characters.
_MAX_PINNED_LENGTH = 64

#: The binary-operator levels, loosest first: token type and operator texts
#: (no texts: any token of the type).
_BINARY_LEVELS: Tuple[Tuple[TokenType, Tuple[str, ...]], ...] = (
    (TokenType.COMPARE, ()),
    (TokenType.OPERATOR, ("&",)),
    (TokenType.OPERATOR, ("+", "-")),
    (TokenType.OPERATOR, ("*", "/")),
    (TokenType.OPERATOR, ("^",)),
)

#: A parsed subtree and its height.
_Parsed = Tuple[ASTNode, int]


class _Parser:
    """Cursor over the token stream, one token of look-ahead."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._stream = iter_tokens(source)
        self._token = next(self._stream)
        self._depth = 0

    # -------------------------------------------------------------- utilities

    def _advance(self) -> Token:
        token = self._token
        if token.type is not TokenType.EOF:
            self._token = next(self._stream)
        return token

    def _match(self, token_type: TokenType, *texts: str) -> bool:
        token = self._token
        if token.type is not token_type:
            return False
        if texts and token.text not in texts:
            return False
        return True

    def _expect(self, token_type: TokenType) -> Token:
        token = self._token
        if token.type is not token_type:
            raise FormulaSyntaxError(
                f"expected {token_type.value} but found {token.text!r} "
                f"at position {token.position} in {self._source!r}"
            )
        return self._advance()

    # ---------------------------------------------------------------- grammar

    def parse(self) -> _Parsed:
        parsed = self._expression()
        token = self._token
        if token.type is not TokenType.EOF:
            raise FormulaSyntaxError(
                f"unexpected trailing token {token.text!r} in {self._source!r}"
            )
        return parsed

    def _nested(self, rule) -> _Parsed:
        """Apply a recursive grammar rule one nesting level down."""
        self._depth += 1
        if self._depth > MAX_NESTING_DEPTH:
            raise FormulaSyntaxError(
                f"formula nests deeper than {MAX_NESTING_DEPTH} levels: {self._source[:40]!r}..."
            )
        parsed = rule()
        self._depth -= 1
        return parsed

    def _grown(self, node: ASTNode, child_height: int) -> _Parsed:
        """``node`` with its height, one above its tallest child's."""
        if child_height >= MAX_AST_HEIGHT:
            raise FormulaSyntaxError(
                f"formula is taller than {MAX_AST_HEIGHT} levels: {self._source[:40]!r}..."
            )
        return node, child_height + 1

    def _expression(self) -> _Parsed:
        return self._nested(self._binary)

    def _binary(self, level: int = 0) -> _Parsed:
        """One left-associative operator level and everything tighter."""
        token_type, texts = _BINARY_LEVELS[level]
        # A partial, not a lambda: no interpreter frame of its own, so a
        # nesting level costs the descent as many frames as one method per
        # level would.
        operand = (
            self._unary if level + 1 == len(_BINARY_LEVELS) else partial(self._binary, level + 1)
        )
        node, height = operand()
        while self._match(token_type, *texts):
            op = self._advance().text
            right, right_height = operand()
            node, height = self._grown(BinaryOp(op, node, right), max(height, right_height))
        return node, height

    def _unary(self) -> _Parsed:
        if self._match(TokenType.OPERATOR, "-", "+"):
            op = self._advance().text
            operand, height = self._nested(self._unary)
            return self._grown(UnaryOp(op, operand), height)
        return self._postfix()

    def _postfix(self) -> _Parsed:
        node, height = self._primary()
        while self._match(TokenType.PERCENT):
            self._advance()
            node, height = self._grown(UnaryOp("%", node), height)
        return node, height

    def _primary(self) -> _Parsed:
        token = self._token
        if token.type is TokenType.NUMBER:
            self._advance()
            return NumberLiteral(float(token.text)), 1
        if token.type is TokenType.STRING:
            self._advance()
            inner = token.text[1:-1].replace('""', '"')
            return StringLiteral(inner), 1
        if token.type is TokenType.BOOLEAN:
            self._advance()
            return BooleanLiteral(token.text.upper() == "TRUE"), 1
        if token.type is TokenType.RANGE:
            self._advance()
            return RangeReference(parse_range_address(token.text.replace("$", ""))), 1
        if token.type is TokenType.CELL:
            self._advance()
            return CellReference(parse_cell_address(token.text.replace("$", ""))), 1
        if token.type is TokenType.IDENT:
            return self._function_call()
        if token.type is TokenType.LPAREN:
            self._advance()
            inner, height = self._expression()
            self._expect(TokenType.RPAREN)
            return self._grown(Grouping(inner), height)
        raise FormulaSyntaxError(
            f"unexpected token {token.text!r} at position {token.position} in {self._source!r}"
        )

    def _function_call(self) -> _Parsed:
        name_token = self._expect(TokenType.IDENT)
        self._expect(TokenType.LPAREN)
        args: List[ASTNode] = []
        height = 0
        if not self._match(TokenType.RPAREN):
            while True:
                arg, arg_height = self._expression()
                args.append(arg)
                height = max(height, arg_height)
                if not self._match(TokenType.COMMA):
                    break
                self._advance()
        self._expect(TokenType.RPAREN)
        return self._grown(FunctionCall(name_token.text, args), height)


def parse_formula(formula: str) -> ASTNode:
    """Parse a formula string (with or without leading ``=``) into an AST.

    Raises :class:`FormulaSyntaxError` if the formula is malformed — nested
    deeper than :data:`MAX_NESTING_DEPTH` or taller than
    :data:`MAX_AST_HEIGHT` included.

    Trees are frozen, so a repeated string is answered from a memo with the
    one shared tree: a corpus repeats a few hundred distinct formulas over
    thousands of cells, and every stage (generation, weak supervision, fit,
    S3) parses them again.  An error is raised again on every call and
    never cached.
    """
    return parse_with_height(formula)[0]


def parse_with_height(formula: str) -> _Parsed:
    """:func:`parse_formula`, and the tree's height (nodes on its longest
    root-to-leaf path), which the parser counts anyway."""
    if len(formula) <= _MAX_PINNED_LENGTH:
        return _parsed(formula)
    return _parsed.__wrapped__(formula)


# 4096 entries: one set-up of a benchmark workload parses 857-1067 distinct
# formulas.
@memoized("parsed_formulas", max_entries=4096)
def _parsed(formula: str) -> _Parsed:
    return _Parser(formula).parse()
