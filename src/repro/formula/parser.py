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

from typing import List

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
from repro.formula.tokenizer import FormulaSyntaxError, Token, TokenType, tokenize
from repro.sheet.addressing import parse_cell_address, parse_range_address

#: Deepest nesting of parentheses, function arguments and unary signs the
#: grammar admits (Excel's own limit on nested functions is 64).  Each level
#: costs the descent a fixed number of interpreter frames, so the limit is
#: what turns a hostile ``((((…`` into a syntax error instead of a
#: ``RecursionError``.
MAX_NESTING_DEPTH = 64


class _Parser:
    """Stateful cursor over the token stream."""

    def __init__(self, tokens: List[Token], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._position = 0
        self._depth = 0

    # -------------------------------------------------------------- utilities

    def _peek(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.type is not TokenType.EOF:
            self._position += 1
        return token

    def _match(self, token_type: TokenType, *texts: str) -> bool:
        token = self._peek()
        if token.type is not token_type:
            return False
        if texts and token.text not in texts:
            return False
        return True

    def _expect(self, token_type: TokenType) -> Token:
        token = self._peek()
        if token.type is not token_type:
            raise FormulaSyntaxError(
                f"expected {token_type.value} but found {token.text!r} "
                f"at position {token.position} in {self._source!r}"
            )
        return self._advance()

    # ---------------------------------------------------------------- grammar

    def parse(self) -> ASTNode:
        node = self._expression()
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise FormulaSyntaxError(
                f"unexpected trailing token {token.text!r} in {self._source!r}"
            )
        return node

    def _nested(self, rule) -> ASTNode:
        """Apply a recursive grammar rule one nesting level down."""
        self._depth += 1
        if self._depth > MAX_NESTING_DEPTH:
            raise FormulaSyntaxError(
                f"formula nests deeper than {MAX_NESTING_DEPTH} levels: {self._source[:40]!r}..."
            )
        node = rule()
        self._depth -= 1
        return node

    def _expression(self) -> ASTNode:
        return self._nested(self._comparison)

    def _comparison(self) -> ASTNode:
        node = self._concat()
        while self._match(TokenType.COMPARE):
            op = self._advance().text
            right = self._concat()
            node = BinaryOp(op, node, right)
        return node

    def _concat(self) -> ASTNode:
        node = self._additive()
        while self._match(TokenType.OPERATOR, "&"):
            self._advance()
            right = self._additive()
            node = BinaryOp("&", node, right)
        return node

    def _additive(self) -> ASTNode:
        node = self._term()
        while self._match(TokenType.OPERATOR, "+", "-"):
            op = self._advance().text
            right = self._term()
            node = BinaryOp(op, node, right)
        return node

    def _term(self) -> ASTNode:
        node = self._power()
        while self._match(TokenType.OPERATOR, "*", "/"):
            op = self._advance().text
            right = self._power()
            node = BinaryOp(op, node, right)
        return node

    def _power(self) -> ASTNode:
        node = self._unary()
        while self._match(TokenType.OPERATOR, "^"):
            self._advance()
            right = self._unary()
            node = BinaryOp("^", node, right)
        return node

    def _unary(self) -> ASTNode:
        if self._match(TokenType.OPERATOR, "-", "+"):
            op = self._advance().text
            operand = self._nested(self._unary)
            return UnaryOp(op, operand)
        return self._postfix()

    def _postfix(self) -> ASTNode:
        node = self._primary()
        while self._match(TokenType.PERCENT):
            self._advance()
            node = UnaryOp("%", node)
        return node

    def _primary(self) -> ASTNode:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return NumberLiteral(float(token.text))
        if token.type is TokenType.STRING:
            self._advance()
            inner = token.text[1:-1].replace('""', '"')
            return StringLiteral(inner)
        if token.type is TokenType.BOOLEAN:
            self._advance()
            return BooleanLiteral(token.text.upper() == "TRUE")
        if token.type is TokenType.RANGE:
            self._advance()
            return RangeReference(parse_range_address(token.text.replace("$", "")))
        if token.type is TokenType.CELL:
            self._advance()
            return CellReference(parse_cell_address(token.text.replace("$", "")))
        if token.type is TokenType.IDENT:
            return self._function_call()
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self._expression()
            self._expect(TokenType.RPAREN)
            return Grouping(inner)
        raise FormulaSyntaxError(
            f"unexpected token {token.text!r} at position {token.position} in {self._source!r}"
        )

    def _function_call(self) -> ASTNode:
        name_token = self._expect(TokenType.IDENT)
        self._expect(TokenType.LPAREN)
        args: List[ASTNode] = []
        if not self._match(TokenType.RPAREN):
            args.append(self._expression())
            while self._match(TokenType.COMMA):
                self._advance()
                args.append(self._expression())
        self._expect(TokenType.RPAREN)
        return FunctionCall(name_token.text, args)


def parse_formula(formula: str) -> ASTNode:
    """Parse a formula string (with or without leading ``=``) into an AST.

    Raises :class:`FormulaSyntaxError` if the formula is malformed.
    """
    tokens = tokenize(formula)
    return _Parser(tokens, formula).parse()
