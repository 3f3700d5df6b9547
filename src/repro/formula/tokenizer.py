"""Tokenizer for spreadsheet formulas.

Supports the subset of the Excel formula language needed by the
reproduction: cell and range references, numbers, strings, booleans,
function calls, arithmetic / comparison / concatenation operators, percent
and unary minus, and parenthesized expressions.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, List


class FormulaSyntaxError(ValueError):
    """Raised when a formula cannot be tokenized or parsed."""


class TokenType(enum.Enum):
    """Lexical token categories."""

    NUMBER = "number"
    STRING = "string"
    BOOLEAN = "boolean"
    CELL = "cell"
    RANGE = "range"
    IDENT = "ident"
    OPERATOR = "operator"
    COMPARE = "compare"
    LPAREN = "lparen"
    RPAREN = "rparen"
    COMMA = "comma"
    PERCENT = "percent"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source text and position."""

    type: TokenType
    text: str
    position: int


_TOKEN_SPEC = [
    (TokenType.RANGE, re.compile(r"\$?[A-Za-z]{1,3}\$?[0-9]+:\$?[A-Za-z]{1,3}\$?[0-9]+")),
    (TokenType.CELL, re.compile(r"\$?[A-Za-z]{1,3}\$?[0-9]+(?![0-9A-Za-z_(])")),
    (TokenType.NUMBER, re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")),
    (TokenType.STRING, re.compile(r'"(?:[^"]|"")*"')),
    (TokenType.IDENT, re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")),
    (TokenType.COMPARE, re.compile(r"(<=|>=|<>|=|<|>)")),
    (TokenType.OPERATOR, re.compile(r"[-+*/^&]")),
    (TokenType.LPAREN, re.compile(r"\(")),
    (TokenType.RPAREN, re.compile(r"\)")),
    (TokenType.COMMA, re.compile(r"[,;]")),
    (TokenType.PERCENT, re.compile(r"%")),
]

_BOOLEANS = {"TRUE", "FALSE"}


def tokenize(formula: str) -> List[Token]:
    """Tokenize a formula string (with or without the leading ``=``).

    Raises :class:`FormulaSyntaxError` on any unrecognized character.
    """
    return list(iter_tokens(formula))


def iter_tokens(formula: str) -> Iterator[Token]:
    """:func:`tokenize`, one token at a time, ending with the ``EOF`` token.

    The parser reads this stream, so a formula it rejects early (one too
    tall, say) is never lexed past the point of rejection.
    """
    text = formula.strip()
    if text.startswith("="):
        text = text[1:]
    position = 0
    length = len(text)
    while position < length:
        if text[position].isspace():
            position += 1
            continue
        for token_type, pattern in _TOKEN_SPEC:
            match = pattern.match(text, position)
            if not match:
                continue
            lexeme = match.group(0)
            if token_type is TokenType.IDENT and lexeme.upper() in _BOOLEANS:
                token_type = TokenType.BOOLEAN
            yield Token(token_type, lexeme, position)
            position = match.end()
            break
        else:
            raise FormulaSyntaxError(
                f"unexpected character {text[position]!r} at position {position} in {formula!r}"
            )
    yield Token(TokenType.EOF, "", length)
