"""AST node classes for parsed spreadsheet formulas.

Every node renders back to canonical formula text via ``to_formula`` and
supports structural traversal through :func:`walk`.  The node count of an
AST is the paper's definition of formula complexity (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.sheet.addressing import CellAddress, RangeAddress


class ASTNode:
    """Base class for all formula AST nodes."""

    def children(self) -> Sequence["ASTNode"]:
        """Direct child nodes (empty for leaves)."""
        return ()

    def to_formula(self) -> str:
        """Render this subtree back to formula text (without leading ``=``)."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_formula()


@dataclass(frozen=True)
class NumberLiteral(ASTNode):
    """A numeric constant."""

    value: float

    def to_formula(self) -> str:
        if float(self.value).is_integer():
            return str(int(self.value))
        return repr(float(self.value))


@dataclass(frozen=True)
class StringLiteral(ASTNode):
    """A quoted string constant."""

    value: str

    def to_formula(self) -> str:
        escaped = self.value.replace('"', '""')
        return f'"{escaped}"'


@dataclass(frozen=True)
class BooleanLiteral(ASTNode):
    """A TRUE/FALSE constant."""

    value: bool

    def to_formula(self) -> str:
        return "TRUE" if self.value else "FALSE"


@dataclass(frozen=True)
class CellReference(ASTNode):
    """A reference to a single cell, e.g. ``C41``."""

    address: CellAddress

    def to_formula(self) -> str:
        return self.address.to_a1()


@dataclass(frozen=True)
class RangeReference(ASTNode):
    """A reference to a rectangular range, e.g. ``C7:C37``."""

    range: RangeAddress

    def to_formula(self) -> str:
        return self.range.to_a1()


@dataclass(frozen=True)
class UnaryOp(ASTNode):
    """A unary operator applied to an operand (``-A1``, ``A1%``)."""

    op: str
    operand: ASTNode

    def children(self) -> Sequence[ASTNode]:
        return (self.operand,)

    def to_formula(self) -> str:
        if self.op == "%":
            return f"{self.operand.to_formula()}%"
        return f"{self.op}{self.operand.to_formula()}"


@dataclass(frozen=True)
class BinaryOp(ASTNode):
    """A binary operator expression (``A1+B1``, ``A1>=10``, ``A1&" kg"``)."""

    op: str
    left: ASTNode
    right: ASTNode

    def children(self) -> Sequence[ASTNode]:
        return (self.left, self.right)

    def to_formula(self) -> str:
        return f"{self.left.to_formula()}{self.op}{self.right.to_formula()}"


@dataclass(frozen=True)
class Grouping(ASTNode):
    """A parenthesized sub-expression, preserved for faithful round-tripping."""

    inner: ASTNode

    def children(self) -> Sequence[ASTNode]:
        return (self.inner,)

    def to_formula(self) -> str:
        return f"({self.inner.to_formula()})"


@dataclass(frozen=True)
class FunctionCall(ASTNode):
    """A spreadsheet function call such as ``COUNTIF(C7:C37,C41)``."""

    name: str
    args: tuple

    def __init__(self, name: str, args: Sequence[ASTNode]):
        object.__setattr__(self, "name", name.upper())
        object.__setattr__(self, "args", tuple(args))

    def children(self) -> Sequence[ASTNode]:
        return self.args

    def to_formula(self) -> str:
        rendered = ",".join(arg.to_formula() for arg in self.args)
        return f"{self.name}({rendered})"


def walk(node: ASTNode) -> Iterator[ASTNode]:
    """Yield ``node`` and every descendant in pre-order.

    Iterative: nested generators would pass every node up through each of
    its ancestors, O(nodes x height) on a tall tree."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def node_count(node: ASTNode) -> int:
    """Number of AST nodes in the subtree rooted at ``node``."""
    return sum(1 for __ in walk(node))


def collect_references(node: ASTNode) -> List[ASTNode]:
    """All cell and range reference nodes in left-to-right (pre-order) order."""
    return [n for n in walk(node) if isinstance(n, (CellReference, RangeReference))]
