"""Formula templates: ASTs with parameter "holes".

The paper decomposes a concrete formula ``F = F̄(R)`` into a template ``F̄``
(functions + AST structure, with holes for references) and the parameter
cells/ranges ``R`` (Section 3.2).  Prediction step S3 keeps the reference
formula's template and re-grounds each parameter into the target sheet; this
module implements the extraction, rendering and re-instantiation needed for
that step, plus reference shifting used by the corpus generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from repro.formula.ast_nodes import (
    ASTNode,
    BinaryOp,
    CellReference,
    FunctionCall,
    Grouping,
    RangeReference,
    UnaryOp,
    walk,
)
from repro.formula.parser import parse_formula
from repro.sheet.addressing import CellAddress, RangeAddress

Reference = Union[CellAddress, RangeAddress]

#: Rendering of a parameter hole, matching the paper's ``COUNTIF(_:_,_)`` style.
HOLE_CELL = "_"
HOLE_RANGE = "_:_"


@dataclass(frozen=True)
class FormulaTemplate:
    """A formula with its references abstracted into ordered holes.

    ``signature`` is the canonical textual rendering with holes, e.g.
    ``"COUNTIF(_:_,_)"``; ``slots`` records whether each hole expects a
    single cell (``"cell"``) or a range (``"range"``), in left-to-right
    order.
    """

    signature: str
    slots: tuple

    @property
    def n_parameters(self) -> int:
        """Number of parameter holes."""
        return len(self.slots)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.signature


def formula_references(formula: Union[str, ASTNode]) -> List[Reference]:
    """Ordered list of cell/range references (the parameters ``R``)."""
    ast = parse_formula(formula) if isinstance(formula, str) else formula
    references: List[Reference] = []
    for node in walk(ast):
        if isinstance(node, CellReference):
            references.append(node.address)
        elif isinstance(node, RangeReference):
            references.append(node.range)
    return references


def extract_template(formula: Union[str, ASTNode]) -> FormulaTemplate:
    """Extract the :class:`FormulaTemplate` of a concrete formula."""
    ast = parse_formula(formula) if isinstance(formula, str) else formula
    slots: List[str] = []
    for node in walk(ast):
        if isinstance(node, CellReference):
            slots.append("cell")
        elif isinstance(node, RangeReference):
            slots.append("range")
    pieces = template_pieces(ast)
    signature = pieces[0] + "".join(
        (HOLE_CELL if slot == "cell" else HOLE_RANGE) + piece
        for slot, piece in zip(slots, pieces[1:])
    )
    return FormulaTemplate(signature=signature, slots=tuple(slots))


def template_pieces(formula: Union[str, ASTNode]) -> Tuple[str, ...]:
    """The text of a formula around its references, in order: ``n + 1``
    pieces for ``n`` references (the text before the first, between each
    two, after the last), without the leading ``=``."""
    ast = parse_formula(formula) if isinstance(formula, str) else formula
    pieces: List[str] = []
    text: List[str] = []

    def render(node: ASTNode) -> None:
        if isinstance(node, (CellReference, RangeReference)):
            pieces.append("".join(text))
            text.clear()
        elif isinstance(node, FunctionCall):
            text.append(f"{node.name}(")
            for index, arg in enumerate(node.args):
                if index:
                    text.append(",")
                render(arg)
            text.append(")")
        elif isinstance(node, BinaryOp):
            render(node.left)
            text.append(node.op)
            render(node.right)
        elif isinstance(node, UnaryOp):
            if node.op != "%":
                text.append(node.op)
            render(node.operand)
            if node.op == "%":
                text.append("%")
        elif isinstance(node, Grouping):
            text.append("(")
            render(node.inner)
            text.append(")")
        else:
            text.append(node.to_formula())

    render(ast)
    pieces.append("".join(text))
    return tuple(pieces)


def fill_template(pieces: Sequence[str], parameters: Sequence[str]) -> str:
    """The formula of :func:`template_pieces` ``pieces`` with the A1 texts
    ``parameters`` in its references' places, left to right (one text per
    reference)."""
    return "=" + pieces[0] + "".join(
        parameter + piece for parameter, piece in zip(parameters, pieces[1:])
    )


def instantiate_template(
    formula: Union[str, ASTNode], parameters: Sequence[Reference]
) -> str:
    """Rebuild a concrete formula from a reference formula and new parameters.

    ``formula`` supplies the template structure; ``parameters`` replace its
    references in left-to-right order.  The parameter count must match the
    template's hole count.
    """
    ast = parse_formula(formula) if isinstance(formula, str) else formula
    pieces = template_pieces(ast)
    if len(pieces) != len(parameters) + 1:
        raise ValueError(
            f"template {extract_template(ast).signature!r} expects {len(pieces) - 1} "
            f"parameters, got {len(parameters)}"
        )
    return fill_template(pieces, [parameter.to_a1() for parameter in parameters])


def shift_formula(formula: str, row_delta: int, col_delta: int) -> str:
    """Shift every reference in ``formula`` by the given deltas.

    This mirrors how relative references behave when a formula is copied to
    another cell, and is used by the synthetic corpus generator to create
    families of consistent formulas.
    """
    ast = parse_formula(formula)
    references = formula_references(ast)
    shifted: List[Reference] = []
    for reference in references:
        shifted.append(reference.shifted(row_delta, col_delta))
    return instantiate_template(ast, shifted)


def normalize_formula(formula: str) -> str:
    """Canonical textual form of a formula (used for exact-match scoring).

    Parsing and re-rendering removes whitespace, ``$`` anchors and letter
    case differences in function names so that semantically identical
    spellings compare equal.
    """
    ast = parse_formula(formula)
    return "=" + ast.to_formula()
