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
from typing import List, Sequence, Union

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


def _render_with_holes(node: ASTNode) -> str:
    """Render an AST to text, replacing every reference with a hole."""
    if isinstance(node, CellReference):
        return HOLE_CELL
    if isinstance(node, RangeReference):
        return HOLE_RANGE
    if isinstance(node, FunctionCall):
        args = ",".join(_render_with_holes(arg) for arg in node.args)
        return f"{node.name}({args})"
    if isinstance(node, BinaryOp):
        return f"{_render_with_holes(node.left)}{node.op}{_render_with_holes(node.right)}"
    if isinstance(node, UnaryOp):
        if node.op == "%":
            return f"{_render_with_holes(node.operand)}%"
        return f"{node.op}{_render_with_holes(node.operand)}"
    if isinstance(node, Grouping):
        return f"({_render_with_holes(node.inner)})"
    return node.to_formula()


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
    return FormulaTemplate(signature=_render_with_holes(ast), slots=tuple(slots))


def instantiate_template(
    formula: Union[str, ASTNode], parameters: Sequence[Reference]
) -> str:
    """Rebuild a concrete formula from a reference formula and new parameters.

    ``formula`` supplies the template structure; ``parameters`` replace its
    references in left-to-right order.  The parameter count must match the
    template's hole count.
    """
    ast = parse_formula(formula) if isinstance(formula, str) else formula
    n_parameters = len(parameters)
    holes = 0

    def rebuild(node: ASTNode) -> str:
        nonlocal holes
        if isinstance(node, (CellReference, RangeReference)):
            holes += 1
            # Past the last parameter the pass only counts: the mismatch is
            # reported below, with the full hole count.
            return parameters[holes - 1].to_a1() if holes <= n_parameters else ""
        if isinstance(node, FunctionCall):
            args = ",".join(rebuild(arg) for arg in node.args)
            return f"{node.name}({args})"
        if isinstance(node, BinaryOp):
            return f"{rebuild(node.left)}{node.op}{rebuild(node.right)}"
        if isinstance(node, UnaryOp):
            if node.op == "%":
                return f"{rebuild(node.operand)}%"
            return f"{node.op}{rebuild(node.operand)}"
        if isinstance(node, Grouping):
            return f"({rebuild(node.inner)})"
        return node.to_formula()

    rebuilt = rebuild(ast)
    if holes != n_parameters:
        raise ValueError(
            f"template {extract_template(ast).signature!r} expects {holes} "
            f"parameters, got {n_parameters}"
        )
    return "=" + rebuilt


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
