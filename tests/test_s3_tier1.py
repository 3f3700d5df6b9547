"""S3's tier 1, read off the target's reduced tensor, is sound.

For every parameter S3 re-grounds (a group of target cells, cut in one
pass), the slice ``tier1_slice`` keeps must hold the candidate a
brute-force scan picks — the first least
``np.sum((embed_regions(every candidate) - r) ** 2, axis=1) + penalty`` —
and the cell S3 maps the parameter to must be that candidate.  Targets are
drawn to make the scan's choice hard: rows and columns copied over each
other, blank blocks, a copy of the reference sheet (a candidate whose
window is the reference parameter's), copied-row / constant-column /
sparse layouts, and no locality penalty, so that whole columns tie.  And
ties built on purpose across two different windows: on a copy of the
reference shifted two rows down, the reference parameter's window sits two
steps from the anchor, and a locality penalty of half the anchor window's
distance makes the two score exactly alike — which of them tier 1 puts
lower is down to rounding, so a slice that dropped its margin would keep the
wrong one half the time.
"""

import numpy as np
import pytest

from repro.ann import base
from repro.core import AutoFormula, AutoFormulaConfig, pipeline
from repro.sheet import CellAddress, Sheet
from repro.testing.reference import candidates
from repro.testing.workload import tie_heavy_sheet

#: Draws per locality penalty; each fits one reference sheet.
N_DRAWS = 60


def _table(name, n_rows, n_cols, rng):
    sheet = Sheet(name)
    for row in range(n_rows):
        for col in range(n_cols):
            if rng.random() < 0.8:
                value = f"label {rng.integers(4)}" if col == 0 else float(rng.integers(50))
                sheet.set((row, col), value)
    sheet.set((n_rows - 1, n_cols - 1), 1.0)  # pin the extent
    return sheet


def _copy_rows_and_cols(sheet, rng):
    """Rows and columns of ``sheet`` written over others: exact duplicates."""
    for __ in range(int(rng.integers(1, 4))):
        source, target = rng.integers(0, sheet.n_rows, size=2)
        for col in range(sheet.n_cols):
            sheet.set((int(target), col), sheet.get((int(source), col)).value)
    for __ in range(int(rng.integers(0, 3))):
        source, target = rng.integers(0, sheet.n_cols, size=2)
        for row in range(sheet.n_rows):
            sheet.set((row, int(target)), sheet.get((row, int(source))).value)
    return sheet


def _blank_block(sheet, rng):
    """A rectangle of ``sheet`` emptied: windows that are all blank cells."""
    row, col = int(rng.integers(0, sheet.n_rows)), int(rng.integers(0, sheet.n_cols))
    for r in range(row, min(row + int(rng.integers(3, 15)), sheet.n_rows - 1)):
        for c in range(col, min(col + int(rng.integers(1, 4)), sheet.n_cols)):
            sheet.set((r, c), None)
    return sheet


def _draw(rng):
    """A reference sheet with one formula, a target sheet and a target cell."""
    reference = _table("reference", int(rng.integers(8, 40)), int(rng.integers(3, 8)), rng)
    formula_cell = CellAddress(int(rng.integers(0, reference.n_rows)), reference.n_cols - 1)
    parameters = []
    for __ in range(int(rng.integers(1, 4))):
        row = int(rng.integers(0, reference.n_rows))
        col = int(rng.integers(0, reference.n_cols - 1))
        end = CellAddress(min(row + int(rng.integers(0, 12)), reference.n_rows - 1), col)
        start = CellAddress(row, col)
        parameters.append(start.to_a1() if start == end else f"{start.to_a1()}:{end.to_a1()}")
    reference.set(formula_cell, formula="=SUM(" + ",".join(parameters) + ")")
    kind = int(rng.integers(0, 5))
    if kind == 0:
        target = reference.copy()  # a candidate window is the reference's
    elif kind == 1:
        target = _copy_rows_and_cols(reference.copy(), rng)
    elif kind == 2:
        target = _blank_block(_copy_rows_and_cols(reference.copy(), rng), rng)
    elif kind == 3:
        layout = ("copied_rows", "constant_columns", "sparse")[int(rng.integers(0, 3))]
        target = tie_heavy_sheet(layout, int(rng.integers(10, 50)), reference.n_cols, rng)
    else:
        target = _table("target", int(rng.integers(8, 50)), reference.n_cols, rng)
        target = _blank_block(target, rng)
    if rng.random() < 0.5:
        cell = formula_cell
    else:
        cell = CellAddress(
            int(rng.integers(0, target.n_rows + 3)), int(rng.integers(0, target.n_cols))
        )
    return reference, target, cell


def _constructed_tie(encoder, rng):
    """A reference, a target and a cell whose parameter's scan ties
    exactly (see the module docstring), and the locality penalty that
    makes it tie; ``None`` when the shifted window's embedding is not the
    reference's bit for bit."""
    reference = _table("reference", int(rng.integers(25, 40)), int(rng.integers(3, 7)), rng)
    parameter = CellAddress(
        int(rng.integers(10, reference.n_rows - 10)), int(rng.integers(0, reference.n_cols - 1))
    )
    cell = CellAddress(int(rng.integers(0, reference.n_rows)), reference.n_cols - 1)
    reference.set(cell, formula=f"=SUM({parameter.to_a1()})")
    target = Sheet("shifted")
    for address, stored in reference.items():
        target.set_cell((address.row + 2, address.col), stored)

    def region(sheet, row):
        return encoder.embed_regions(sheet, np.array([row]), np.array([parameter.col]))[0]

    r = region(reference, parameter.row)
    if region(target, parameter.row + 2).tobytes() != r.tobytes():
        return None  # the two sheets' reductions rounded the window apart
    anchor = np.sum((region(target, parameter.row) - r) ** 2)
    return reference, target, cell, float(anchor / np.float32(2.0))


@pytest.mark.parametrize("penalty", [0.0, 0.01, "tie"])
def test_the_slice_holds_the_scan_choice_and_s3_maps_to_it(
    monkeypatch, trained_encoder, penalty
):
    """Each draw is re-grounded as one group: the drawn cell and two more
    target cells (repeats and cells past the sheet's extent included), so
    the slice of every parameter of every item is cut in one pass."""
    rng = np.random.default_rng(("tie", 0.0, 0.01).index(penalty) + 37)
    slices, groups = [], []
    rule, build = base.tier1_slice, pipeline._candidates

    def recording(approx, margin, k):
        mask = rule(approx, margin, k)
        slices.append(mask)
        return mask

    def candidates_of(*args):
        found = build(*args)
        groups.append(found)
        return found

    monkeypatch.setattr(base, "tier1_slice", recording)
    monkeypatch.setattr(pipeline, "_candidates", candidates_of)
    n_scored = n_reranked = n_ties = 0
    for __ in range(N_DRAWS):
        if penalty == "tie":
            drawn = _constructed_tie(trained_encoder, rng)
            if drawn is None:
                continue
            reference, target, cell, weight = drawn
        else:
            (reference, target, cell), weight = _draw(rng), penalty
        config = AutoFormulaConfig(locality_penalty=weight)
        system = AutoFormula(trained_encoder, config)
        system.fit([reference])
        entry = system._reference_sheets[0]
        cells = [cell] + [
            CellAddress(int(rng.integers(0, target.n_rows + 3)), int(rng.integers(0, target.n_cols)))
            for __ in range(2)
        ]
        slices.clear()
        groups.clear()
        system.adapt_batch(target, [(target_cell, 0, 0, 0.1) for target_cell in cells])
        plan = entry.plans[0]
        mapped, scored, reranked = system._map_parameters(
            [(target, target_cell, entry.regions, plan) for target_cell in cells]
        )
        n_scored, n_reranked = n_scored + scored, n_reranked + reranked
        # The pass ran twice (adapt_batch, then _map_parameters); read the
        # second, whose parameters are the jobs' cells in order.
        found, kept = groups[-1], slices[-1] if slices else None
        blocks = dict(zip(found.found, range(len(found.found))))
        for job, target_cell in enumerate(cells):
            moved = (target_cell.row - plan.formula_cell.row, target_cell.col - plan.formula_cell.col)
            for index, ((row, col), chosen) in enumerate(zip(plan.cells.tolist(), mapped[job])):
                anchors = [(row + moved[0], col + moved[1]), (row, col)]
                cells_of = candidates(
                    anchors,
                    (target.n_rows, target.n_cols),
                    (config.neighborhood_rows, config.neighborhood_cols),
                )
                parameter = job * len(plan.cells) + index
                assert (parameter in blocks) == bool(cells_of)
                if not cells_of:
                    continue
                vectors = trained_encoder.embed_regions(
                    target, np.array([r for r, __ in cells_of]), np.array([c for __, c in cells_of])
                )
                r = trained_encoder.embed_regions(reference, np.array([row]), np.array([col]))[0]
                steps = np.array(
                    [min(abs(a - ar) + abs(b - ac) for ar, ac in anchors) for a, b in cells_of],
                    dtype=np.float32,
                )
                scores = np.sum((vectors - r) ** 2, axis=1) + np.float32(weight) * steps
                pick = int(np.argmin(scores))
                n_ties += int(np.count_nonzero(scores == scores[pick]) > 1)
                block = blocks[parameter]
                positions = np.flatnonzero(kept[block])
                rows, cols = found.cells(np.full(positions.size, block), positions)
                held = list(zip(rows.tolist(), cols.tolist()))
                assert cells_of[pick] in held, (cells_of[pick], reference, target, target_cell)
                assert chosen == cells_of[pick]
    # The draws reach the re-rank (slices of more than one candidate), and
    # most constructed ties sit at the scan's minimum.
    assert 0 < n_reranked < n_scored
    if penalty == "tie":
        assert n_ties >= N_DRAWS // 2
