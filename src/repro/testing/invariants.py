"""Invariant checkers for the serving layer.

These functions encode, as executable assertions, the guarantees the
engine's earlier PRs promised in prose:

* **Serving parity** — two workspaces over the same corpus (e.g.
  mutated vs freshly fitted, or restored vs live) answer every request with
  the same formula, confidence, provenance and abstain reason
  (:func:`assert_responses_match`, :func:`assert_matches_fresh_fit`), and
  a mutated predictor holds a fresh fit's index rows byte for byte
  (:func:`assert_same_index_rows`).
* **Tombstone accounting** — after any add/remove/edit history, an
  Auto-Formula predictor's live bookkeeping, its vector indexes' live
  counts and its stable-id maps agree, and no search path can ever
  surface a tombstoned sheet or formula
  (:func:`assert_tombstone_accounting`); a history of adds and value
  edits alone leaves no tombstone at all (:func:`assert_no_tombstones`).
* **Provenance consistency** — an accepted response cites a reference
  workbook that is actually indexed, and the typed response fields are
  mutually consistent (:func:`assert_response_wellformed`).

The checkers are *white-box on purpose*: they reach into predictor
internals (``_reference_sheets``, ``_formula_positions``) because the
whole point is to catch silent corruption that the public surface would
mask.  They raise ``AssertionError`` with a descriptive message.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.service.types import RecommendationResponse

#: Response fields that must agree for two servings to count as identical
#: (latency and workspace identity legitimately differ between replays).
_COMPARED_FIELDS = ("formula", "confidence", "abstain_reason", "provenance", "method")


def response_signature(response: RecommendationResponse):
    """The comparable content of a response (drops latency/identity)."""
    return tuple(getattr(response, field) for field in _COMPARED_FIELDS)


def assert_responses_match(
    left: Sequence[RecommendationResponse],
    right: Sequence[RecommendationResponse],
    context: str = "",
) -> None:
    """Two response streams must be position-wise identical."""
    prefix = f"{context}: " if context else ""
    assert len(left) == len(right), (
        f"{prefix}response streams differ in length: {len(left)} vs {len(right)}"
    )
    for position, (a, b) in enumerate(zip(left, right)):
        sig_a, sig_b = response_signature(a), response_signature(b)
        assert sig_a == sig_b, (
            f"{prefix}response {position} diverged:\n  left:  {sig_a}\n  right: {sig_b}"
        )


def assert_response_wellformed(response: RecommendationResponse, workspace) -> None:
    """Typed-field consistency plus provenance-against-corpus consistency."""
    assert 0.0 <= response.confidence <= 1.0, (
        f"confidence {response.confidence} outside [0, 1]"
    )
    if response.formula is None:
        assert response.abstain_reason is not None, (
            "abstained response carries no abstain_reason"
        )
        assert not response.accepted
    else:
        assert response.abstain_reason is None, (
            f"accepted response carries abstain_reason {response.abstain_reason}"
        )
        assert response.accepted
        reference_workbook = response.provenance.get("reference_workbook")
        assert reference_workbook in workspace.workbook_names, (
            f"provenance cites {reference_workbook!r}, which is not indexed "
            f"(indexed: {workspace.workbook_names}) — a stale tombstoned hit"
        )


# ------------------------------------------------------------- tombstones


def assert_tombstone_accounting(predictor) -> None:
    """Audit an Auto-Formula predictor's live/tombstone bookkeeping.

    Verifies that (0) the workbook → ids and sheet → id lookups mirror the
    reference-sheet registry, (1) live counts agree between the registry
    and both vector indexes, (2) every live sheet's recorded
    physical positions are alive in the stores and every tombstoned
    sheet's bookkeeping was cleared, and (3) exhaustive searches surface
    only live sheets/formulas — i.e. no search path can return a
    tombstoned position.
    """
    references = predictor._reference_sheets
    live_ids = [
        sheet_id for sheet_id, ref in enumerate(references) if ref is not None
    ]
    by_workbook = {}
    for sheet_id in live_ids:
        by_workbook.setdefault(references[sheet_id].workbook_name, []).append(sheet_id)
    assert predictor._workbook_sheet_ids == by_workbook, (
        "workbook → sheet-id lookup disagrees with the reference-sheet registry"
    )
    assert predictor._sheet_ids == {
        id(references[sheet_id].sheet): sheet_id for sheet_id in live_ids
    }, "sheet → sheet-id lookup disagrees with the reference-sheet registry"
    if predictor.sheet_index is None:
        assert not live_ids, "fitted sheets but no sheet index"
        return

    n_live_sheets = len(live_ids)
    n_live_formulas = sum(len(references[sheet_id].formulas) for sheet_id in live_ids)
    assert len(predictor.sheet_index) == n_live_sheets, (
        f"sheet index holds {len(predictor.sheet_index)} live vectors for "
        f"{n_live_sheets} live sheets"
    )
    assert len(predictor.formula_index) == n_live_formulas, (
        f"formula index holds {len(predictor.formula_index)} live vectors for "
        f"{n_live_formulas} live formulas"
    )

    for sheet_id, reference in enumerate(references):
        sheet_position = predictor._sheet_positions[sheet_id]
        formula_positions = predictor._formula_positions[sheet_id]
        if reference is None:
            assert sheet_position is None and formula_positions is None, (
                f"removed sheet {sheet_id} still has physical positions"
            )
            continue
        assert sheet_position is not None and formula_positions is not None, (
            f"live sheet {sheet_id} lost its physical positions"
        )
        assert len(formula_positions) == len(reference.formulas), (
            f"sheet {sheet_id}: {len(formula_positions)} stored positions for "
            f"{len(reference.formulas)} formulas"
        )

    # Exhaustive-search audit: every reachable hit must be a live sheet.
    if n_live_sheets:
        dimension = predictor.sheet_index.dimension
        probe = np.zeros((1, dimension), dtype=np.float32)
        hits = predictor.sheet_index.search_batch(probe, k=n_live_sheets + 8)[0]
        assert len(hits) == n_live_sheets, (
            f"exhaustive sheet search returned {len(hits)} hits for "
            f"{n_live_sheets} live sheets"
        )
        for hit in hits:
            assert references[int(hit.key)] is not None, (
                f"sheet search surfaced tombstoned sheet {hit.key}"
            )
    if n_live_formulas:
        dimension = predictor.formula_index.dimension
        probe = np.zeros((1, dimension), dtype=np.float32)
        hits = predictor.formula_index.search_batch(probe, k=n_live_formulas + 8)[0]
        assert len(hits) == n_live_formulas, (
            f"exhaustive formula search returned {len(hits)} hits for "
            f"{n_live_formulas} live formulas"
        )
        for hit in hits:
            sheet_id, local = hit.key
            assert references[int(sheet_id)] is not None, (
                f"formula search surfaced formula of tombstoned sheet {sheet_id}"
            )
            assert int(local) < len(references[int(sheet_id)].formulas)


def assert_no_tombstones(predictor) -> None:
    """Neither index holds a dead row.

    What a history without removals must leave behind: adds append, and a
    value edit overwrites the rows its sheet already owns (only an edit
    that changes a sheet's formula list tombstones that sheet's old formula
    rows).
    """
    for label, index in (
        ("sheet", predictor.sheet_index),
        ("formula", predictor.formula_index),
    ):
        assert index is None or index.n_tombstones == 0, (
            f"{label} index holds {index.n_tombstones} tombstones after a "
            "history without removals"
        )


# ------------------------------------------------------------ fresh-fit parity


def _live_rows(predictor):
    """An Auto-Formula predictor's live index rows as bytes, keyed as a
    fresh fit on the same corpus keys them: the S1 rows in corpus order,
    each with its workbook and sheet names, and the S2 rows by ``(corpus
    position of the sheet, formula number)``, each with its cell and text."""
    sheet_rows, formula_rows = [], {}
    for sheet_id, reference in enumerate(predictor._reference_sheets):
        if reference is None:
            continue
        position = predictor._sheet_positions[sheet_id]
        for local, (formula, row) in enumerate(
            zip(reference.formulas, predictor._formula_positions[sheet_id])
        ):
            formula_rows[(len(sheet_rows), local)] = (
                formula.address.to_a1(),
                formula.formula,
                predictor.formula_index.vectors[row].tobytes(),
            )
        sheet_rows.append(
            (
                reference.workbook_name,
                reference.sheet.name,
                predictor.sheet_index.vectors[position].tobytes(),
            )
        )
    return sheet_rows, formula_rows


def assert_same_index_rows(predictor, other, context: str = "") -> None:
    """Two Auto-Formula predictors over one corpus hold the same live S1
    and S2 rows, byte for byte (see :func:`_live_rows` for the keys): fit,
    add, edit and restore all write what a fresh fit writes."""
    prefix = f"{context}: " if context else ""
    (sheets, formulas), (other_sheets, other_formulas) = _live_rows(predictor), _live_rows(other)
    assert sheets == other_sheets, f"{prefix}live S1 rows differ"
    assert formulas == other_formulas, f"{prefix}live S2 rows differ"


def assert_matches_fresh_fit(
    workspace,
    predictor_factory: Callable[[], object],
    cases: Sequence,
    context: str = "",
) -> None:
    """A mutated workspace must predict like a fresh fit on its corpus.

    The *equivalent corpus* is the workspace's current workbook list in
    insertion order — exactly what ``workspace.workbooks()`` reports.  An
    edit keeps its workbook's place; only a remove followed by an add moves
    one (to the end).  A brand-new predictor is fitted
    on it, its live index rows are compared with the workspace predictor's
    byte for byte (:func:`assert_same_index_rows`), and it is compared
    prediction-by-prediction against the workspace's serving path.  Both
    sides run this package's pipeline, so a bug common to them passes
    here: ``repro.testing.reference`` is the independent check.  The
    factory usually hands the fresh predictor the
    workspace's own encoder, so the encoder's feature-tensor cache is
    cleared first: the comparison must not inherit what the workspace left
    there (a stale tensor would make both sides agree on a wrong answer).
    """
    from repro.service.types import RecommendationRequest  # local: avoid cycle

    fresh = predictor_factory()
    encoder = getattr(fresh, "encoder", None)
    if encoder is not None:
        encoder.featurizer.clear_cache()
    fresh.fit(workspace.workbooks())
    assert_same_index_rows(workspace.predictor, fresh, context)
    prefix = f"{context}: " if context else ""
    for case in cases:
        expected = fresh.predict(case.target_sheet, case.target_cell)
        response = workspace.recommend(
            RecommendationRequest(case.target_sheet, case.target_cell)
        )
        if expected is None:
            assert response.formula is None, (
                f"{prefix}fresh fit abstains on {case.target_cell.to_a1()}, "
                f"workspace answered {response.formula!r}"
            )
        else:
            assert response.formula == expected.formula, (
                f"{prefix}formula diverged on {case.target_cell.to_a1()}: "
                f"{response.formula!r} vs fresh {expected.formula!r}"
            )
            assert response.confidence == expected.confidence, (
                f"{prefix}confidence diverged on {case.target_cell.to_a1()}"
            )
            assert response.provenance == expected.details, (
                f"{prefix}provenance diverged on {case.target_cell.to_a1()}"
            )
