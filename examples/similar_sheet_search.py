"""Using the similar-sheet / similar-region primitives directly.

The paper positions "similar-sheet" and "similar-region" as primitives of
independent interest beyond formula recommendation (e.g. content
auto-filling, error detection).  This example uses the trained encoder and
the ANN indexes directly — without the formula pipeline — to find, for a
given sheet, its nearest neighbours in a corpus, and for a given cell, the
most similar regions on those neighbours.

Run with:  python examples/similar_sheet_search.py
"""

import numpy as np

from repro import (
    ModelConfig,
    TrainingConfig,
    build_enterprise_corpus,
    build_training_universe,
    generate_training_pairs,
    train_models,
)
from repro.ann import VectorIndex
from repro.sheet import CellAddress


def main() -> None:
    print("Training representation models ...")
    universe = build_training_universe(n_families=8, copies_per_family=3, n_singletons=6)
    encoder, __ = train_models(
        generate_training_pairs(universe), ModelConfig(), TrainingConfig(epochs=8)
    )

    print("Embedding and indexing the TI corpus at sheet level ...")
    corpus = build_enterprise_corpus("TI")
    sheets = [(workbook.name, sheet) for workbook in corpus.workbooks for sheet in workbook]
    index = VectorIndex(encoder.coarse_dimension)
    for position, (__, sheet) in enumerate(sheets):
        index.add(position, encoder.embed_sheet(sheet))

    # Pick a query sheet and show its nearest similar-sheets.
    query_position = 0
    query_name, query_sheet = sheets[query_position]
    print(f"\nQuery sheet: {query_name} / {query_sheet.name} ({query_sheet.n_rows} rows)")
    print("Most similar sheets in the corpus:")
    hits = index.search(encoder.embed_sheet(query_sheet), k=6)
    for hit in hits:
        if hit.key == query_position:
            continue
        workbook_name, sheet = sheets[int(hit.key)]
        print(
            f"  distance {hit.distance:6.3f}  {workbook_name} / {sheet.name} "
            f"({sheet.n_rows} rows, {sheet.n_formulas()} formulas)"
        )

    # Region-level: find the most similar formula region for one formula cell.
    formula_cells = query_sheet.formula_cells()
    if formula_cells:
        address, cell = formula_cells[0]
        print(f"\nQuery region: around {query_sheet.name}!{address.to_a1()} ({cell.formula})")
        query_vector = encoder.embed_region(query_sheet, address)
        best = None
        for workbook_name, sheet in sheets:
            if sheet is query_sheet:
                continue
            for other_address, other_cell in sheet.formula_cells():
                vector = encoder.embed_region(sheet, other_address)
                distance = float(np.sum((vector - query_vector) ** 2))
                if best is None or distance < best[0]:
                    best = (distance, workbook_name, sheet.name, other_address, other_cell.formula)
        if best is not None:
            distance, workbook_name, sheet_name, other_address, formula = best
            print(
                f"Most similar region: {workbook_name} / {sheet_name}!{other_address.to_a1()} "
                f"(distance {distance:.3f})"
            )
            print(f"  its formula: {formula}")


if __name__ == "__main__":
    main()
