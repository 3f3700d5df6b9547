"""Tests for the end-to-end Auto-Formula pipeline (S1/S2/S3)."""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro import Workspace
from repro.ann import VectorIndex
from repro.core import AutoFormula, AutoFormulaConfig
from repro.core import pipeline
from repro.core.pipeline import _candidates, _Regions
from repro.corpus import sample_test_cases, split_corpus
from repro.evaluation import run_method_on_cases
from repro.service import RecommendationRequest
from repro.formula.template import extract_template
from repro.sheet import CellAddress, Sheet, Workbook
from repro.testing.reference import ReferenceAutoFormula, candidates
from repro.testing.workload import tie_heavy_sheet


@pytest.fixture(scope="module")
def pge_workload(pge_corpus):
    test, reference = split_corpus(pge_corpus, 0.15, "timestamp")
    return sample_test_cases("PGE", test, seed=0), reference


@pytest.fixture(scope="module")
def fitted_system(trained_encoder, pge_workload):
    __, reference = pge_workload
    system = AutoFormula(trained_encoder, AutoFormulaConfig())
    system.fit(reference)
    return system


class TestConfigValidation:
    def test_defaults_valid(self):
        AutoFormulaConfig()

    def test_invalid_top_k(self):
        with pytest.raises(ValueError):
            AutoFormulaConfig(top_k_sheets=0)

    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            AutoFormulaConfig(granularity="medium")

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            AutoFormulaConfig(acceptance_threshold=0.0)

    @pytest.mark.parametrize(
        "rows, cols", [(0, 2), (-1, 2), (8, 0), (8, -3)]
    )
    def test_non_positive_neighborhood_rejected(self, rows, cols):
        with pytest.raises(ValueError, match="neighborhood"):
            AutoFormulaConfig(neighborhood_rows=rows, neighborhood_cols=cols)


class TestCorpusMutation:
    """add_workbooks / remove_workbook keep the predictor's bookkeeping
    consistent (prediction parity itself is asserted in test_service.py)."""

    def test_add_then_remove_restores_counts(self, trained_encoder, pge_workload):
        __, reference = pge_workload
        system = AutoFormula(trained_encoder, AutoFormulaConfig())
        system.fit(reference[:3])
        sheets_before = system.n_reference_sheets
        formulas_before = system.n_reference_formulas

        system.add_workbook(reference[3])
        assert system.n_reference_sheets == sheets_before + len(reference[3])
        removed = system.remove_workbook(reference[3].name)
        assert removed == len(reference[3])
        assert system.n_reference_sheets == sheets_before
        assert system.n_reference_formulas == formulas_before

    def test_add_workbooks_on_unfitted_predictor_fits(self, trained_encoder, pge_workload):
        __, reference = pge_workload
        system = AutoFormula(trained_encoder, AutoFormulaConfig())
        system.add_workbooks(reference[:2])
        assert system.n_reference_sheets == sum(len(workbook) for workbook in reference[:2])

    def test_remove_unknown_workbook_raises(self, trained_encoder, pge_workload):
        __, reference = pge_workload
        system = AutoFormula(trained_encoder, AutoFormulaConfig())
        system.fit(reference[:2])
        with pytest.raises(KeyError):
            system.remove_workbook("no-such-workbook")


class TestOfflinePhase:
    def test_fit_indexes_sheets_and_formulas(self, fitted_system, pge_workload):
        __, reference = pge_workload
        n_sheets = sum(len(workbook) for workbook in reference)
        n_formulas = sum(workbook.n_formulas() for workbook in reference)
        assert fitted_system.n_reference_sheets == n_sheets
        assert fitted_system.n_reference_formulas == n_formulas

    def test_fit_accepts_bare_sheets(self, trained_encoder):
        sheet = Sheet("solo")
        sheet.set("A1", 1)
        sheet.set("A2", formula="=A1*2")
        system = AutoFormula(trained_encoder)
        system.fit([sheet])
        assert system.n_reference_sheets == 1

    def test_predict_before_fit_abstains(self, trained_encoder):
        system = AutoFormula(trained_encoder)
        assert system.predict(Sheet(), CellAddress(0, 0)) is None


class TestOnlinePrediction:
    def test_predictions_have_provenance(self, fitted_system, pge_workload):
        cases, __ = pge_workload
        prediction = None
        for case in cases:
            prediction = fitted_system.predict(case.target_sheet, case.target_cell)
            if prediction is not None:
                break
        assert prediction is not None
        assert prediction.formula.startswith("=")
        assert 0.0 <= prediction.confidence <= 1.0
        for key in ("reference_workbook", "reference_sheet", "reference_cell", "reference_formula"):
            assert key in prediction.details

    def test_quality_on_templated_corpus(self, fitted_system, pge_workload):
        """On the highly-templated PGE corpus the system should do very well."""
        cases, reference = pge_workload
        run = run_method_on_cases(fitted_system, reference, cases, "PGE", fit=False)
        assert run.metrics.recall > 0.7
        assert run.metrics.precision > 0.85

    def test_predicted_template_matches_reference_template(self, fitted_system, pge_workload):
        cases, __ = pge_workload
        for case in cases[:10]:
            prediction = fitted_system.predict(case.target_sheet, case.target_cell)
            if prediction is None:
                continue
            predicted_template = extract_template(prediction.formula).signature
            reference_template = extract_template(prediction.details["reference_formula"]).signature
            assert predicted_template == reference_template

    def test_abstains_on_unrelated_sheet(self, fitted_system):
        """A sheet with content unlike anything in the corpus yields no prediction."""
        weird = Sheet("totally unrelated")
        for row in range(15):
            weird.set((row, 0), f"zzz{row}qqq")
        prediction = fitted_system.predict(weird, CellAddress(20, 5))
        if prediction is not None:  # if it does predict, confidence must be low
            assert prediction.confidence < 0.99

    def test_tight_threshold_increases_abstention(self, trained_encoder, pge_workload):
        cases, reference = pge_workload
        loose = AutoFormula(trained_encoder, AutoFormulaConfig(acceptance_threshold=3.9))
        tight = AutoFormula(trained_encoder, AutoFormulaConfig(acceptance_threshold=0.01))
        loose.fit(reference)
        tight.fit(reference)
        loose_predictions = sum(
            1 for case in cases[:20] if loose.predict(case.target_sheet, case.target_cell) is not None
        )
        tight_predictions = sum(
            1 for case in cases[:20] if tight.predict(case.target_sheet, case.target_cell) is not None
        )
        assert tight_predictions <= loose_predictions

    def test_paper_example_adaptation(self, trained_encoder):
        """A Figure-1-style pair: the COUNTIF formula is adapted across sheet sizes."""
        def build_survey(n_rows: int, name: str, with_formula: bool) -> Sheet:
            sheet = Sheet(name)
            sheet.set("A1", "Color survey")
            sheet.set("B6", "Respondent")
            sheet.set("C6", "Answer")
            sheet.set("D6", "Count")
            colors = ["Brown", "Green", "Blue"]
            for offset in range(n_rows):
                sheet.set((6 + offset, 1), f"person {offset}")
                sheet.set((6 + offset, 2), colors[offset % 3])
            summary_row = 6 + n_rows + 2
            sheet.set((summary_row, 2), "Brown")
            if with_formula:
                sheet.set(
                    (summary_row, 3),
                    formula=f"=COUNTIF(C7:C{6 + n_rows},C{summary_row + 1})",
                )
            return sheet, CellAddress(summary_row, 3)

        reference_sheet, __ = build_survey(40, "Responses", with_formula=True)
        target_sheet, target_cell = build_survey(31, "Responses", with_formula=False)
        reference_workbook = Workbook("ref.xlsx")
        reference_workbook.add_sheet(reference_sheet)

        system = AutoFormula(trained_encoder, AutoFormulaConfig(acceptance_threshold=2.0))
        system.fit([reference_workbook])
        prediction = system.predict(target_sheet, target_cell)
        assert prediction is not None
        assert extract_template(prediction.formula).signature == "COUNTIF(_:_,_)"
        assert prediction.formula == f"=COUNTIF(C7:C37,C{target_cell.row + 1})"


class TestBatchPrediction:
    def test_predict_batch_matches_sequential_predict(
        self, trained_encoder, fitted_system, pge_workload
    ):
        """The vectorized batch path must return exactly what the reference
        predicts one cell at a time, abstentions included."""
        cases, reference_workbooks = pge_workload
        reference = ReferenceAutoFormula.over(trained_encoder, fitted_system.config)
        by_sheet = {}
        for case in cases:
            by_sheet.setdefault(id(case.target_sheet), (case.target_sheet, []))[1].append(
                case.target_cell
            )
        for sheet, cells in by_sheet.values():
            assert fitted_system.predict_batch(sheet, cells) == [
                reference.predict(reference_workbooks, sheet, cell) for cell in cells
            ]

    def test_staged_api_composes_to_predict_batch(self, trained_encoder, pge_workload, make_config):
        """The public stages, driven from outside — embed once, S1, S2 with
        S3 deferred, threshold, S3 on the winners — must reproduce
        ``predict_batch`` exactly (formula, confidence, provenance), and S2
        bests scored over disjoint sheet subsets must merge back into the
        full-list result by ``(distance, sheet_rank, formula_index)``."""
        cases, reference = pge_workload
        system = AutoFormula(trained_encoder, make_config())
        system.fit(reference)
        threshold = system.config.acceptance_threshold
        accepted = abstained = 0
        for case in cases[:12]:
            sheet = case.target_sheet
            # Off-sheet and header cells make every group multi-cell and
            # give it cells that abstain.
            cells = [
                case.target_cell,
                CellAddress(sheet.n_rows + 40, sheet.n_cols + 15),
                CellAddress(0, 0),
            ]
            expected = system.predict_batch(sheet, cells)

            query = system.sheet_query_vector(sheet)
            sheet_ids = [int(hit.key) for hit in system.sheet_hits(sheet, query_vector=query)]
            assert sheet_ids
            vectors = system.region_query_vectors(sheet, cells)
            scored = system.predict_batch_scored(
                sheet, cells, sheet_ids, target_vectors=vectors, adapt=False
            )
            assert all(item.prediction is None for item in scored)
            winners = [
                position
                for position, item in enumerate(scored)
                if item.distance <= threshold
            ]
            adapted = system.adapt_batch(
                sheet,
                [
                    (
                        cells[position],
                        sheet_ids[scored[position].sheet_rank],
                        scored[position].formula_index,
                        scored[position].distance,
                    )
                    for position in winners
                ],
            )
            staged = [None] * len(cells)
            for position, prediction in zip(winners, adapted):
                staged[position] = prediction
            assert staged == expected
            accepted += sum(prediction is not None for prediction in expected)
            abstained += sum(prediction is None for prediction in expected)

            # Restricted sheet_ids: score the even- and odd-ranked hit
            # sheets separately and merge the bests.
            merged = [None] * len(cells)
            for ranks in (range(0, len(sheet_ids), 2), range(1, len(sheet_ids), 2)):
                subset = [sheet_ids[rank] for rank in ranks]
                partial = system.predict_batch_scored(
                    sheet, cells, subset, target_vectors=vectors, adapt=False
                )
                for position, item in enumerate(partial):
                    if item is None:
                        continue
                    key = (item.distance, ranks[item.sheet_rank], item.formula_index)
                    if merged[position] is None or key < merged[position]:
                        merged[position] = key
            assert merged == [
                (item.distance, item.sheet_rank, item.formula_index) for item in scored
            ]
        assert accepted and abstained

    def test_predict_batch_empty(self, fitted_system):
        assert fitted_system.predict_batch(Sheet(), []) == []

    def test_predict_batch_before_fit_abstains(self, trained_encoder):
        system = AutoFormula(trained_encoder)
        sheet = Sheet()
        assert system.predict_batch(sheet, [CellAddress(0, 0), CellAddress(1, 1)]) == [None, None]

    def test_in_place_mutation_of_a_target_sheet_is_seen(self, fitted_system, pge_workload):
        """Regression: the per-sheet caches were keyed on ``id(sheet)``
        alone, so a target sheet overwritten through ``set`` kept getting
        the answer of its old content."""
        cases, __ = pge_workload
        case = next(
            case
            for case in cases
            if fitted_system.predict(case.target_sheet, case.target_cell) is not None
        )
        sheet = case.target_sheet.copy()
        before = fitted_system.predict(sheet, case.target_cell)
        assert before is not None
        for address, cell in list(sheet.cells()):
            if not cell.has_formula:
                sheet.set(address, f"zzz {address.row} qqq {address.col}")
        after = fitted_system.predict(sheet, case.target_cell)
        assert after == fitted_system.predict(sheet.copy(), case.target_cell)
        assert after != before


class TestGranularityModes:
    @pytest.mark.parametrize("granularity", ["both", "coarse_only", "fine_only"])
    def test_all_modes_run(self, trained_encoder, pge_workload, granularity):
        cases, reference = pge_workload
        system = AutoFormula(
            trained_encoder,
            AutoFormulaConfig(granularity=granularity, acceptance_threshold=2.0),
        )
        system.fit(reference)
        prediction = system.predict(cases[0].target_sheet, cases[0].target_cell)
        assert prediction is None or prediction.formula.startswith("=")

    def test_coarse_only_answers_are_a_function_of_the_request(
        self, trained_encoder, pge_workload
    ):
        """A coarse forward rounds a window's row differently in another
        batch, and the coarse-only ablation embeds S2's query regions and
        S3's candidates with the coarse model: each query cell goes through
        a forward of its own and each formula's candidates through one call
        of their own, so a target's answers cannot depend on which requests
        came before them or beside them."""
        cases, reference = pge_workload
        system = AutoFormula(
            trained_encoder,
            AutoFormulaConfig(granularity="coarse_only", acceptance_threshold=2.0),
        )
        system.fit(reference)
        n_answered = 0
        for case in cases[:8]:
            row, col = case.target_cell.row, case.target_cell.col
            cells = [case.target_cell] + [
                CellAddress(max(row + dr, 0), max(col + dc, 0))
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1), (3, 0))
            ]
            # A fresh copy per order: nothing one order embedded is seen by
            # the next.
            batch = system.predict_batch(case.target_sheet.copy(), cells)
            sheet = case.target_sheet.copy()
            one_at_a_time = [system.predict(sheet, cell) for cell in cells]
            reverse = system.predict_batch(case.target_sheet.copy(), cells[::-1])[::-1]
            assert batch == one_at_a_time == reverse
            n_answered += sum(prediction is not None for prediction in batch)
        assert n_answered

    def test_full_model_not_worse_than_coarse_only(self, trained_encoder, pge_workload):
        cases, reference = pge_workload
        full = AutoFormula(trained_encoder, AutoFormulaConfig())
        coarse = AutoFormula(trained_encoder, AutoFormulaConfig(granularity="coarse_only"))
        full_run = run_method_on_cases(full, reference, cases, "PGE")
        coarse_run = run_method_on_cases(coarse, reference, cases, "PGE")
        assert full_run.metrics.f1 >= coarse_run.metrics.f1


# ---------------------------------------------------------------------- S3

def _table_sheet(name, n_rows, n_cols, rng):
    sheet = Sheet(name)
    for row in range(n_rows):
        for col in range(n_cols):
            if rng.random() < 0.8:
                value = f"label {rng.integers(5)}" if col == 0 else float(rng.integers(1000))
                sheet.set((row, col), value)
    if n_rows and n_cols:
        sheet.set((n_rows - 1, n_cols - 1), 1.0)  # pin the extent
    return sheet


class TestRegrounding:
    """The array S3 against the reference's nested loops."""

    def test_candidate_order_matches_nested_loops(self, rng):
        cases = [
            # (anchors, extent, reach)
            ([(3, 3), (3, 3)], (10, 10), (2, 1)),  # coincident anchors
            ([(-9, 2), (4, 2)], (10, 10), (2, 1)),  # primary off-sheet
            ([(4, 2), (40, 2)], (10, 10), (2, 1)),  # secondary past the extent
            ([(-9, -9), (99, 99)], (10, 10), (2, 1)),  # both off-sheet
            ([(0, 0), (5, 5)], (0, 0), (8, 2)),  # 0x0 sheet
            ([(7, 7), (0, 1)], (1, 1), (8, 2)),  # 1x1 sheet
            ([(2, 2), (3, 1)], (4, 3), (8, 8)),  # neighborhoods larger than the sheet
            ([(3, 3), (5, 3)], (20, 10), (2, 1)),  # second reaching below the first
            ([(6, 3), (3, 3)], (20, 10), (2, 1)),  # second reaching above the first
            ([(6, 3), (3, 4)], (20, 10), (2, 1)),  # ... and to the right
            ([(6, 5), (7, 3)], (20, 10), (2, 1)),  # below and to the left
        ]
        for __ in range(300):
            extent = (int(rng.integers(0, 40)), int(rng.integers(0, 12)))
            anchors = [
                (int(rng.integers(-12, 26)), int(rng.integers(-6, 15))) for __ in range(2)
            ]
            cases.append((anchors, extent, (int(rng.integers(1, 10)), int(rng.integers(1, 4)))))
        for anchors, extent, reach in cases:
            self._check_group([anchors], extent, reach)
        # A group of parameters on one sheet gives each the block it gets
        # alone, in parameter order.
        for __ in range(60):
            extent = (int(rng.integers(0, 40)), int(rng.integers(0, 12)))
            reach = (int(rng.integers(1, 10)), int(rng.integers(1, 4)))
            group = [
                [(int(rng.integers(-12, 26)), int(rng.integers(-6, 15))) for __ in range(2)]
                for __ in range(int(rng.integers(1, 7)))
            ]
            if rng.random() < 0.5:
                group[0][1] = group[0][0]  # coincident anchors
            self._check_group(group, extent, reach)

    @staticmethod
    def _check_group(group, extent, reach):
        found = _candidates([(*moved, *own) for moved, own in group], extent, reach)
        expected = [candidates(anchors, extent, reach) for anchors in group]
        assert found.found == [index for index, cells in enumerate(expected) if cells]
        height, width = max(extent[0], 1), max(extent[1], 1)
        box_height, box_width = found.shape
        # Every box lies inside the sheet (an empty axis has cell 0).
        assert (found.origins >= 0).all()
        assert (found.origins[..., 0] + box_height <= height).all()
        assert (found.origins[..., 1] + box_width <= width).all()
        for block, parameter in enumerate(found.found):
            anchors, cells = group[parameter], expected[parameter]
            positions = np.flatnonzero(found.mask[block])
            rows, cols = found.cells(np.full(positions.size, block), positions)
            assert list(zip(rows.tolist(), cols.tolist())) == cells
            assert found.steps[block].ravel()[positions].tolist() == [
                min(abs(row - anchor_row) + abs(col - anchor_col) for anchor_row, anchor_col in anchors)
                for row, col in cells
            ]
        # The boxes the products are taken over are the ones holding
        # candidates.
        holding = np.flatnonzero(found.mask.any(axis=(2, 3)).ravel())
        assert found.boxes.tolist() == holding.tolist()

    @pytest.mark.parametrize(
        "formula",
        [
            "=SUM(B2:B6)",
            "=B2+B2*C3",  # the same cell twice
            "=SUM(B2:B6)/B6",  # a range end referenced again as a cell
            "=SUM(A1:C40)+F30",  # parameters outside the reference's used extent
            "=1+2",  # no parameters at all
        ],
    )
    def test_adapt_batch_matches_naive_oracle(self, trained_encoder, rng, formula):
        reference = _table_sheet("reference", 9, 4, rng)
        formula_cell = CellAddress(7, 2)
        reference.set(formula_cell, formula=formula)
        system = AutoFormula(trained_encoder, AutoFormulaConfig())
        system.fit([reference])
        oracle = ReferenceAutoFormula.over(trained_encoder, system.config)
        targets = [
            (Sheet("empty"), [CellAddress(0, 0), CellAddress(12, 3)]),  # 0x0
            (_table_sheet("one", 1, 1, rng), [CellAddress(0, 0), CellAddress(5, 1)]),
            (_table_sheet("small", 3, 2, rng), [CellAddress(2, 1), CellAddress(0, 0)]),
        ]
        for index in range(4):
            sheet = _table_sheet(f"random-{index}", int(rng.integers(4, 30)), int(rng.integers(2, 7)), rng)
            cells = [formula_cell]  # zero displacement: coincident anchors
            cells += [
                CellAddress(int(rng.integers(0, 45)), int(rng.integers(0, 9))) for __ in range(3)
            ]
            targets.append((sheet, cells))
        for sheet, cells in targets:
            adapted = system.adapt_batch(sheet, [(cell, 0, 0, 0.1) for cell in cells])
            assert [prediction.formula for prediction in adapted] == [
                oracle.adapt(reference, formula_cell, formula, sheet, cell) for cell in cells
            ]

    @pytest.mark.parametrize("formula", ["=A0", "=SUM(B2:B6)+XFE1", "=SUM(A0:B3)"])
    def test_a_reference_that_names_no_cell_is_indexed_and_abstains(
        self, trained_encoder, rng, formula
    ):
        """The fit indexes the formula (its parameters are skipped, as for
        any formula that does not parse), and a request whose S2 winner it
        is abstains in S3 instead of raising."""
        reference = _table_sheet("reference", 9, 4, rng)
        reference.set((7, 2), formula=formula)
        system = AutoFormula(trained_encoder, AutoFormulaConfig(acceptance_threshold=4.0))
        system.fit([reference])
        assert system.n_reference_formulas == 1
        target = reference.copy()
        assert system.predict(target, CellAddress(7, 2)) is None
        [scored] = system.predict_batch_scored(target, [CellAddress(7, 2)], [0])
        assert scored.prediction is None and scored.formula_index == 0

    def test_unparseable_reference_formula_abstains_from_the_cached_plan(self, trained_encoder, rng):
        reference = _table_sheet("reference", 6, 3, rng)
        reference.set((5, 2), formula="=SUM(B2:")
        system = AutoFormula(trained_encoder, AutoFormulaConfig())
        system.fit([reference])
        target = _table_sheet("target", 6, 3, rng)
        item = (CellAddress(5, 2), 0, 0, 0.1)
        assert system.adapt_batch(target, [item]) == [None]
        assert system._reference_sheets[0].plans == {0: None}
        assert system.adapt_batch(target, [item, item]) == [None, None]

    def test_candidates_are_scored_without_embedding_them(
        self, tracer, monkeypatch, trained_encoder, rng
    ):
        """Under the fine fast path S3 reads its tier-1 terms off the
        target's reduced tensor: a request embeds no target region but the
        cells its slices keep for the re-rank, and builds the target's
        reduced entry once; a repeat builds nothing, and the counts and the
        span agree."""
        reference = _table_sheet("reference", 9, 4, rng)
        reference.set((7, 2), formula="=SUM(B2:B6)")
        system = AutoFormula(trained_encoder, AutoFormulaConfig())
        system.fit([reference])
        target = _table_sheet("target", 12, 4, rng)
        item = (CellAddress(7, 2), 0, 0, 0.1)
        embedded = []
        embed_regions = trained_encoder.embed_regions

        def counting(sheet, rows, *args, **kwargs):
            if sheet is target:
                embedded.append(len(rows))
            return embed_regions(sheet, rows, *args, **kwargs)

        monkeypatch.setattr(trained_encoder, "embed_regions", counting)
        reduced = trained_encoder._reduced_cache
        spans = []
        for __ in range(2):
            before = reduced.stats()["miss"]
            embedded.clear()
            tracer.reset()
            system.adapt_batch(target, [item])
            spans.append(dict(tracer.recent_traces()[-1]["root"]["attributes"]))
            spans[-1]["reduced_misses"] = reduced.stats()["miss"] - before
            spans[-1]["embedded"] = sum(embedded)
        (cold, warm) = spans
        assert cold["n_candidates"] == warm["n_candidates"] > 0
        assert cold["embedded"] == cold["n_reranked"] == warm["embedded"] == warm["n_reranked"]
        assert cold["embedded"] < cold["n_candidates"]
        assert (cold["reduced_misses"], warm["reduced_misses"]) == (1, 0)
        assert "n_region_misses" not in cold
        counts = system.counters()
        assert counts["s3.candidates_scored"] == 2 * cold["n_candidates"]
        assert counts["s3.candidates_reranked"] == 2 * cold["n_reranked"]
        assert not any(key.startswith("workspace.region_store") for key in counts)


class TestSlicedRegrounding:
    """S3's tier 1 selects, the sequential expression decides: the chosen
    cell is the reference's one-row-at-a-time scan's, whatever BLAS does to
    the product."""

    @pytest.mark.parametrize("d", [1, 7, 64, 1280])
    def test_rowwise_sum_does_not_depend_on_the_rows_beside_it(self, d):
        """The re-rank sums a slice of the candidates; the choice is the
        full scan's only if a row sums to the same bits in any company."""
        rng = np.random.default_rng(d)
        scales = rng.choice([1e-6, 1.0, 1e3], size=(300, 1))
        x = (rng.standard_normal((300, d)) * scales).astype(np.float32)
        x[5:9] = x[4]
        full = np.sum(x, axis=1)
        for n in (1, 2, 3, 67, 300):
            rows = rng.choice(300, size=n, replace=False)
            assert np.sum(x[rows], axis=1).tobytes() == full[rows].tobytes()
        for row in range(0, 300, 7):
            assert np.sum(x[row : row + 1], axis=1).tobytes() == full[row : row + 1].tobytes()

    def test_ties_are_reranked_and_counted(self, tracer, trained_encoder, rng):
        """A row copied down the sheet embeds to equal vectors away from the
        edges: tier 1 cannot settle those slices, the sequential expression
        does (its choice is the reference's), and the counts and the
        span say how many rows it took."""
        reference = tie_heavy_sheet("copied_rows", 60, 4, rng)
        reference.set((40, 2), formula="=SUM(B25:B30)")
        # No locality penalty: every interior cell of column B ties exactly.
        system = AutoFormula(trained_encoder, AutoFormulaConfig(locality_penalty=0.0))
        system.fit([reference])
        oracle = ReferenceAutoFormula.over(trained_encoder, system.config)
        counts = system.counters()
        assert (counts["s3.candidates_scored"], counts["s3.candidates_reranked"]) == (0, 0)
        spans = []
        for target in (reference.copy(), _table_sheet("target", 12, 4, rng)):
            tracer.reset()
            [prediction] = system.adapt_batch(target, [(CellAddress(40, 2), 0, 0, 0.1)])
            assert prediction.formula == oracle.adapt(
                reference, CellAddress(40, 2), "=SUM(B25:B30)", target, CellAddress(40, 2)
            )
            spans.append(tracer.recent_traces()[-1]["root"]["attributes"])
        assert spans[0]["n_reranked"] > 2 * spans[0]["n_params"]
        counts = system.counters()
        assert counts["s3.candidates_scored"] == sum(span["n_candidates"] for span in spans)
        assert counts["s3.candidates_reranked"] == sum(span["n_reranked"] for span in spans)

    def test_reference_norms_are_read_at_call_time(self, monkeypatch, trained_encoder, rng):
        """A value edit replaces a reference block under the plans that
        read it: answers must equal a fresh fit's, the new norms must be
        the new rows', and the ``||r||^2`` S3 bounds its tier 1 with must
        be the block's now — not one kept from an earlier call."""
        reference = _table_sheet("reference", 12, 4, rng)
        reference.set((10, 2), formula="=SUM(B2:B6)+C8")
        workbook = Workbook("reference.xlsx")
        workbook.add_sheet(reference)
        system = AutoFormula(trained_encoder, AutoFormulaConfig())
        system.fit([workbook])
        target = _table_sheet("target", 16, 4, rng)
        items = [(CellAddress(row, 2), 0, 0, 0.1) for row in (10, 13, 4)]
        system.adapt_batch(target, items)  # builds the plan
        entry = system._reference_sheets[0]
        plan = entry.plans[0]

        reference.set((3, 1), 987654.0)  # inside B2:B6's windows
        system.reindex_sheet(reference)
        fresh = AutoFormula(trained_encoder, AutoFormulaConfig())
        fresh.fit([workbook])
        assert system._reference_sheets[0].plans[0] is plan
        assert system.adapt_batch(target, items) == fresh.adapt_batch(target, items)
        vectors, norms = entry.regions.rows[plan.slots], entry.regions.norms[plan.slots]
        assert norms.tobytes() == np.einsum("ij,ij->i", vectors, vectors).tobytes()
        fresh_reference = fresh._reference_sheets[0]
        fresh_plan = fresh_reference.plans[0]
        assert norms.tobytes() == fresh_reference.regions.norms[fresh_plan.slots].tobytes()

        # Re-embed at twice the length: every ||r||^2 moves by 4x.
        cells = entry.regions.cells
        vectors = trained_encoder.embed_regions(reference, cells[:, 0], cells[:, 1])
        entry.regions = _Regions.of(cells, 2.0 * vectors)
        seen, closest = [], pipeline.closest_in_blocks

        def spy(sq_norms, cross, references, reference_sq_norms, *rest):
            seen.append(reference_sq_norms.copy())
            return closest(sq_norms, cross, references, reference_sq_norms, *rest)

        monkeypatch.setattr(pipeline, "closest_in_blocks", spy)
        system.adapt_batch(target, items[:1])
        assert seen and seen[0].tobytes() == entry.regions.norms[plan.slots].tobytes()
        assert np.allclose(seen[0], 4.0 * norms)


class TestGroupPass:
    """S3 re-grounds a group of winners in one pass; each answer is the one
    the winner gets on its own."""

    FORMULAS = (
        ((9, 3), "=SUM(B2:B9)"),
        ((9, 4), "=B2+C3*B2"),
        ((10, 2), "=AVERAGE(C2:D8)/B10"),
        ((3, 4), "=1+2"),  # no parameters
        ((0, 5), "=SUM(A1:A40)+G30"),  # parameters past the extent
    )

    @classmethod
    def _system(cls, trained_encoder, rng, granularity):
        references = []
        for index in range(2):
            sheet = _table_sheet(f"reference-{index}", 12 + 3 * index, 5, rng)
            for cell, formula in cls.FORMULAS[index:]:
                sheet.set(cell, formula=formula)
            references.append(sheet)
        system = AutoFormula(trained_encoder, AutoFormulaConfig(granularity=granularity))
        system.fit(references)
        return system

    @pytest.mark.parametrize("granularity", ["both", "fine_only", "coarse_only"])
    @pytest.mark.parametrize("densifiable", [True, False])
    def test_a_winner_in_a_group_answers_as_it_does_alone(
        self, monkeypatch, trained_encoder, rng, granularity, densifiable
    ):
        """Groups mix reference sheets, formulas and repeated cells; the
        answers, byte for byte, and the counts equal one pass per item, in
        any order — also on a target over the densification budget and
        under the coarse-only ablation, where every formula's candidates
        go through a forward of their own."""
        if not densifiable:
            monkeypatch.setattr("repro.features.window._MAX_DENSE_BYTES", 0)
        system = self._system(trained_encoder, rng, granularity)
        target = _table_sheet("target", 20, 6, rng)
        sizes = [len(system.reference_sheet(sheet_id)[2]) for sheet_id in (0, 1)]
        items = [
            (
                CellAddress(int(rng.integers(0, 24)), int(rng.integers(0, 8))),
                sheet_id,
                int(rng.integers(0, sizes[sheet_id])),
                float(rng.random()),
            )
            for sheet_id in rng.integers(0, 2, size=10).tolist()
        ]
        items += items[:3]  # the same winners again
        alone = [system.adapt_batch(target, [item])[0] for item in items]
        scored = system.counters()["s3.candidates_scored"]
        assert scored > 0 and any(prediction is not None for prediction in alone)
        for order in (items, items[::-1]):
            expected = alone if order is items else alone[::-1]
            assert system.adapt_batch(target, order) == expected
        assert system.counters()["s3.candidates_scored"] == 3 * scored


class TestOnePass:
    """A ``serve_batch`` over several target sheets is one pass of S1, S2
    and S3 (``AutoFormula.predict_sheets``); every answer is the one its
    request gets alone."""

    @staticmethod
    def _workspace(trained_encoder, references, granularity):
        """The PGE references, plus a workbook of three copies of a sheet
        with no formula: a fourth copy's S1 hits are those three, so its S2
        pool is empty."""
        blank = Workbook("blank.xlsx")
        for copy in range(3):
            sheet = blank.add_sheet(f"Blank {copy}")
            for row in range(12):
                sheet.set((row, 0), f"qqq{row}zzz")
                sheet.set((row, 1), float(row * row))
        predictor = AutoFormula(trained_encoder, AutoFormulaConfig(granularity=granularity))
        workspace = Workspace("one-pass", predictor)
        workspace.add_workbooks([workbook.copy() for workbook in references] + [blank])
        return workspace, blank.get_sheet("Blank 0").copy("Blank target")

    @staticmethod
    def _requests(cases, empty_pool):
        """Cells of six case sheets dealt round-robin, repeats included, a
        sheet that abstains, a sheet with an empty pool and a copy of a
        case sheet over the densification budget (a cell far below its
        extent)."""
        sheets = {}
        for case in cases:
            sheet = sheets.setdefault(id(case.target_sheet), (case.target_sheet, []))
            sheet[1].append(case.target_cell)
        chosen = list(sheets.values())[:6]
        unrelated = Sheet("unrelated")
        for row in range(15):
            unrelated.set((row, 0), f"zzz{row}qqq")
        sheet, cells = chosen[0]
        huge = sheet.copy("huge")
        huge.set((100_000, 0), 1.0)
        chosen += [
            (unrelated, [CellAddress(20, 5), CellAddress(3, 1)]),
            (empty_pool, [CellAddress(12, 1), CellAddress(5, 1)]),
            (huge, cells[:2] + [CellAddress(sheet.n_rows, 2)]),
        ]
        requests = []
        for deal in itertools.zip_longest(*[cells for __, cells in chosen]):
            for (sheet, __), cell in zip(chosen, deal):
                if cell is not None:
                    requests.append(RecommendationRequest(sheet, cell))
        return requests + requests[:5]

    @staticmethod
    def _answers(responses):
        return [
            (response.formula, repr(response.confidence), response.provenance)
            for response in responses
        ]

    @pytest.mark.parametrize("granularity", ["both", "fine_only", "coarse_only"])
    @pytest.mark.parametrize("gate", [None, 2], ids=["default_gate", "blas_forced"])
    def test_a_batch_answers_as_each_request_alone(
        self, monkeypatch, trained_encoder, pge_workload, granularity, gate
    ):
        """Formula, ``repr(confidence)`` and provenance, byte for byte, on
        the default gate and with the BLAS tier forced."""
        monkeypatch.setattr(VectorIndex, "tier1_min_pairs", gate)
        cases, references = pge_workload
        workspace, empty_pool = self._workspace(trained_encoder, references, granularity)
        requests = self._requests(cases, empty_pool)
        names = [request.sheet.name for request in requests]
        huge = next(request.sheet for request in requests if request.sheet.name == "huge")
        assert not workspace.predictor.encoder.featurizer.densifiable(huge)
        alone = self._answers([workspace.recommend(request) for request in requests])
        assert self._answers(workspace.serve_batch(requests)) == alone
        assert self._answers(workspace.serve_batch(requests[::-1])) == alone[::-1]
        formulas = [formula for formula, __, __ in alone]
        assert sum(formula is not None for formula in formulas) >= 6
        # The empty pool's and the unrelated sheet's cells abstain.
        abstaining = ("unrelated", "Blank target")
        assert {formula for name, formula in zip(names, formulas) if name in abstaining} == {None}

    def test_a_batch_over_several_sheets_searches_and_reranks_once(
        self, monkeypatch, trained_encoder, pge_workload
    ):
        """Accepted cells of four sheets: one sheet-index search, one
        ``closest_in_blocks`` call."""
        cases, references = pge_workload
        workspace, __ = self._workspace(trained_encoder, references, "both")
        predictor = workspace.predictor
        sheets = {}
        for case in cases:
            request = RecommendationRequest(case.target_sheet, case.target_cell)
            if workspace.recommend(request).formula:
                sheets.setdefault(id(case.target_sheet), []).append(request)
        requests = [request for batch in list(sheets.values())[:4] for request in batch]
        assert len({id(request.sheet) for request in requests}) >= 3
        calls = Counter()
        search_batch, closest = predictor.sheet_index.search_batch, pipeline.closest_in_blocks

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return call

        monkeypatch.setattr(predictor.sheet_index, "search_batch", counted("s1", search_batch))
        monkeypatch.setattr(pipeline, "closest_in_blocks", counted("s3", closest))
        responses = workspace.serve_batch(requests)
        assert all(response.formula for response in responses)
        assert calls == {"s1": 1, "s3": 1}
