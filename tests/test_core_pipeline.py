"""Tests for the end-to-end Auto-Formula pipeline (S1/S2/S3)."""

import numpy as np
import pytest

from repro.core import AutoFormula, AutoFormulaConfig
from repro.corpus import sample_test_cases, split_corpus
from repro.evaluation import run_method_on_cases
from repro.formula.template import extract_template
from repro.sheet import CellAddress, Sheet, Workbook


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

    @pytest.mark.parametrize("field", ["sheet_index_kind", "formula_index_kind"])
    def test_unknown_index_kind_rejected_at_construction(self, field):
        with pytest.raises(ValueError, match="index_kind"):
            AutoFormulaConfig(**{field: "lshh"})

    def test_index_kind_spellings_normalized(self):
        # create_index is case-insensitive and whitespace-tolerant, so the
        # config validation must accept the same spellings.
        AutoFormulaConfig(sheet_index_kind=" LSH ", formula_index_kind="Flat")

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

    def test_supports_incremental_corpus_flag(self, trained_encoder):
        assert AutoFormula(trained_encoder).supports_incremental_corpus


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
    def test_predict_batch_matches_sequential_predict(self, fitted_system, pge_workload):
        """The vectorized batch path must return exactly the predictions the
        sequential path does, abstentions included."""
        cases, __ = pge_workload
        by_sheet = {}
        for case in cases:
            by_sheet.setdefault(id(case.target_sheet), (case.target_sheet, []))[1].append(
                case.target_cell
            )
        for sheet, cells in by_sheet.values():
            sequential = [fitted_system.predict(sheet, cell) for cell in cells]
            batched = fitted_system.predict_batch(sheet, cells)
            assert len(batched) == len(sequential)
            for one, many in zip(sequential, batched):
                if one is None:
                    assert many is None
                    continue
                assert many is not None
                assert many.formula == one.formula
                assert many.confidence == pytest.approx(one.confidence, abs=1e-6)
                assert many.details["reference_cell"] == one.details["reference_cell"]

    @pytest.mark.parametrize("kind", ["exact", "ivf", "lsh"])
    def test_staged_api_composes_to_predict_batch(self, trained_encoder, pge_workload, kind):
        """The public stages, driven from outside — embed once, S1, S2 with
        S3 deferred, threshold, S3 on the winners — must reproduce
        ``predict_batch`` exactly (formula, confidence, provenance), and S2
        bests scored over disjoint sheet subsets must merge back into the
        full-list result by ``(distance, sheet_rank, formula_index)``."""
        cases, reference = pge_workload
        system = AutoFormula(
            trained_encoder,
            AutoFormulaConfig(sheet_index_kind=kind, formula_index_kind=kind),
        )
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

    def test_target_cache_is_bounded_lru(self, trained_encoder, pge_workload):
        """Predicting across many target sheets must not grow memory without
        bound: the per-sheet embedding cache evicts least-recently-used."""
        __, reference = pge_workload
        config = AutoFormulaConfig(max_cached_target_sheets=2)
        system = AutoFormula(trained_encoder, config)
        system.fit(reference)
        sheets = []
        for index in range(5):
            sheet = Sheet(f"target-{index}")
            for row in range(12):
                sheet.set((row, 0), f"label {row}")
                sheet.set((row, 1), float(row * index))
            sheets.append(sheet)
            system._target_region_vectors(sheet, [CellAddress(6, 1)])
            assert len(system._target_cache) <= 2
        # deterministic LRU order: the two most recent sheets survive
        assert system._target_cache.sheets() == sheets[-2:]
        # cached vectors are reused and eviction does not change values
        vector = system._target_region_vectors(sheets[-1], [CellAddress(6, 1)])
        fresh = system._region_vectors(sheets[-1], [CellAddress(6, 1)])
        assert np.allclose(vector, fresh)

    def test_invalid_cache_bound_rejected(self):
        with pytest.raises(ValueError):
            AutoFormulaConfig(max_cached_target_sheets=0)


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

    def test_full_model_not_worse_than_coarse_only(self, trained_encoder, pge_workload):
        cases, reference = pge_workload
        full = AutoFormula(trained_encoder, AutoFormulaConfig())
        coarse = AutoFormula(trained_encoder, AutoFormulaConfig(granularity="coarse_only"))
        full_run = run_method_on_cases(full, reference, cases, "PGE")
        coarse_run = run_method_on_cases(coarse, reference, cases, "PGE")
        assert full_run.metrics.f1 >= coarse_run.metrics.f1


class TestIndexChoices:
    @pytest.mark.parametrize("kind", ["exact", "lsh", "ivf"])
    def test_sheet_index_kinds(self, trained_encoder, pge_workload, kind):
        cases, reference = pge_workload
        system = AutoFormula(trained_encoder, AutoFormulaConfig(sheet_index_kind=kind))
        run = run_method_on_cases(system, reference, cases[:15], "PGE")
        assert run.metrics.recall > 0.4
