"""Tests for the synthetic corpus generator, corpora presets and test cases."""

import numpy as np
import pytest

from repro.corpus import (
    ALL_TEMPLATE_CLASSES,
    CorpusGenerator,
    CorpusSpec,
    ENTERPRISE_SPECS,
    SingletonTemplate,
    SurveyTemplate,
    build_enterprise_corpus,
    build_training_universe,
    corpus_statistics,
    sample_test_cases,
    split_corpus,
)
from repro.formula import FormulaEngine, parse_formula
from repro.formula.template import extract_template
from repro.weaksup import HypothesisTest, SheetNameStatistics


class TestTemplates:
    @pytest.mark.parametrize("template_cls", ALL_TEMPLATE_CLASSES)
    def test_each_template_produces_valid_workbook(self, template_cls, rng):
        template = template_cls(0, rng)
        workbook = template.instantiate(rng, 0, last_modified=1.0)
        assert len(workbook) == len(template.sheet_names())
        assert workbook.n_formulas() > 0
        for sheet in workbook:
            for __, cell in sheet.formula_cells():
                parse_formula(cell.formula or "")  # must not raise

    @pytest.mark.parametrize("template_cls", ALL_TEMPLATE_CLASSES)
    def test_formula_values_are_cached(self, template_cls, rng):
        template = template_cls(1, rng)
        workbook = template.instantiate(rng, 0)
        cached = sum(
            1
            for sheet in workbook
            for __, cell in sheet.formula_cells()
            if cell.value is not None
        )
        assert cached > 0

    def test_family_members_share_sheet_names(self, rng):
        template = SurveyTemplate(2, rng)
        first = template.instantiate(rng, 0)
        second = template.instantiate(rng, 1)
        assert first.sheet_names == second.sheet_names

    def test_family_members_share_formula_templates(self, rng):
        template = SurveyTemplate(3, rng)
        first = template.instantiate(rng, 0)
        second = template.instantiate(rng, 1)
        first_templates = {
            extract_template(cell.formula).signature
            for sheet in first
            for __, cell in sheet.formula_cells()
        }
        second_templates = {
            extract_template(cell.formula).signature
            for sheet in second
            for __, cell in sheet.formula_cells()
        }
        assert first_templates == second_templates

    def test_family_members_differ_in_data(self, rng):
        template = SurveyTemplate(4, rng)
        first = template.instantiate(rng, 0)
        second = template.instantiate(rng, 1)
        first_values = [cell.value for __, cell in first.sheets[1].cells()]
        second_values = [cell.value for __, cell in second.sheets[1].cells()]
        assert first_values != second_values

    def test_singleton_not_a_family(self, rng):
        assert SingletonTemplate(0, rng).is_family is False

    def test_survey_countif_is_consistent(self, rng):
        """The COUNTIF summary on a generated survey actually counts the data."""
        template = SurveyTemplate(5, rng)
        workbook = template.instantiate(rng, 0)
        responses = workbook.sheets[1]
        evaluator = FormulaEngine(responses)
        for address, cell in responses.formula_cells():
            if "COUNTIF" not in (cell.formula or ""):
                continue
            assert evaluator.evaluate_formula(cell.formula) == cell.value


class TestCorpusGeneration:
    def test_spec_sizes(self):
        spec = CorpusSpec(name="tiny", n_families=2, min_copies=2, max_copies=3, n_singletons=3, seed=1)
        corpus = CorpusGenerator(seed=0).generate(spec)
        assert spec.n_families * spec.min_copies + spec.n_singletons <= len(corpus)
        assert len(corpus) <= spec.n_families * spec.max_copies + spec.n_singletons

    def test_generation_deterministic(self):
        spec = CorpusSpec(name="det", n_families=2, min_copies=2, max_copies=2, n_singletons=1, seed=5)
        first = CorpusGenerator(seed=1).generate(spec)
        second = CorpusGenerator(seed=1).generate(spec)
        assert [workbook.name for workbook in first.workbooks] == [
            workbook.name for workbook in second.workbooks
        ]
        assert first.n_formulas() == second.n_formulas()

    def test_timestamps_assigned(self):
        corpus = build_enterprise_corpus("PGE")
        timestamps = [workbook.last_modified for workbook in corpus.workbooks]
        assert len(set(timestamps)) > 1

    def test_enterprise_presets_exist(self):
        assert set(ENTERPRISE_SPECS) == {"PGE", "Cisco", "TI", "Enron"}

    def test_unknown_corpus_rejected(self):
        with pytest.raises(KeyError):
            build_enterprise_corpus("Contoso")

    def test_enron_largest_corpus(self):
        sizes = {name: len(build_enterprise_corpus(name)) for name in ENTERPRISE_SPECS}
        assert sizes["Enron"] == max(sizes.values())

    def test_cisco_has_highest_singleton_share(self):
        specs = ENTERPRISE_SPECS
        shares = {
            name: spec.n_singletons / spec.expected_workbooks() for name, spec in specs.items()
        }
        assert shares["Cisco"] == max(shares.values())
        assert shares["PGE"] == min(shares.values())

    def test_training_universe_supports_weak_supervision(self, training_universe):
        stats = SheetNameStatistics.from_workbooks(training_universe)
        test = HypothesisTest(stats)
        similar_pairs = 0
        for i in range(len(training_universe)):
            for j in range(i + 1, len(training_universe)):
                if test.test(training_universe[i], training_universe[j]).similar:
                    similar_pairs += 1
        assert similar_pairs > 3

    def test_scale_factor(self):
        small = build_enterprise_corpus("TI", scale=0.5)
        default = build_enterprise_corpus("TI", scale=1.0)
        assert len(small) < len(default)


class TestSplitsAndTestCases:
    def test_timestamp_split_holds_out_newest(self, pge_corpus):
        test, reference = split_corpus(pge_corpus, test_fraction=0.2, method="timestamp")
        newest_reference = max(workbook.last_modified for workbook in reference)
        oldest_test = min(workbook.last_modified for workbook in test)
        assert oldest_test >= newest_reference
        assert len(test) + len(reference) == len(pge_corpus)

    def test_random_split_deterministic_by_seed(self, pge_corpus):
        first = split_corpus(pge_corpus, 0.2, "random", seed=3)
        second = split_corpus(pge_corpus, 0.2, "random", seed=3)
        assert [w.name for w in first[0]] == [w.name for w in second[0]]

    def test_invalid_split_arguments(self, pge_corpus):
        with pytest.raises(ValueError):
            split_corpus(pge_corpus, 0.0)
        with pytest.raises(ValueError):
            split_corpus(pge_corpus, 0.2, method="by-color")

    def test_sample_test_cases_blanks_target(self, pge_corpus):
        test, __ = split_corpus(pge_corpus, 0.2, "timestamp")
        cases = sample_test_cases("PGE", test, max_per_sheet=5)
        assert cases
        for case in cases:
            blanked = case.target_sheet.get(case.target_cell)
            assert not blanked.has_formula
            assert blanked.value is None
            assert case.ground_truth.startswith("=")

    def test_sample_respects_per_sheet_cap(self, pge_corpus):
        test, __ = split_corpus(pge_corpus, 0.2, "timestamp")
        cases = sample_test_cases("PGE", test, max_per_sheet=3)
        per_sheet = {}
        for case in cases:
            key = (case.workbook_name, case.sheet_name)
            per_sheet[key] = per_sheet.get(key, 0) + 1
        assert max(per_sheet.values()) <= 3

    def test_test_case_keeps_other_formulas(self, pge_corpus):
        test, __ = split_corpus(pge_corpus, 0.2, "timestamp")
        cases = sample_test_cases("PGE", test, max_per_sheet=10)
        multi_formula_cases = [case for case in cases if case.target_sheet.n_formulas() > 0]
        assert multi_formula_cases  # the rest of the sheet is left intact

    def test_corpus_statistics_row(self, pge_corpus):
        test, __ = split_corpus(pge_corpus, 0.2, "timestamp")
        cases = sample_test_cases("PGE", test)
        stats = corpus_statistics(pge_corpus, test_cases_timestamp=cases)
        assert stats["workbooks"] == len(pge_corpus)
        assert stats["sheets"] == pge_corpus.n_sheets()
        assert stats["formulas"] == pge_corpus.n_formulas()
        assert stats["test_formulas_timestamp"] == len(cases)

    def test_training_universe_size(self):
        universe = build_training_universe(n_families=3, copies_per_family=2, n_singletons=2, seed=1)
        assert len(universe) >= 3 * 2 + 2
