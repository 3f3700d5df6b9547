"""A predictor stub for tests of the layers above the pipeline.

A workspace calls its predictor's corpus-mutation API (``add_workbooks``,
``remove_workbook``, ``reindex_sheet``) on every add, remove and edit, and
reads its ``counters`` and ``memory_stats``; :class:`StubPredictor` does
nothing there and counts nothing, so a test's subclass only says how it
answers (``predict_batch``).
"""

from repro.core.interface import FormulaPredictor


class StubPredictor(FormulaPredictor):
    """Indexes nothing; subclasses answer through ``predict_batch``."""

    name = "stub"

    def fit(self, reference_workbooks):
        pass

    def add_workbooks(self, workbooks):
        return 0

    def remove_workbook(self, workbook_name):
        return 0

    def reindex_sheet(self, sheet, trees=None, edit=None):
        return {"formulas_changed": False}

    def counters(self):
        return {}

    def memory_stats(self):
        return {"total_bytes": 0}

    def predict(self, target_sheet, target_cell):
        return self.predict_batch(target_sheet, [target_cell])[0]
