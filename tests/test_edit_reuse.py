"""An edit re-featurizes and re-embeds only what it changed.

A workspace edit hands :meth:`AutoFormula.reindex_sheet` a
:class:`~repro.sheet.sheet.SheetEdit`: the version and extent the edit
started from and every cell whose content it changed.  Two things are
reused from before the edit, and each must be what recomputing it gives,
byte for byte:

* the padded feature tensor, when it is cached at that version and the
  extent did not move: copied, with only the edit's cells re-featurized;
* the S1 row, when no changed cell lies in the sheet window and the extent
  did not move: kept, and the sheet model does not run.
"""

import tempfile
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import AutoFormula, AutoFormulaConfig, Workspace
from repro.corpus import sample_test_cases, split_corpus
from repro.features import WindowFeaturizer
from repro.models import SheetEncoder
from repro.sheet import CellAddress
from repro.testing import assert_matches_fresh_fit

#: The sheets the edits land on: a window-sized one, two taller than the
#: window (formulas below it and in it) and one whose formulas read ranges.
SHEETS = (
    ("budget_002_003.xlsx", "Budget"),
    ("sales_003_003.xlsx", "Sales Log"),
    ("sales_003_003.xlsx", "Regional Summary"),
    ("survey_001_005.xlsx", "Responses"),
)
KINDS = ("feeder", "window_edge", "outside", "grow", "formula")


@pytest.fixture(scope="module")
def corpus(pge_corpus):
    test_workbooks, reference_workbooks = split_corpus(pge_corpus, 0.15, "timestamp")
    names = {workbook for workbook, __ in SHEETS}
    workbooks = [workbook for workbook in reference_workbooks if workbook.name in names]
    assert len(workbooks) == len(names)
    cases = sample_test_cases("PGE", test_workbooks, max_per_sheet=1, seed=0)
    return workbooks, cases[:4]


def _workspace(encoder, workbooks) -> Workspace:
    workspace = Workspace("t", AutoFormula(encoder, AutoFormulaConfig()))
    workspace.add_workbooks([workbook.copy() for workbook in workbooks])
    return workspace


def _sheet(workspace, workbook_name, sheet_name):
    workbook = next(wb for wb in workspace.workbooks() if wb.name == workbook_name)
    return workbook.get_sheet(sheet_name)


def _numeric_cells(sheet):
    return [
        address
        for address, cell in sheet.cells()
        if not cell.has_formula
        and isinstance(cell.value, (int, float))
        and not isinstance(cell.value, bool)
    ]


def _s1_row(predictor, sheet):
    reference = predictor._reference_sheets[predictor._sheet_ids[id(sheet)]]
    return predictor.sheet_index.vectors[reference.sheet_row]


def _target(sheet, kind: str, pick: int, config):
    """The address an edit of ``kind`` writes on ``sheet`` (``pick``
    chooses among the candidates)."""
    rows, cols = config.window_rows, config.window_cols
    n_rows, n_cols = sheet.n_rows, sheet.n_cols
    if kind == "window_edge":
        # Either side of the window's last row and last column.
        candidates = [
            (row, col) for row in (rows - 1, rows) for col in range(min(n_cols, cols + 1))
        ] + [(row, col) for row in range(min(n_rows, rows + 1)) for col in (cols - 1, cols)]
        candidates = [(r, c) for r, c in candidates if r < n_rows and c < n_cols]
    elif kind == "outside":
        candidates = [
            (row, col)
            for row in range(n_rows)
            for col in range(n_cols)
            if row >= rows or col >= cols
        ]
    elif kind == "grow":
        candidates = [(n_rows, pick % n_cols), (pick % n_rows, n_cols), (rows, cols)]
        candidates = [(r, c) for r, c in candidates if r >= n_rows or c >= n_cols]
    else:  # a value a formula may read
        candidates = [(address.row, address.col) for address in _numeric_cells(sheet)]
    if not candidates:
        candidates = [(0, 0)]
    return CellAddress(*candidates[pick % len(candidates)])


def _formula(sheet, pick: int) -> str:
    feeders = _numeric_cells(sheet) or [CellAddress(0, 0)]
    first = feeders[pick % len(feeders)].to_a1()
    second = feeders[(pick // 7) % len(feeders)].to_a1()
    return (
        f"={first}*2",
        f"=SUM({first}:{second})",
        f"=IF({first}>100,{second},0)",
        f"=ROUND({first}/3,1)+1",
    )[pick % 4]


_edits = st.lists(
    st.tuples(
        st.integers(0, len(SHEETS) - 1),
        st.sampled_from(KINDS),
        st.integers(0, 10_000),
        st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.integers(-1000, 1000),
            st.sampled_from(["", "North", True]),
        ),
    ),
    min_size=1,
    max_size=6,
)


class TestEditReuse:
    def test_an_edit_reuses_only_what_recomputing_gives_byte_for_byte(
        self, trained_encoder, corpus
    ):
        workbooks, cases = corpus
        config = trained_encoder.featurizer.config
        outcomes = Counter()

        def fresh():
            # Its own featurizer, so that the fresh fit's clearing of the
            # tensor cache leaves the workspace's cached tensors in place.
            encoder = SheetEncoder(
                trained_encoder.config, trained_encoder.coarse_model, trained_encoder.fine_model
            )
            return AutoFormula(encoder, AutoFormulaConfig())

        @settings(max_examples=25, deadline=None)
        @given(edits=_edits, restored=st.booleans())
        # Repeats on one restored sheet: outside the window before its
        # tensor is cached and after, inside it, either side of the
        # window's last row, then growth — every combination of the reuses.
        @example(
            edits=[
                (1, "outside", 11, 2.0),
                (1, "feeder", 3, 7.5),
                (1, "outside", 30, 4.0),
                (1, "window_edge", 2, 1.0),
                (1, "window_edge", 0, "North"),
                (1, "grow", 0, 3),
            ],
            restored=True,
        )
        @example(
            edits=[
                (2, "formula", 5, ""),
                (2, "feeder", 40, 12.25),
                (3, "outside", 3, 5),
                (3, "feeder", 9, -1.5),
            ],
            restored=False,
        )
        # The sheet grows past the window's last column, then either side
        # of that column is written.
        @example(
            edits=[(0, "grow", 2, 5.0), (0, "window_edge", 18, 2.5), (0, "window_edge", 19, 3.5)],
            restored=False,
        )
        def run(edits, restored):
            workspace = _workspace(trained_encoder, workbooks)
            if restored:  # sheets not decoded yet, no tensor cached for them
                with tempfile.TemporaryDirectory() as directory:
                    workspace.save(directory)
                    workspace = Workspace.load(
                        directory, AutoFormula(trained_encoder, AutoFormulaConfig())
                    )
            predictor = workspace.predictor
            reindex_sheet = predictor.reindex_sheet

            def counted(*args, **kwargs):
                outcome = reindex_sheet(*args, **kwargs)
                outcomes[outcome["tensor_patched"], outcome["s1_skipped"]] += 1
                return outcome

            predictor.reindex_sheet = counted
            featurizer = predictor.encoder.featurizer
            for position, kind, pick, value in edits:
                workbook_name, sheet_name = SHEETS[position]
                sheet = _sheet(workspace, workbook_name, sheet_name)
                address = _target(sheet, kind, pick, config).to_a1()
                edit = {"formula": _formula(sheet, pick)} if kind == "formula" else {"value": value}
                workspace.edit_cell(workbook_name, sheet_name, address, **edit)
                context = f"{kind} {address} on {sheet_name}"
                cached = featurizer._tensor_cache.get(sheet)
                built = WindowFeaturizer(config)._build_tensor(sheet)
                assert cached is not None, context
                assert cached.shape == built.shape and cached.tobytes() == built.tobytes(), context
                assert (
                    _s1_row(predictor, sheet).tobytes()
                    == predictor.encoder.embed_sheet(sheet).tobytes()
                ), context
                assert_matches_fresh_fit(workspace, fresh, cases, context)

        run()
        # Every combination of the two reuses was met.
        assert set(outcomes) == {(True, True), (True, False), (False, True), (False, False)}


class TestWhatAnEditRecomputes:
    #: Rows 30 and 40-41 of "Sales Log" lie below the 20-row sheet window:
    #: E30 feeds E40 = SUM(E4:E38) and E41 = ROUND(AVERAGE(E4:E38),2).
    WORKBOOK, SHEET = SHEETS[1]

    @staticmethod
    def _count_calls(monkeypatch, owner, name):
        calls = []
        method = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return method(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_an_edit_outside_the_window_runs_no_sheet_model_forward(
        self, trained_encoder, corpus, monkeypatch
    ):
        workbooks, __ = corpus
        workspace = _workspace(trained_encoder, workbooks)
        sheet = _sheet(workspace, self.WORKBOOK, self.SHEET)
        rows = trained_encoder.featurizer.config.window_rows
        forwards = self._count_calls(monkeypatch, trained_encoder.coarse_model, "forward")
        # The first row below the window, and a cell the SUM reads.
        workspace.edit_cell(self.WORKBOOK, self.SHEET, CellAddress(rows, 4).to_a1(), value=4.25)
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "E30", value=123.5)
        assert forwards == []
        # Inside the window (its last row) it runs, once.
        workspace.edit_cell(self.WORKBOOK, self.SHEET, CellAddress(rows - 1, 4).to_a1(), value=8.0)
        assert len(forwards) == 1
        assert (
            _s1_row(workspace.predictor, sheet).tobytes()
            == trained_encoder.embed_sheet(sheet).tobytes()
        )

    def test_an_edit_of_a_cached_sheet_featurizes_only_the_changed_cells(
        self, trained_encoder, corpus, monkeypatch
    ):
        workbooks, __ = corpus
        workspace = _workspace(trained_encoder, workbooks)
        sheet = _sheet(workspace, self.WORKBOOK, self.SHEET)
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "E30", value=123.5)
        before = dict(sheet.items())
        featurized = self._count_calls(
            monkeypatch, trained_encoder.featurizer.cell_featurizer, "featurize_many"
        )
        workspace.edit_cell(self.WORKBOOK, self.SHEET, "E30", value=456.75)
        changed = {
            address for address, cell in sheet.items() if before.get(address) is not cell
        }
        # The written cell and the two formulas that read it.
        assert {address.to_a1() for address in changed} == {"E30", "E40", "E41"}
        assert [len(cells) for cells, *__ in featurized] == [len(changed)]
        featurizer = trained_encoder.featurizer
        built = WindowFeaturizer(featurizer.config)._build_tensor(sheet)
        assert featurizer.padded_sheet_tensor(sheet).tobytes() == built.tobytes()
