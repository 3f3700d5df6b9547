"""Workbook templates: parametric families of similar spreadsheets.

A template instance represents one *family* of workbooks inside an
organization (e.g. "the monthly sales report", "the quarterly budget").
Family-level choices (column layout, label sets, styling, base size) are
drawn once when the template is constructed; every call to
:meth:`WorkbookTemplate.instantiate` then produces a new workbook of that
family with fresh data values and a perturbed number of rows — exactly the
"similar sheets" phenomenon of Section 3.1: same structure and formula
logic, different content and size.

Each template writes real formulas (evaluated so cells also carry cached
values), providing the ground truth for formula-recommendation test cases.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.corpus import value_pools as pools
from repro.formula.engine import FormulaEngine
from repro.sheet.addressing import cell_a1
from repro.sheet.cell import Cell
from repro.sheet.sheet import Sheet
from repro.sheet.style import CellStyle
from repro.sheet.workbook import Workbook

#: Header fill colors available to families (one is chosen per family).
_HEADER_PALETTE = (
    "#4472C4", "#ED7D31", "#70AD47", "#FFC000", "#5B9BD5", "#A5A5A5",
    "#264478", "#9E480E", "#636363", "#997300",
)

_TITLE_SIZES = (14.0, 16.0, 18.0)


class WorkbookTemplate:
    """Base class for workbook families."""

    #: Short name used to build workbook file names.
    family_prefix = "workbook"
    #: Whether workbooks of this template form a similar-sheet family.
    is_family = True

    def __init__(self, family_id: int, rng: np.random.Generator) -> None:
        self.family_id = family_id
        style_rng = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
        header_color = pools.pick(style_rng, _HEADER_PALETTE)
        title_size = float(style_rng.choice(_TITLE_SIZES))
        #: The family's four styles, one object each for all of its cells.
        self.header_style = CellStyle(
            background_color=header_color,
            font_color="#FFFFFF",
            bold=True,
            font_size=12.0,
            border_bottom=True,
        )
        self.title_style = CellStyle(bold=True, font_size=title_size)
        self.total_style = CellStyle(bold=True, border_top=True)
        self.label_style = CellStyle(italic=True)
        #: Base number of data rows for the family; instances perturb this.
        self.base_rows = int(rng.integers(*self.row_range()))

    # ------------------------------------------------------------- overrides

    def row_range(self) -> Sequence[int]:
        """(low, high) bounds of the family's base data-row count."""
        return (12, 40)

    def sheet_names(self) -> List[str]:
        """Sheet-name sequence shared by all workbooks of the family."""
        raise NotImplementedError

    def fill_workbook(self, workbook: Workbook, rng: np.random.Generator, n_rows: int) -> None:
        """Populate the workbook's sheets (already created, in order)."""
        raise NotImplementedError

    # ------------------------------------------------------------ public API

    def instantiate(
        self, rng: np.random.Generator, workbook_index: int, last_modified: float = 0.0
    ) -> Workbook:
        """Create one workbook of this family."""
        jitter = int(rng.integers(-self.row_jitter(), self.row_jitter() + 1))
        n_rows = max(4, self.base_rows + jitter)
        name = f"{self.family_prefix}_{self.family_id:03d}_{workbook_index:03d}.xlsx"
        workbook = Workbook(name=name, last_modified=last_modified)
        for sheet_name in self.sheet_names():
            workbook.add_sheet(Sheet(sheet_name))
        self.fill_workbook(workbook, rng, n_rows)
        for sheet in workbook:
            # Engine-backed recalculation: every formula commits a value
            # (error values included), so generated corpora never carry
            # silently-stale formula cells.
            FormulaEngine(sheet).recalculate()
        return workbook

    def row_jitter(self) -> int:
        """Maximum +/- perturbation of the data-row count between instances."""
        return 5

    # --------------------------------------------------------------- helpers

    def _write_title(self, sheet: Sheet, row: int, text: str) -> None:
        sheet.set((row, 0), text, style=self.title_style)

    def _write_headers(self, sheet: Sheet, row: int, headers: Sequence[str]) -> None:
        for col, header in enumerate(headers):
            sheet.set((row, col), header, style=self.header_style)


class SurveyTemplate(WorkbookTemplate):
    """Survey responses with a COUNTIF summary block (the Figure 1 scenario)."""

    family_prefix = "survey"

    def __init__(self, family_id: int, rng: np.random.Generator) -> None:
        super().__init__(family_id, rng)
        self.question = pools.pick(rng, pools.SURVEY_QUESTIONS)
        self.choices = pools.pick_many(rng, pools.COLORS, 4)

    def row_range(self) -> Sequence[int]:
        return (15, 45)

    def sheet_names(self) -> List[str]:
        return ["Instructions", "Responses"]

    def fill_workbook(self, workbook: Workbook, rng: np.random.Generator, n_rows: int) -> None:
        instructions = workbook.sheets[0]
        self._write_title(instructions, 0, f"Survey: {self.question}")
        instructions.set((2, 0), "Please record one response per row on the Responses sheet.")
        instructions.set((3, 0), "Summary counts are computed below the response table.")
        instructions.set((5, 0), "Owner", style=self.label_style)
        instructions.set((5, 1), pools.full_name(rng))

        sheet = workbook.sheets[1]
        self._write_title(sheet, 0, f"{self.question} survey")
        header_row = 5
        self._write_headers(sheet, header_row, ["ID", "Respondent", "Answer", "Count"])
        first_data = header_row + 1
        last_data = first_data + n_rows - 1
        for offset in range(n_rows):
            row = first_data + offset
            sheet.set((row, 0), offset + 1)
            sheet.set((row, 1), pools.full_name(rng))
            sheet.set((row, 2), pools.pick(rng, self.choices))
        summary_start = last_data + 3
        sheet.set((summary_start - 1, 2), "Answer", style=self.header_style)
        sheet.set((summary_start - 1, 3), "Count", style=self.header_style)
        answer_range = f"C{first_data + 1}:C{last_data + 1}"
        for index, choice in enumerate(self.choices):
            row = summary_start + index
            sheet.set((row, 2), choice, style=self.label_style)
            sheet.set(
                (row, 3),
                formula=f"=COUNTIF({answer_range},{cell_a1(row, 2)})",
                style=self.total_style,
            )
        total_row = summary_start + len(self.choices)
        sheet.set((total_row, 2), "Total responses", style=self.label_style)
        sheet.set((total_row, 3), formula=f"=COUNTA({answer_range})", style=self.total_style)


class FinancialStatementTemplate(WorkbookTemplate):
    """Quarterly income statement: per-column SUM totals and a margin ratio."""

    family_prefix = "financial"

    def __init__(self, family_id: int, rng: np.random.Generator) -> None:
        super().__init__(family_id, rng)
        self.n_periods = int(rng.integers(3, 5))
        self.periods = list(pools.QUARTERS[: self.n_periods])
        self.line_items = pools.pick_many(rng, pools.LINE_ITEMS, int(rng.integers(6, 10)))

    def row_range(self) -> Sequence[int]:
        return (6, 11)

    def row_jitter(self) -> int:
        return 2

    def sheet_names(self) -> List[str]:
        return ["Summary", "Income Statement"]

    def fill_workbook(self, workbook: Workbook, rng: np.random.Generator, n_rows: int) -> None:
        items = self.line_items[: max(4, min(n_rows, len(self.line_items)))]
        statement = workbook.sheets[1]
        self._write_title(statement, 0, "Income Statement")
        statement.set((1, 0), f"Fiscal year {int(rng.integers(2018, 2025))}")
        header_row = 3
        self._write_headers(statement, header_row, ["Line Item"] + self.periods + ["FY Total"])
        first_data = header_row + 1
        for offset, item in enumerate(items):
            row = first_data + offset
            statement.set((row, 0), item, style=self.label_style)
            for period_index in range(self.n_periods):
                statement.set((row, 1 + period_index), pools.money(rng, 1_000, 500_000))
            row_range = f"{cell_a1(row, 1)}:{cell_a1(row, self.n_periods)}"
            statement.set((row, 1 + self.n_periods), formula=f"=SUM({row_range})")
        total_row = first_data + len(items)
        statement.set((total_row, 0), "Total", style=self.total_style)
        for period_index in range(self.n_periods + 1):
            col = 1 + period_index
            col_range = f"{cell_a1(first_data, col)}:{cell_a1(total_row - 1, col)}"
            statement.set((total_row, col), formula=f"=SUM({col_range})", style=self.total_style)

        summary = workbook.sheets[0]
        self._write_title(summary, 0, "Financial Summary")
        self._write_headers(summary, 2, ["Metric", "Value"])
        summary.set((3, 0), "Revenue (first line)", style=self.label_style)
        summary.set((3, 1), pools.money(rng, 100_000, 2_000_000))
        summary.set((4, 0), "Total expense", style=self.label_style)
        summary.set((4, 1), pools.money(rng, 50_000, 1_500_000))
        summary.set((5, 0), "Net", style=self.label_style)
        summary.set((5, 1), formula="=B4-B5")
        summary.set((6, 0), "Margin", style=self.label_style)
        summary.set((6, 1), formula="=ROUND(B6/B4,2)")


class SalesReportTemplate(WorkbookTemplate):
    """Regional sales log with SUMIF / COUNTIF / AVERAGE roll-ups."""

    family_prefix = "sales"

    def __init__(self, family_id: int, rng: np.random.Generator) -> None:
        super().__init__(family_id, rng)
        self.regions = pools.pick_many(rng, pools.REGIONS, 4)
        self.products = pools.pick_many(rng, pools.PRODUCTS, 5)

    def row_range(self) -> Sequence[int]:
        return (20, 70)

    def row_jitter(self) -> int:
        return 6

    def sheet_names(self) -> List[str]:
        return ["Sales Log", "Regional Summary"]

    def fill_workbook(self, workbook: Workbook, rng: np.random.Generator, n_rows: int) -> None:
        log = workbook.sheets[0]
        self._write_title(log, 0, "Sales Log")
        header_row = 2
        self._write_headers(log, header_row, ["Date", "Region", "Product", "Units", "Amount"])
        first_data = header_row + 1
        last_data = first_data + n_rows - 1
        for offset in range(n_rows):
            row = first_data + offset
            log.set((row, 0), pools.iso_date(rng))
            log.set((row, 1), pools.pick(rng, self.regions))
            log.set((row, 2), pools.pick(rng, self.products))
            log.set((row, 3), int(rng.integers(1, 50)))
            log.set((row, 4), pools.money(rng, 50, 20_000))
        totals_row = last_data + 2
        log.set((totals_row, 3), "Grand total", style=self.label_style)
        amount_range = f"E{first_data + 1}:E{last_data + 1}"
        log.set((totals_row, 4), formula=f"=SUM({amount_range})", style=self.total_style)
        log.set((totals_row + 1, 3), "Average sale", style=self.label_style)
        log.set((totals_row + 1, 4), formula=f"=ROUND(AVERAGE({amount_range}),2)")

        # The roll-up sheet works over a mirrored copy of the (region, amount)
        # columns: the formula language in this reproduction is single-sheet
        # (no cross-sheet references), so the data the SUMIF/COUNTIF formulas
        # consume lives on the same sheet, below the roll-up block.
        summary = workbook.sheets[1]
        self._write_title(summary, 0, "Regional Summary")
        self._write_headers(summary, 2, ["Region", "Orders", "Revenue"])
        mirror_start = 3 + len(self.regions) + 2
        summary.set((mirror_start - 1, 0), "Region data", style=self.header_style)
        summary.set((mirror_start - 1, 1), "Amount", style=self.header_style)
        for offset in range(n_rows):
            source_row = first_data + offset
            summary.set((mirror_start + offset, 0), log.get((source_row, 1)).value)
            summary.set((mirror_start + offset, 1), log.get((source_row, 4)).value)
        mirror_region_range = f"A{mirror_start + 1}:A{mirror_start + n_rows}"
        mirror_amount_range = f"B{mirror_start + 1}:B{mirror_start + n_rows}"
        for index, region in enumerate(self.regions):
            row = 3 + index
            summary.set((row, 0), region, style=self.label_style)
            summary.set(
                (row, 1),
                formula=f"=COUNTIF({mirror_region_range},{cell_a1(row, 0)})",
            )
            summary.set(
                (row, 2),
                formula=f"=SUMIF({mirror_region_range},{cell_a1(row, 0)},{mirror_amount_range})",
            )


class InventoryTemplate(WorkbookTemplate):
    """Inventory list with per-row extended value and aggregate statistics."""

    family_prefix = "inventory"

    def __init__(self, family_id: int, rng: np.random.Generator) -> None:
        super().__init__(family_id, rng)
        self.products = pools.pick_many(rng, pools.PRODUCTS, int(rng.integers(6, 12)))
        self.reorder_level = int(rng.integers(5, 25))

    def row_range(self) -> Sequence[int]:
        return (8, 14)

    def row_jitter(self) -> int:
        return 3

    def sheet_names(self) -> List[str]:
        return ["Inventory"]

    def fill_workbook(self, workbook: Workbook, rng: np.random.Generator, n_rows: int) -> None:
        sheet = workbook.sheets[0]
        self._write_title(sheet, 0, "Inventory Valuation")
        header_row = 2
        self._write_headers(sheet, header_row, ["SKU", "Product", "Qty", "Unit Price", "Value", "Reorder?"])
        items = self.products[: max(4, min(n_rows, len(self.products)))]
        first_data = header_row + 1
        for offset, product in enumerate(items):
            row = first_data + offset
            sheet.set((row, 0), f"SKU-{self.family_id:02d}{offset:03d}")
            sheet.set((row, 1), product)
            sheet.set((row, 2), int(rng.integers(0, 200)))
            sheet.set((row, 3), pools.money(rng, 5, 2_500))
            sheet.set((row, 4), formula=f"={cell_a1(row, 2)}*{cell_a1(row, 3)}")
            sheet.set(
                (row, 5),
                formula=f'=IF({cell_a1(row, 2)}<{self.reorder_level},"REORDER","OK")',
            )
        total_row = first_data + len(items)
        value_range = f"{cell_a1(first_data, 4)}:{cell_a1(total_row - 1, 4)}"
        qty_range = f"{cell_a1(first_data, 2)}:{cell_a1(total_row - 1, 2)}"
        sheet.set((total_row, 1), "Totals", style=self.total_style)
        sheet.set((total_row, 2), formula=f"=SUM({qty_range})", style=self.total_style)
        sheet.set((total_row, 4), formula=f"=SUM({value_range})", style=self.total_style)
        sheet.set((total_row + 1, 1), "Highest value", style=self.label_style)
        sheet.set((total_row + 1, 4), formula=f"=MAX({value_range})")
        sheet.set((total_row + 2, 1), "Lowest value", style=self.label_style)
        sheet.set((total_row + 2, 4), formula=f"=MIN({value_range})")


class BudgetTemplate(WorkbookTemplate):
    """Budget vs actual with variance, percentage and an IF status flag."""

    family_prefix = "budget"

    def __init__(self, family_id: int, rng: np.random.Generator) -> None:
        super().__init__(family_id, rng)
        self.categories = pools.pick_many(rng, pools.EXPENSE_CATEGORIES, int(rng.integers(6, 10)))
        self.department = pools.pick(rng, pools.DEPARTMENTS)

    def row_range(self) -> Sequence[int]:
        return (6, 10)

    def row_jitter(self) -> int:
        return 2

    def sheet_names(self) -> List[str]:
        return ["Budget", "Notes"]

    def fill_workbook(self, workbook: Workbook, rng: np.random.Generator, n_rows: int) -> None:
        sheet = workbook.sheets[0]
        self._write_title(sheet, 0, f"{self.department} Budget Review")
        header_row = 2
        self._write_headers(sheet, header_row, ["Category", "Budget", "Actual", "Variance", "Used %", "Status"])
        categories = self.categories[: max(4, min(n_rows, len(self.categories)))]
        first_data = header_row + 1
        for offset, category in enumerate(categories):
            row = first_data + offset
            sheet.set((row, 0), category, style=self.label_style)
            sheet.set((row, 1), pools.money(rng, 5_000, 120_000))
            sheet.set((row, 2), pools.money(rng, 4_000, 140_000))
            sheet.set((row, 3), formula=f"={cell_a1(row, 2)}-{cell_a1(row, 1)}")
            sheet.set((row, 4), formula=f"=ROUND({cell_a1(row, 2)}/{cell_a1(row, 1)},2)")
            sheet.set(
                (row, 5),
                formula=f'=IF({cell_a1(row, 2)}>{cell_a1(row, 1)},"OVER","UNDER")',
            )
        total_row = first_data + len(categories)
        sheet.set((total_row, 0), "Total", style=self.total_style)
        for col in (1, 2, 3):
            col_range = f"{cell_a1(first_data, col)}:{cell_a1(total_row - 1, col)}"
            sheet.set((total_row, col), formula=f"=SUM({col_range})", style=self.total_style)
        over_range = f"{cell_a1(first_data, 5)}:{cell_a1(total_row - 1, 5)}"
        sheet.set((total_row + 1, 0), "Categories over budget", style=self.label_style)
        sheet.set((total_row + 1, 5), formula=f'=COUNTIF({over_range},"OVER")')

        notes = workbook.sheets[1]
        self._write_title(notes, 0, "Notes")
        notes.set((2, 0), f"Prepared by {pools.full_name(rng)}")
        notes.set((3, 0), f"Reviewed {pools.iso_date(rng)}")


class TimesheetTemplate(WorkbookTemplate):
    """Weekly timesheet with date breakdown and summed hours."""

    family_prefix = "timesheet"

    def __init__(self, family_id: int, rng: np.random.Generator) -> None:
        super().__init__(family_id, rng)
        self.projects = pools.pick_many(rng, pools.PROJECT_CODES, 3)

    def row_range(self) -> Sequence[int]:
        return (10, 30)

    def sheet_names(self) -> List[str]:
        return ["Timesheet"]

    def fill_workbook(self, workbook: Workbook, rng: np.random.Generator, n_rows: int) -> None:
        sheet = workbook.sheets[0]
        self._write_title(sheet, 0, "Timesheet")
        sheet.set((1, 0), "Employee", style=self.label_style)
        sheet.set((1, 1), pools.full_name(rng))
        sheet.set((2, 0), "Hourly rate", style=self.label_style)
        sheet.set((2, 1), float(rng.integers(80, 220)))
        header_row = 3
        self._write_headers(sheet, header_row, ["Date", "Project", "Hours", "Month", "Billable"])
        first_data = header_row + 1
        last_data = first_data + n_rows - 1
        for offset in range(n_rows):
            row = first_data + offset
            sheet.set((row, 0), pools.iso_date(rng))
            sheet.set((row, 1), pools.pick(rng, self.projects))
            sheet.set((row, 2), float(np.round(rng.uniform(0.5, 10.0), 1)))
            sheet.set((row, 3), formula=f"=MONTH({cell_a1(row, 0)})")
            sheet.set((row, 4), formula=f"={cell_a1(row, 2)}*B3")
        total_row = last_data + 2
        hour_range = f"{cell_a1(first_data, 2)}:{cell_a1(last_data, 2)}"
        billable_range = f"{cell_a1(first_data, 4)}:{cell_a1(last_data, 4)}"
        sheet.set((total_row, 1), "Total hours", style=self.label_style)
        sheet.set((total_row, 2), formula=f"=SUM({hour_range})", style=self.total_style)
        sheet.set((total_row + 1, 1), "Total billable", style=self.label_style)
        sheet.set((total_row + 1, 4), formula=f"=ROUND(SUM({billable_range}),2)", style=self.total_style)


class CustomerListTemplate(WorkbookTemplate):
    """Customer roster with string-manipulation formulas."""

    family_prefix = "customers"

    def __init__(self, family_id: int, rng: np.random.Generator) -> None:
        super().__init__(family_id, rng)
        self.cities = pools.pick_many(rng, pools.CITIES, 4)

    def row_range(self) -> Sequence[int]:
        return (12, 40)

    def sheet_names(self) -> List[str]:
        return ["Customers", "Codes"]

    def fill_workbook(self, workbook: Workbook, rng: np.random.Generator, n_rows: int) -> None:
        sheet = workbook.sheets[0]
        self._write_title(sheet, 0, "Customer Directory")
        header_row = 2
        self._write_headers(sheet, header_row, ["First", "Last", "City", "Full Name", "Code"])
        first_data = header_row + 1
        last_data = first_data + n_rows - 1
        for offset in range(n_rows):
            row = first_data + offset
            sheet.set((row, 0), pools.pick(rng, pools.FIRST_NAMES))
            sheet.set((row, 1), pools.pick(rng, pools.LAST_NAMES))
            sheet.set((row, 2), pools.pick(rng, self.cities))
            sheet.set((row, 3), formula=f'=CONCATENATE({cell_a1(row, 0)}," ",{cell_a1(row, 1)})')
            sheet.set((row, 4), formula=f"=UPPER(LEFT({cell_a1(row, 1)},3))")
        count_row = last_data + 2
        sheet.set((count_row, 2), "Customer count", style=self.label_style)
        name_range = f"{cell_a1(first_data, 0)}:{cell_a1(last_data, 0)}"
        sheet.set((count_row, 3), formula=f"=COUNTA({name_range})", style=self.total_style)

        codes = workbook.sheets[1]
        self._write_headers(codes, 0, ["City", "Prefix"])
        for index, city in enumerate(self.cities):
            codes.set((1 + index, 0), city)
            codes.set((1 + index, 1), formula=f"=UPPER(LEFT({cell_a1(1 + index, 0)},3))")


class LargeLedgerTemplate(WorkbookTemplate):
    """A long transaction ledger (hundreds of rows) with bottom-line totals.

    Exists mainly to populate the larger row-count buckets of the Figure 9
    sensitivity analysis; the formula logic (SUM / COUNTIF of a long column,
    plus running balances) matches what large real-world ledgers contain.
    """

    family_prefix = "ledger"

    def __init__(self, family_id: int, rng: np.random.Generator) -> None:
        super().__init__(family_id, rng)
        self.accounts = pools.pick_many(rng, pools.DEPARTMENTS, 4)

    def row_range(self) -> Sequence[int]:
        return (180, 320)

    def row_jitter(self) -> int:
        return 8

    def sheet_names(self) -> List[str]:
        return ["Ledger"]

    def fill_workbook(self, workbook: Workbook, rng: np.random.Generator, n_rows: int) -> None:
        sheet = workbook.sheets[0]
        self._write_title(sheet, 0, "Transaction Ledger")
        header_row = 2
        self._write_headers(sheet, header_row, ["Date", "Account", "Debit", "Credit", "Net"])
        first_data = header_row + 1
        last_data = first_data + n_rows - 1
        for offset in range(n_rows):
            row = first_data + offset
            sheet.set((row, 0), pools.iso_date(rng))
            sheet.set((row, 1), pools.pick(rng, self.accounts))
            sheet.set((row, 2), pools.money(rng, 10, 5_000))
            sheet.set((row, 3), pools.money(rng, 10, 5_000))
            sheet.set((row, 4), formula=f"={cell_a1(row, 2)}-{cell_a1(row, 3)}")
        totals_row = last_data + 2
        debit_range = f"{cell_a1(first_data, 2)}:{cell_a1(last_data, 2)}"
        credit_range = f"{cell_a1(first_data, 3)}:{cell_a1(last_data, 3)}"
        account_range = f"{cell_a1(first_data, 1)}:{cell_a1(last_data, 1)}"
        sheet.set((totals_row, 1), "Totals", style=self.total_style)
        sheet.set((totals_row, 2), formula=f"=SUM({debit_range})", style=self.total_style)
        sheet.set((totals_row, 3), formula=f"=SUM({credit_range})", style=self.total_style)
        sheet.set((totals_row + 1, 1), self.accounts[0], style=self.label_style)
        sheet.set(
            (totals_row + 1, 2),
            formula=f"=COUNTIF({account_range},{cell_a1(totals_row + 1, 1)})",
        )


class SingletonTemplate(WorkbookTemplate):
    """A one-off workbook with an ad-hoc layout (no similar counterpart).

    Singletons bound the best-possible recall of any similar-sheet method,
    reproducing what the paper observes on the Cisco corpus.  Their sheet is
    usually called ``Sheet1`` so they also exercise the "common name"
    branch of the weak-supervision hypothesis test.
    """

    family_prefix = "adhoc"
    is_family = False

    def __init__(self, family_id: int, rng: np.random.Generator) -> None:
        super().__init__(family_id, rng)
        self.n_columns = int(rng.integers(2, 6))
        self.use_default_name = bool(rng.random() < 0.6)
        self.label_pool = pools.pick_many(rng, pools.EXPENSE_CATEGORIES + pools.PRODUCTS, 6)

    def row_range(self) -> Sequence[int]:
        return (5, 60)

    def sheet_names(self) -> List[str]:
        if self.use_default_name:
            return ["Sheet1"]
        return [f"Data {self.family_id}"]

    def fill_workbook(self, workbook: Workbook, rng: np.random.Generator, n_rows: int) -> None:
        sheet = workbook.sheets[0]
        self._write_title(sheet, 0, f"Worksheet {self.family_id}")
        header_row = 1 + int(rng.integers(0, 3))
        headers = ["Item"] + [f"Metric {i + 1}" for i in range(self.n_columns)]
        self._write_headers(sheet, header_row, headers)
        first_data = header_row + 1
        for offset in range(n_rows):
            row = first_data + offset
            sheet.set((row, 0), pools.pick(rng, self.label_pool))
            for col in range(1, self.n_columns + 1):
                sheet.set((row, col), pools.money(rng, 1, 10_000))
        total_row = first_data + n_rows
        sheet.set((total_row, 0), "Total", style=self.total_style)
        target_col = int(rng.integers(1, self.n_columns + 1))
        col_range = f"{cell_a1(first_data, target_col)}:{cell_a1(total_row - 1, target_col)}"
        sheet.set((total_row, target_col), formula=f"=SUM({col_range})", style=self.total_style)


#: Family templates in rotation order used by the corpus generator.
ALL_TEMPLATE_CLASSES = (
    SurveyTemplate,
    FinancialStatementTemplate,
    SalesReportTemplate,
    InventoryTemplate,
    BudgetTemplate,
    TimesheetTemplate,
    CustomerListTemplate,
    LargeLedgerTemplate,
)
