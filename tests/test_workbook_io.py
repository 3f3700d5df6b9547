"""Tests for workbooks and JSON (de)serialization."""

import json
import re
import sys
import threading
from pathlib import Path

import pytest

from repro import cache
from repro.sheet import Sheet, Workbook
from repro.sheet.io import (
    FORMAT_VERSION,
    WorkbookFormatError,
    load_workbook_json,
    save_workbook_json,
    sheet_from_dict,
    workbook_from_dict,
    workbook_to_dict,
)
from repro.sheet.style import CellStyle

SRC = Path(__file__).resolve().parents[1] / "src"


class TestWorkbook:
    def test_add_and_get(self):
        workbook = Workbook("demo.xlsx")
        sheet = workbook.add_sheet("Data")
        assert workbook.get_sheet("Data") is sheet
        assert workbook["Data"] is sheet
        assert "Data" in workbook

    def test_add_by_name(self):
        workbook = Workbook()
        sheet = workbook.add_sheet("Summary")
        assert isinstance(sheet, Sheet)
        assert sheet.name == "Summary"

    def test_duplicate_name_rejected(self):
        workbook = Workbook()
        workbook.add_sheet("S")
        with pytest.raises(ValueError):
            workbook.add_sheet("S")

    def test_sheet_order_preserved(self):
        workbook = Workbook()
        for name in ["Instructions", "WorkshopDetails", "Data"]:
            workbook.add_sheet(name)
        assert workbook.sheet_names == ["Instructions", "WorkshopDetails", "Data"]

    def test_len_and_iter(self, simple_workbook):
        assert len(simple_workbook) == 2
        assert [sheet.name for sheet in simple_workbook] == ["Data", "Notes"]

    def test_remove_sheet(self):
        workbook = Workbook()
        workbook.add_sheet("A")
        workbook.remove_sheet("A")
        assert "A" not in workbook

    def test_counts(self, simple_workbook):
        assert simple_workbook.n_formulas() == 1
        assert simple_workbook.n_cells() > 10


class TestWorkbookSerialization:
    def test_dict_roundtrip(self, simple_workbook):
        restored = workbook_from_dict(workbook_to_dict(simple_workbook))
        assert restored.name == simple_workbook.name
        assert restored.last_modified == simple_workbook.last_modified
        assert restored.sheet_names == simple_workbook.sheet_names
        assert restored["Data"].get("B7").formula == "=SUM(B2:B6)"
        assert restored["Data"].get("B2").value == 1.0

    def test_styles_survive_roundtrip(self):
        workbook = Workbook("styled.xlsx")
        sheet = workbook.add_sheet("S")
        sheet.set("A1", "Header", style=CellStyle(bold=True, background_color="#4472C4"))
        restored = workbook_from_dict(workbook_to_dict(workbook))
        assert restored["S"].get("A1").style.bold
        assert restored["S"].get("A1").style.background_color == "#4472C4"

    def test_file_roundtrip(self, simple_workbook, tmp_path):
        path = tmp_path / "nested" / "wb.json"
        save_workbook_json(simple_workbook, path)
        assert path.exists()
        restored = load_workbook_json(path)
        assert restored.sheet_names == simple_workbook.sheet_names
        assert restored["Data"].n_cells == simple_workbook["Data"].n_cells

    def test_empty_workbook_roundtrip(self):
        workbook = Workbook("empty.xlsx")
        restored = workbook_from_dict(workbook_to_dict(workbook))
        assert len(restored) == 0

    def test_extent_beyond_max_cell_survives_roundtrip(self):
        # delete() never shrinks the extent, so the extent can exceed the
        # max written cell; a round trip must not re-derive (and thereby
        # shrink) it.
        workbook = Workbook("wb")
        sheet = workbook.add_sheet("S")
        sheet.set("A1", 1.0)
        sheet.set("E9", 2.0)
        sheet.delete("E9")
        assert (sheet.n_rows, sheet.n_cols) == (9, 5)
        restored = workbook_from_dict(workbook_to_dict(workbook))["S"]
        assert (restored.n_rows, restored.n_cols) == (9, 5)


class TestWorkbookFormatValidation:
    def test_format_version_is_stamped_and_enforced(self):
        payload = workbook_to_dict(Workbook("wb"))
        assert payload["format_version"] == FORMAT_VERSION
        payload["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(WorkbookFormatError, match="format_version"):
            workbook_from_dict(payload)

    def test_missing_version_is_accepted(self):
        # Hand-written fixtures and bare wire payloads carry no stamp.
        restored = workbook_from_dict({"name": "wb", "sheets": []})
        assert restored.name == "wb"

    def test_malformed_cells_container_raises(self):
        payload = {
            "name": "wb",
            "sheets": [{"name": "S", "cells": [["A1", {"value": 1.0}]]}],
        }
        with pytest.raises(WorkbookFormatError, match="cells"):
            workbook_from_dict(payload)

    def test_malformed_cell_record_raises(self):
        payload = {"name": "wb", "sheets": [{"name": "S", "cells": {"A1": 3.5}}]}
        with pytest.raises(WorkbookFormatError, match="A1"):
            workbook_from_dict(payload)

    def test_invalid_cell_address_raises(self):
        payload = {
            "name": "wb",
            "sheets": [{"name": "S", "cells": {"not-an-address": {"value": 1.0}}}],
        }
        with pytest.raises(WorkbookFormatError, match="address"):
            workbook_from_dict(payload)

    def test_malformed_sheets_container_raises(self):
        with pytest.raises(WorkbookFormatError, match="sheets"):
            workbook_from_dict({"name": "wb", "sheets": {"S": {}}})

    def test_non_object_payloads_raise(self):
        with pytest.raises(WorkbookFormatError):
            workbook_from_dict(["not", "a", "workbook"])
        with pytest.raises(WorkbookFormatError):
            sheet_from_dict("not a sheet")

    def test_format_error_is_a_value_error(self):
        # The server layer maps ValueError to HTTP 400; the typed error
        # must stay inside that contract.
        assert issubclass(WorkbookFormatError, ValueError)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (
                {"name": "S", "cells": [["A1", {"value": 1.0}]]},
                "sheet 'S' has a malformed 'cells' entry: expected an object mapping "
                "A1 addresses to cell records, got list",
            ),
            (
                {"name": "S", "cells": {"A1": 3.5}},
                "sheet 'S' cell 'A1' has a malformed record: expected an object, got float",
            ),
            (
                {"name": "S", "cells": {"not-an-address": {"value": 1.0}}},
                "sheet 'S' has an invalid cell address 'not-an-address': "
                "invalid cell reference: 'not-an-address'",
            ),
            (
                {"name": "S", "cells": {"B2": {}, "A0": {"value": 1.0}}},
                "sheet 'S' has an invalid cell address 'A0': row numbers are 1-based, got 'A0'",
            ),
            (
                {"name": "S", "cells": {"A1": {"value": "2024-13-45", "value_kind": "date"}}},
                "sheet 'S' cell 'A1' cannot be decoded: month must be in 1..12",
            ),
            ("not a sheet", "sheet payload must be a JSON object, got str"),
        ],
    )
    def test_every_decode_error_keeps_its_message(self, payload, message):
        with pytest.raises(WorkbookFormatError, match=f"^{re.escape(message)}$"):
            sheet_from_dict(payload)

    def test_unhashable_style_values_are_a_format_error(self):
        # They cannot key the shared-style table; the wire maps this to a 400.
        payload = {"name": "S", "cells": {"A1": {"value": 1.0, "style": {"bold": []}}}}
        with pytest.raises(WorkbookFormatError, match="cell 'A1' cannot be decoded"):
            sheet_from_dict(payload)


class TestOneLoopDecoder:
    def test_two_spellings_of_one_cell_count_as_two_writes(self):
        # What a ``set_cell`` per record left: the later record, two bumps.
        sheet = sheet_from_dict({"cells": {"A1": {"value": 1.0}, "$A$1": {"value": 2.0}}})
        assert (sheet.n_cells, sheet.version, sheet.get("A1").value) == (1, 2, 2.0)

    def test_concurrent_decodes_agree_and_every_lookup_is_counted(self):
        workbooks = []
        for index in range(6):
            workbook = Workbook(f"wb{index}")
            sheet = workbook.add_sheet("S")
            for row in range(40):
                sheet.set((row, index), float(row), style=CellStyle(bold=row % 3 == 0))
            workbooks.append(workbook)
        payloads = [json.loads(json.dumps(workbook_to_dict(workbook))) for workbook in workbooks]
        addresses = sum(len(sheet["cells"]) for payload in payloads for sheet in payload["sheets"])
        styles = sum(
            "style" in record
            for payload in payloads
            for sheet in payload["sheets"]
            for record in sheet["cells"].values()
        )
        decoded = {}

        def decode(worker):
            decoded[worker] = [workbook_from_dict(payload) for payload in payloads * 5]

        before = cache.stats()
        threads = [threading.Thread(target=decode, args=(worker,)) for worker in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        after = cache.stats()
        for name, lookups in (("cell_addresses", addresses), ("cell_styles", styles)):
            moved = sum(after[name][field] - before[name][field] for field in ("hit", "miss"))
            assert moved == lookups * 5 * len(threads)
        for results in decoded.values():
            for workbook, original in zip(results, workbooks * 5):
                assert workbook_to_dict(workbook) == workbook_to_dict(original)


def test_the_codec_encodes_in_c_and_copies_no_dataclass():
    """``json.dump`` streams through the pure-Python encoder and
    ``dataclasses.asdict`` deep-copies recursively: the write path uses
    neither (a lint, kept as a test because CI has no lint step)."""

    def offenders(root, pattern):
        return [
            f"{path.relative_to(SRC)}:{number}"
            for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(pattern, line)
        ]

    assert offenders(SRC, r"json\.dump\(") == []
    assert offenders(SRC / "repro" / "sheet", r"asdict") == []
