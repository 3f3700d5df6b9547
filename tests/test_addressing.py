"""Tests for A1 addressing, cell addresses and ranges."""

import pytest

from repro.sheet.addressing import (
    AddressError,
    CellAddress,
    RangeAddress,
    cell_a1,
    column_index_to_letters,
    column_letters_to_index,
    is_cell_reference,
    is_range_reference,
    parse_cell_address,
    parse_range_address,
)


class TestColumnConversion:
    def test_single_letters(self):
        assert column_letters_to_index("A") == 0
        assert column_letters_to_index("B") == 1
        assert column_letters_to_index("Z") == 25

    def test_double_letters(self):
        assert column_letters_to_index("AA") == 26
        assert column_letters_to_index("AZ") == 51
        assert column_letters_to_index("BA") == 52

    def test_lowercase_accepted(self):
        assert column_letters_to_index("aa") == 26

    def test_index_to_letters(self):
        assert column_index_to_letters(0) == "A"
        assert column_index_to_letters(25) == "Z"
        assert column_index_to_letters(26) == "AA"
        assert column_index_to_letters(701) == "ZZ"
        assert column_index_to_letters(702) == "AAA"

    def test_roundtrip(self):
        for index in range(0, 800, 7):
            assert column_letters_to_index(column_index_to_letters(index)) == index

    def test_invalid_letters_raise(self):
        with pytest.raises(AddressError):
            column_letters_to_index("1A")
        with pytest.raises(AddressError):
            column_letters_to_index("")

    def test_negative_index_raises(self):
        with pytest.raises(AddressError):
            column_index_to_letters(-1)


class TestCellAddress:
    def test_parse_simple(self):
        address = parse_cell_address("C41")
        assert address == CellAddress(40, 2)

    def test_parse_with_anchors(self):
        assert parse_cell_address("$C$41") == CellAddress(40, 2)

    def test_to_a1(self):
        assert CellAddress(0, 0).to_a1() == "A1"
        assert CellAddress(353, 3).to_a1() == "D354"

    def test_roundtrip(self):
        for text in ["A1", "Z99", "AA100", "D354"]:
            assert parse_cell_address(text).to_a1() == text

    def test_negative_coordinates_rejected(self):
        with pytest.raises(AddressError):
            CellAddress(-1, 0)
        with pytest.raises(AddressError):
            CellAddress(0, -1)
        with pytest.raises(AddressError):
            CellAddress(2, 3)._replace(col=-1)

    def test_an_address_is_its_row_col_tuple(self):
        """It equals, hashes and sorts as ``(row, col)``, so either finds
        the other in a dict or a set."""
        address = CellAddress(2, 3)
        assert address == (2, 3) and hash(address) == hash((2, 3))
        assert {(2, 3): "x"}[address] == "x" and (2, 3) in {address}
        addresses = [CellAddress(2, 0), CellAddress(0, 5), CellAddress(1, 1), CellAddress(0, 2)]
        assert sorted(addresses) == [(0, 2), (0, 5), (1, 1), (2, 0)]
        assert repr(address) == "CellAddress(row=2, col=3)" and str(address) == "D3"

    def test_one_a1_writer(self):
        assert cell_a1(40, 2) == "C41" == CellAddress(40, 2).to_a1()
        assert cell_a1(0, 16383) == "XFD1"

    def test_invalid_text_rejected(self):
        for bad in ["", "41C", "C", "41", "C0"]:
            with pytest.raises(AddressError):
                parse_cell_address(bad)

    def test_shifted(self):
        assert CellAddress(5, 2).shifted(3, 1) == CellAddress(8, 3)

    def test_offset_from(self):
        assert CellAddress(10, 5).offset_from(CellAddress(4, 2)) == (6, 3)

    def test_ordering(self):
        assert CellAddress(1, 0) < CellAddress(2, 0)
        assert CellAddress(1, 0) < CellAddress(1, 1)

    def test_is_cell_reference(self):
        assert is_cell_reference("B5")
        assert not is_cell_reference("B5:C6")
        assert not is_cell_reference("SUM")


class TestRangeAddress:
    def test_parse(self):
        cell_range = parse_range_address("C7:C37")
        assert cell_range.start == CellAddress(6, 2)
        assert cell_range.end == CellAddress(36, 2)

    def test_size_and_shape(self):
        cell_range = RangeAddress(CellAddress(0, 0), CellAddress(4, 2))
        assert cell_range.n_rows == 5
        assert cell_range.n_cols == 3
        assert cell_range.size == 15

    def test_normalization_of_reversed_corners(self):
        cell_range = RangeAddress(CellAddress(10, 5), CellAddress(2, 1))
        assert cell_range.start == CellAddress(2, 1)
        assert cell_range.end == CellAddress(10, 5)

    def test_contains(self):
        cell_range = parse_range_address("B2:D10")
        assert cell_range.contains(CellAddress(5, 2))
        assert not cell_range.contains(CellAddress(0, 0))
        assert not cell_range.contains(CellAddress(5, 4))

    def test_cells_iteration_row_major(self):
        cell_range = parse_range_address("A1:B2")
        assert [addr.to_a1() for addr in cell_range.cells()] == ["A1", "B1", "A2", "B2"]

    def test_shifted(self):
        assert parse_range_address("C7:C37").shifted(1, 1).to_a1() == "D8:D38"

    def test_roundtrip(self):
        for text in ["A1:A1", "C7:C37", "B2:Z99"]:
            assert parse_range_address(text).to_a1() == text

    def test_invalid_range_rejected(self):
        with pytest.raises(AddressError):
            parse_range_address("C7")
        with pytest.raises(AddressError):
            parse_range_address("C7:")

    def test_is_range_reference(self):
        assert is_range_reference("C7:C37")
        assert not is_range_reference("C7")
