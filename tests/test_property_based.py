"""Property-based tests (hypothesis) on core data structures and invariants."""

import dataclasses
import datetime
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import cache
from repro.embedding import HashedSemanticEmbedder
from repro.features import CellFeaturizer, FeatureConfig
from repro.formula import (
    FunctionCall,
    extract_template,
    formula_references,
    instantiate_template,
    parse_formula,
    walk,
)
from repro.formula import parser
from repro.formula.engine import FormulaEngine
from repro.formula.errors import ALL_ERROR_VALUES, ErrorValue
from repro.formula.functions import BUILTIN_FUNCTIONS
from repro.formula.parser import MAX_AST_HEIGHT
from repro.formula.template import normalize_formula, shift_formula
from repro.formula.tokenizer import FormulaSyntaxError, TokenType, tokenize
from repro.nn import L2Normalize
from repro.nn.losses import pairwise_squared_distances, triplet_loss_and_grad
from repro.sheet import Cell, CellAddress, CellStyle, RangeAddress, Sheet, Workbook
from repro.sheet import parse_cell_address, workbook_from_dict, workbook_to_dict
from repro.sheet.io import WorkbookFormatError, sheet_from_dict
from repro.sheet.addressing import column_index_to_letters, column_letters_to_index
from repro.sheet.style import DEFAULT_STYLE
from repro.weaksup import SheetNameStatistics

# ----------------------------------------------------------------- strategies

cell_addresses = st.builds(
    CellAddress, row=st.integers(0, 500), col=st.integers(0, 60)
)

cell_ranges = st.builds(
    lambda a, b: RangeAddress(a, b), cell_addresses, cell_addresses
)


@st.composite
def aggregation_formulas(draw):
    """Random single-aggregation formulas over a random range."""
    function = draw(st.sampled_from(["SUM", "AVERAGE", "COUNT", "MAX", "MIN", "COUNTA"]))
    cell_range = draw(cell_ranges)
    return f"={function}({cell_range.to_a1()})"


@st.composite
def countif_formulas(draw):
    cell_range = draw(cell_ranges)
    criterion = draw(cell_addresses)
    return f"=COUNTIF({cell_range.to_a1()},{criterion.to_a1()})"


formula_strategies = st.one_of(aggregation_formulas(), countif_formulas())


_FUNCTION_NAMES = ["SUM", "average", "IF", "Countif", "MAX", "CONCAT", "ROUND"]
_BINARY_OPS = ["+", "-", "*", "/", "^", "&", "=", "<", ">", "<=", ">=", "<>"]


@st.composite
def _number_literals(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return str(draw(st.integers(0, 10_000)))
    if kind == 1:
        return repr(
            draw(st.floats(0.001, 1e6, allow_nan=False, allow_infinity=False))
        )
    return f"{draw(st.integers(1, 9))}e{draw(st.integers(0, 6))}"


@st.composite
def _string_literals(draw):
    text = draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))
    escaped = text.replace('"', '""')
    return f'"{escaped}"'


@st.composite
def _cell_tokens(draw):
    address = draw(cell_addresses).to_a1()
    if draw(st.booleans()):
        address = address.lower()
    return address


_atoms = st.one_of(
    _number_literals(),
    _string_literals(),
    st.sampled_from(["TRUE", "FALSE", "true", "False"]),
    _cell_tokens(),
    st.builds(lambda r: r.to_a1(), cell_ranges),
)


def _compose(children):
    """Build compound expressions whose sub-terms are already parseable."""

    @st.composite
    def compound(draw):
        kind = draw(st.integers(0, 4))
        if kind == 0:  # binary op, parenthesized so precedence is explicit
            op = draw(st.sampled_from(_BINARY_OPS))
            return f"({draw(children)}{op}{draw(children)})"
        if kind == 1:  # unary prefix
            return f"(-{draw(children)})" if draw(st.booleans()) else f"(+{draw(children)})"
        if kind == 2:  # percent postfix binds to a primary
            return f"({draw(children)})%"
        if kind == 3:  # grouping
            return f"({draw(children)})"
        name = draw(st.sampled_from(_FUNCTION_NAMES))
        args = draw(st.lists(children, min_size=0, max_size=3))
        return f"{name}({','.join(args)})"

    return compound()


_CHAIN_OPS = [["+", "-"], ["*", "/"], ["^"], ["&"], ["=", "<>", "<="]]
#: No ranges down a chain: a hundred of them would make evaluation, not
#: height, the cost of an example.
_chain_atoms = st.one_of(_number_literals(), _string_literals(), _cell_tokens())


@st.composite
def _tall_formulas(draw):
    """Height-hostile formulas: long operator and ``%`` chains around calls,
    signs and groupings, up to exactly the parser's height bound (the height
    is tracked as the text is built, one known step at a time)."""
    text, height = draw(_atoms), 1
    for __ in range(draw(st.integers(1, 12))):
        room = MAX_AST_HEIGHT - height
        if room < 2:
            break
        kind = draw(st.integers(0, 3))
        if kind == 0:  # (text) op atom op atom ...: a left-deep chain
            ops = draw(st.sampled_from(_CHAIN_OPS))
            n = draw(st.integers(1, room - 1) | st.just(room - 1))
            text = f"({text})" + "".join(
                draw(st.sampled_from(ops)) + draw(_chain_atoms) for __ in range(n)
            )
            height += 1 + n
        elif kind == 1:  # (text)%%...
            n = draw(st.integers(1, room - 1) | st.just(room - 1))
            text, height = f"({text})" + "%" * n, height + 1 + n
        elif kind == 2:
            text, height = f"{draw(st.sampled_from(_FUNCTION_NAMES))}({text},{draw(_atoms)})", height + 1
        else:
            text, height = f"-({text})", height + 2
    return text


#: Deeply structured formulas covering every grammar production, and tall
#: ones up to the parser's height bound.
rich_formulas = st.one_of(st.recursive(_atoms, _compose, max_leaves=12), _tall_formulas())


# ------------------------------------------------------------------ addressing


class TestAddressingProperties:
    @given(st.integers(0, 20_000))
    def test_column_roundtrip(self, index):
        assert column_letters_to_index(column_index_to_letters(index)) == index

    @given(cell_addresses)
    def test_a1_roundtrip(self, address):
        assert CellAddress.from_a1(address.to_a1()) == address

    @given(cell_addresses, st.integers(0, 50), st.integers(0, 20))
    def test_shift_is_reversible(self, address, row_delta, col_delta):
        shifted = address.shifted(row_delta, col_delta)
        assert shifted.shifted(-row_delta, -col_delta) == address

    @given(cell_ranges)
    def test_range_contains_its_corners_and_all_cells(self, cell_range):
        assert cell_range.contains(cell_range.start)
        assert cell_range.contains(cell_range.end)
        assert sum(1 for __ in cell_range.cells()) == cell_range.size

    @given(cell_ranges)
    def test_range_roundtrip(self, cell_range):
        assert RangeAddress.from_a1(cell_range.to_a1()) == cell_range


# --------------------------------------------------------------------- formula


class TestFormulaProperties:
    @given(formula_strategies)
    def test_parse_render_roundtrip_is_stable(self, formula):
        rendered = normalize_formula(formula)
        assert normalize_formula(rendered) == rendered

    @given(formula_strategies)
    def test_template_instantiation_with_own_references_is_identity(self, formula):
        references = formula_references(formula)
        assert instantiate_template(formula, references) == normalize_formula(formula)

    @given(formula_strategies, st.integers(0, 30), st.integers(0, 10))
    def test_shift_preserves_template(self, formula, row_delta, col_delta):
        shifted = shift_formula(formula, row_delta, col_delta)
        assert extract_template(shifted) == extract_template(formula)

    @given(formula_strategies, st.integers(0, 30), st.integers(0, 10))
    def test_shift_is_reversible(self, formula, row_delta, col_delta):
        shifted = shift_formula(formula, row_delta, col_delta)
        assert shift_formula(shifted, -row_delta, -col_delta) == normalize_formula(formula)

    @given(formula_strategies)
    def test_reference_count_matches_template_holes(self, formula):
        template = extract_template(formula)
        assert template.n_parameters == len(formula_references(formula))


class TestParserRoundTrip:
    """parse -> render -> parse is a fixed point of the formula grammar."""

    @given(rich_formulas)
    @settings(max_examples=200)
    def test_parse_render_parse_is_fixed_point(self, formula):
        ast = parse_formula(formula)
        rendered = ast.to_formula()
        reparsed = parse_formula(rendered)
        assert reparsed == ast
        # And rendering is already canonical after one pass:
        assert reparsed.to_formula() == rendered

    @given(rich_formulas)
    @settings(max_examples=100)
    def test_normalize_is_idempotent_on_rich_formulas(self, formula):
        normalized = normalize_formula(formula)
        assert normalize_formula(normalized) == normalized

    @given(rich_formulas)
    @settings(max_examples=100)
    def test_tokenize_join_tokenize_is_fixed_point(self, formula):
        tokens = tokenize(formula)
        joined = "".join(token.text for token in tokens)
        retokenized = tokenize(joined)
        assert [(token.type, token.text) for token in tokens] == [
            (token.type, token.text) for token in retokenized
        ]
        assert tokens[-1].type is TokenType.EOF

    @given(rich_formulas)
    @settings(max_examples=100)
    def test_leading_equals_is_optional_and_stripped(self, formula):
        assert parse_formula(f"={formula}") == parse_formula(formula)

    @given(rich_formulas)
    @settings(max_examples=100)
    def test_whitespace_insensitive_between_tokens(self, formula):
        tokens = tokenize(formula)
        spaced = " ".join(token.text for token in tokens if token.text)
        assert parse_formula(spaced) == parse_formula(formula)


class TestParseMemo:
    """``parse_formula`` hands every caller of a string one shared tree."""

    @given(rich_formulas)
    @settings(max_examples=150, deadline=None)
    def test_one_frozen_tree_per_string_equal_to_a_fresh_parse(self, formula):
        tree = parse_formula(formula)
        if len(formula) <= parser._MAX_PINNED_LENGTH:
            assert parse_formula(formula) is tree
        fresh = parser._parsed.__wrapped__(formula)
        assert fresh is not tree
        for node, twin in zip(walk(tree), walk(fresh), strict=True):
            assert type(node) is type(twin) and node == twin
            for field in dataclasses.fields(node):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, field.name, None)
            if isinstance(node, FunctionCall):
                assert isinstance(node.args, tuple)

    @given(rich_formulas, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_an_error_is_raised_on_every_call_and_never_resident(self, formula, too_tall):
        broken = f"({formula})" + "%" * MAX_AST_HEIGHT if too_tall else f"{formula})"
        before = cache.stats()["parsed_formulas"]
        for __ in range(2):
            with pytest.raises(FormulaSyntaxError, match="taller than" if too_tall else "trailing"):
                parse_formula(broken)
        after = cache.stats()["parsed_formulas"]
        looked_up = 2 if len(broken) <= parser._MAX_PINNED_LENGTH else 0
        assert (after["hit"] - before["hit"], after["miss"] - before["miss"]) == (0, looked_up)
        assert after["size"] == before["size"]


# -------------------------------------------------------- workbook JSON I/O

#: Scalar cell values covering every value kind the JSON codec carries.
#: Plain text is filtered away from the "#" prefix so the error-code
#: rehydration rule cannot retype a string that merely looks like one.
_scalar_cell_values = st.one_of(
    st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).filter(
        lambda text: not text.startswith("#")
    ),
    st.booleans(),
    st.just(""),
    st.dates(datetime.date(1900, 1, 1), datetime.date(2199, 12, 31)),
    st.sampled_from(ALL_ERROR_VALUES),
    # Text that spells an error code stays text (a formula can compute it).
    st.sampled_from([str(code) for code in ALL_ERROR_VALUES]),
)


def _json_round_trip(workbook):
    """Serialize through actual JSON text, not just the dict layer."""
    return workbook_from_dict(json.loads(json.dumps(workbook_to_dict(workbook))))


def _values_bit_equal(left, right):
    if isinstance(left, float) and isinstance(right, float):
        return (left == right) or (left != left and right != right)  # NaN-safe
    return left == right and type(left) is type(right)


class TestWorkbookJsonRoundTrip:
    """workbook_to_dict -> JSON text -> workbook_from_dict loses nothing."""

    @given(
        st.lists(
            st.tuples(cell_addresses, _scalar_cell_values),
            min_size=1,
            max_size=12,
            unique_by=lambda pair: (pair[0].row, pair[0].col),
        )
    )
    @settings(max_examples=150)
    def test_value_cells_survive_round_trip(self, items):
        sheet = Sheet("Values")
        for address, value in items:
            sheet.set_cell(address, Cell(value=value))
        workbook = Workbook("wb")
        workbook.add_sheet(sheet)
        restored = _json_round_trip(workbook)
        restored_sheet = restored.get_sheet("Values")
        assert restored.name == "wb"
        assert (restored_sheet.n_rows, restored_sheet.n_cols) == (
            sheet.n_rows,
            sheet.n_cols,
        )
        assert len(list(restored_sheet.cells())) == len(items)
        for address, value in items:
            restored_value = restored_sheet.get(address).value
            assert restored_value == value
            # Type identity matters: True is not 1.0, "" is not 0.0, an
            # ErrorValue is not its plain-text spelling, a date is not
            # its ISO string.
            assert isinstance(restored_value, bool) == isinstance(value, bool)
            assert isinstance(restored_value, ErrorValue) == isinstance(value, ErrorValue)
            assert isinstance(restored_value, datetime.date) == isinstance(
                value, datetime.date
            )

    @given(rich_formulas)
    @settings(max_examples=100, deadline=None)
    def test_formula_cells_round_trip_with_evaluation_parity(self, formula):
        sheet = Sheet("Calc")
        for row in range(6):
            for col in range(4):
                sheet.set_cell(CellAddress(row, col), Cell(value=float(row * 4 + col + 1)))
        sheet.set_cell(CellAddress(10, 0), Cell(formula=f"={formula}"))
        sheet.set_cell(CellAddress(11, 0), Cell(formula="=SUM(A1:D6)+A11"))
        FormulaEngine(sheet).recalculate()
        workbook = Workbook("wb")
        workbook.add_sheet(sheet)

        restored = _json_round_trip(workbook)
        restored_sheet = restored.get_sheet("Calc")
        # The formula text itself survives verbatim ...
        for address in (CellAddress(10, 0), CellAddress(11, 0)):
            assert restored_sheet.get(address).formula == sheet.get(address).formula
        # ... and a full recalculation of the restored sheet reproduces
        # every evaluated value bit-for-bit (evaluation-level parity, not
        # just textual equality of the serialized payloads).
        FormulaEngine(restored_sheet).recalculate()
        for address, cell in sheet.cells():
            assert _values_bit_equal(restored_sheet.get(address).value, cell.value), (
                f"{address.to_a1()}: {restored_sheet.get(address).value!r} "
                f"!= {cell.value!r}"
            )

    def test_blank_versus_zero_survives_round_trip(self):
        sheet = Sheet("S")
        sheet.set_cell(CellAddress(0, 0), Cell(value=""))
        sheet.set_cell(CellAddress(0, 1), Cell(value=0.0))
        sheet.set_cell(CellAddress(0, 2), Cell(value=False))
        workbook = Workbook("wb")
        workbook.add_sheet(sheet)
        restored_sheet = _json_round_trip(workbook).get_sheet("S")
        blank = restored_sheet.get(CellAddress(0, 0)).value
        zero = restored_sheet.get(CellAddress(0, 1)).value
        false = restored_sheet.get(CellAddress(0, 2)).value
        assert blank == "" and isinstance(blank, str)
        assert zero == 0.0 and not isinstance(zero, bool)
        assert false is False
        # The explicit blank is still "empty" to the model, the zero is not.
        assert restored_sheet.get(CellAddress(0, 0)).is_empty
        assert not restored_sheet.get(CellAddress(0, 1)).is_empty


# ------------------------------------------------------------ recalculation

#: Where a chain's next link sits: below, above or to the right.
_CHAIN_STEPS = {"down": (1, 0), "up": (-1, 0), "right": (0, 1)}


@st.composite
def _chain_edits(draw, max_links=500):
    """The edits that build a chain of up to ``max_links`` formulas, each
    reading the next cell in one direction, in a random order; the last edit
    rewrites the value the chain ends in.  A few links are drawn from
    ``rich_formulas`` (whose references may close cycles), the rest add one.
    An edit is ``(address, formula)``, and a formula of ``None`` writes 1."""
    n_links = draw(st.integers(1, max_links) | st.just(max_links))
    d_row, d_col = _CHAIN_STEPS[draw(st.sampled_from(sorted(_CHAIN_STEPS)))]
    first = CellAddress(n_links if d_row < 0 else 0, 0)
    cells = [first.shifted(i * d_row, i * d_col) for i in range(n_links + 1)]
    rich = draw(st.dictionaries(st.integers(0, n_links - 1), rich_formulas, max_size=4))
    edits = [(cells[-1], None)]
    for index, cell in enumerate(cells[:-1]):
        target = cells[index + 1].to_a1()
        formula = f"=IFERROR(({rich[index]}),{target})" if index in rich else f"={target}+1"
        edits.append((cell, formula))
    draw(st.randoms(use_true_random=False)).shuffle(edits)
    return edits + [(cells[-1], None)]


def _assert_edit_order_is_invisible(edits):
    """Edit by edit, the sheet reads what one recalculation of a copy gives,
    and a save and load restores it, recalculated or not."""
    sheet = Sheet("Chain")
    engine = FormulaEngine(sheet)
    for address, formula in edits:
        if formula is None:
            engine.set_value(address, 1.0)
        else:
            engine.set_formula(address, formula)
        engine.recalculate()

    def assert_reads_as_built(other):
        for address, cell in sheet.cells():
            assert _values_bit_equal(other.get(address).value, cell.value), address.to_a1()

    fresh = sheet.copy()
    FormulaEngine(fresh).recalculate()
    assert_reads_as_built(fresh)
    workbook = Workbook("wb")
    workbook.add_sheet(sheet)
    restored = _json_round_trip(workbook).get_sheet("Chain")
    assert_reads_as_built(restored)
    FormulaEngine(restored).recalculate()
    assert_reads_as_built(restored)


class TestRecalculationOrder:
    """Chains pointing up, down and right, as long as 500 links: whatever
    order their cells were written in, their values are one function of the
    sheet."""

    @given(_chain_edits())
    @settings(max_examples=10, deadline=None)
    def test_any_edit_order_reads_one_recalculation_and_a_reload(self, edits):
        _assert_edit_order_is_invisible(edits)

    @pytest.mark.slow
    @given(_chain_edits())
    @example(
        # Text that spells an error code: a reload used to read the error.
        [
            (CellAddress(1, 0), None),
            (CellAddress(0, 0), '=IFERROR(("#VALUE!"),A2)'),
            (CellAddress(1, 0), None),
        ]
    )
    @settings(max_examples=150, deadline=None)
    def test_any_edit_order_at_more_examples(self, edits):
        _assert_edit_order_is_invisible(edits)


# ---------------------------------------------------------- the whole codec

_styles = st.builds(
    CellStyle,
    background_color=st.sampled_from([None, "#4472C4", "#FFF2CC"]),
    font_color=st.sampled_from([None, "#FFFFFF"]),
    bold=st.booleans(),
    italic=st.booleans(),
    font_size=st.sampled_from([11.0, 12.0, 9.5]),
    width=st.sampled_from([64.0, 120.0]),
    border_top=st.booleans(),
)

_codec_cells = st.builds(
    Cell,
    value=st.none() | st.integers(-5, 5) | _scalar_cell_values,
    formula=st.none() | st.sampled_from(["=SUM(A1:A3)", "=$B$2*2", '=IF(A1>0,"y","n")']),
    style=st.just(DEFAULT_STYLE) | st.just(CellStyle()) | _styles,
)

_small_addresses = st.builds(CellAddress, row=st.integers(0, 40), col=st.integers(0, 30))


@st.composite
def _codec_workbooks(draw):
    """Up to three sheets, each after writes, overwrites and deletes (so the
    extent may exceed the last stored cell); a sheet may end up empty."""
    workbook = Workbook(draw(st.text(max_size=8)), last_modified=draw(st.floats(0, 2e9)))
    for index in range(draw(st.integers(0, 3))):
        sheet = workbook.add_sheet(f"S{index}")
        writes = draw(st.lists(st.tuples(_small_addresses, _codec_cells), max_size=14))
        for address, cell in writes:
            sheet.set_cell(address, cell)
        for position in draw(st.sets(st.integers(0, 13), max_size=3)):
            if position < len(writes):
                sheet.delete(writes[position][0])
    return workbook


def _reference_sheet_from_dict(data):
    """The decoder as it was: one ``set_cell`` per record."""
    sheet = Sheet(str(data.get("name", "Sheet1")))
    for a1, record in data.get("cells", {}).items():
        sheet.set_cell(parse_cell_address(a1), Cell.from_dict(record))
    sheet._n_rows = max(sheet.n_rows, int(data.get("n_rows", 0)))
    sheet._n_cols = max(sheet.n_cols, int(data.get("n_cols", 0)))
    return sheet


def _typed(value):
    return (type(value), value)


def _sheet_state(sheet):
    """Name, extent and every stored cell with the types of its values."""
    cells = {
        (address.row, address.col): (
            _typed(cell.value),
            cell.formula,
            tuple(map(_typed, cell.style.to_dict().values())),
        )
        for address, cell in sheet.items()
    }
    return (sheet.name, sheet.n_rows, sheet.n_cols, cells)


def _anchored(a1):
    return f"${a1.rstrip('0123456789')}${a1.lstrip('ABCDEFGHIJKLMNOPQRSTUVWXYZ')}"


class TestCodecRoundTrip:
    """``workbook_to_dict`` -> JSON text -> ``workbook_from_dict`` over whole
    random workbooks, against the workbook itself and the per-record decoder."""

    @given(_codec_workbooks(), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_decoded_workbook_equals_the_original(self, workbook, random):
        payload = json.loads(json.dumps(workbook_to_dict(workbook)))
        for sheet_data in payload["sheets"]:
            # ``$A$1`` spellings name the same cells.
            sheet_data["cells"] = {
                (_anchored(a1) if random.random() < 0.3 else a1): record
                for a1, record in sheet_data["cells"].items()
            }
        decoded, again = workbook_from_dict(payload), workbook_from_dict(payload)
        assert (decoded.name, decoded.last_modified) == (workbook.name, workbook.last_modified)
        assert decoded.sheet_names == workbook.sheet_names
        for sheet, sheet_data in zip(workbook, payload["sheets"]):
            got = decoded.get_sheet(sheet.name)
            assert _sheet_state(got) == _sheet_state(sheet)
            reference = _reference_sheet_from_dict(sheet_data)
            assert _sheet_state(got) == _sheet_state(reference)
            assert got.version == reference.version == len(sheet_data["cells"])
            # Equal addresses and equal styles of two decodes are one object.
            for (address, cell), (twin_address, twin) in zip(
                got.cells(), again.get_sheet(sheet.name).cells()
            ):
                assert address is twin_address
                assert cell.style is twin.style

    def test_every_spelling_of_an_address_is_one_object(self):
        plain = parse_cell_address("C7")
        assert parse_cell_address("$C$7") is plain
        assert parse_cell_address("c$7") is plain
        assert parse_cell_address(" C7 ") is plain
        # A spelling longer than any canonical one is parsed, never pinned.
        before = cache.stats()["cell_addresses"]
        assert parse_cell_address(" " * 20 + "C7") is plain
        after = cache.stats()["cell_addresses"]
        assert (after["size"], after["miss"]) == (before["size"], before["miss"])

    def test_int_and_float_spellings_of_a_style_stay_apart(self):
        as_float = CellStyle.from_dict({"font_size": 12.0, "bold": True})
        as_int = CellStyle.from_dict({"font_size": 12, "bold": 1})
        assert as_float == as_int
        assert type(as_int.font_size) is int and as_int.bold is not True
        assert type(as_float.font_size) is float and as_float.bold is True
        assert CellStyle.from_dict({"bold": True, "font_size": 12.0}) is as_float
        # A colour is seven characters: a long one is refused, never pinned.
        with pytest.raises(ValueError, match="background_color"):
            CellStyle.from_dict({"background_color": "#" + "F" * 5000})

    @given(
        field=st.sampled_from(CellStyle._fields),
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=9),
            lambda children: st.lists(children, max_size=3)
            | st.dictionaries(st.text(max_size=3), children, max_size=3),
            max_leaves=4,
        )
        | st.sampled_from(
            ["#4472c4", "#4472C4", "#4472C", "red", 0, 1, 2, 1.0, 10**400, -0.5, 1e308]
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_in_a_style_field_decodes_or_is_refused(self, field, value):
        """Whatever JSON a client puts in a style field, the decode either
        gives a style the featurizer turns into finite features or raises
        ``WorkbookFormatError`` (a 400 on the wire), never an error later."""
        record = json.loads(json.dumps({"value": "x", "style": {field: value}}))
        try:
            sheet = sheet_from_dict({"name": "S", "cells": {"A1": record}})
        except WorkbookFormatError:
            return
        features = CellFeaturizer(FeatureConfig()).featurize_many([sheet.get("A1")])
        assert np.isfinite(features).all()

    @given(
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=9),
            lambda children: st.lists(children, max_size=3)
            | st.dictionaries(st.text(max_size=3), children, max_size=3),
            max_leaves=4,
        )
        | st.sampled_from(
            [10**400, -(10**400), 10**308, 1e308, [1, 2], {"a": 1}, *ALL_ERROR_VALUES, "2020-01-31"]
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_in_a_value_field_decodes_or_is_refused(self, value):
        """Whatever JSON a client puts in a cell's value, the decode either
        gives one scalar that every builtin function recalculates over
        without raising, or raises ``WorkbookFormatError`` (a 400 on the
        wire), never an error in a later recalculation."""
        formulas = [
            f"={name}({', '.join(['A1'] * arity)})"
            for name in BUILTIN_FUNCTIONS
            for arity in (1, 2, 3)
        ] + ["=A1+1", "=A1*A1", "=A1/A1", "=A1^A1", "=-A1", "=A1&A1", "=A1>A1", "=A1%"]
        cells = {"A1": json.loads(json.dumps({"value": value}))}
        cells.update({f"B{row}": {"formula": formula} for row, formula in enumerate(formulas, 1)})
        try:
            sheet = sheet_from_dict({"name": "S", "cells": cells})
        except WorkbookFormatError:
            return
        assert not isinstance(sheet.get("A1").value, (list, dict))
        FormulaEngine(sheet).recalculate()


# -------------------------------------------------------------------- sheet ops


class TestSheetProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 8), st.text(max_size=5)),
            min_size=1,
            max_size=30,
        )
    )
    def test_copy_preserves_all_cells(self, cells):
        sheet = Sheet()
        for row, col, value in cells:
            sheet.set((row, col), value)
        clone = sheet.copy()
        assert {a: c.value for a, c in clone.cells()} == {a: c.value for a, c in sheet.cells()}


# ----------------------------------------------------------------- embeddings


class TestEmbeddingProperties:
    @given(st.text(max_size=40))
    @settings(max_examples=50)
    def test_embedding_norm_at_most_one(self, text):
        vector = HashedSemanticEmbedder(64).embed(text)
        assert np.linalg.norm(vector) <= 1.0 + 1e-5

    @given(st.text(max_size=40))
    @settings(max_examples=50)
    def test_embedding_deterministic(self, text):
        embedder = HashedSemanticEmbedder(64)
        assert np.allclose(embedder.embed(text), embedder.embed(text))


# ------------------------------------------------------------------------- nn


class TestNNProperties:
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_pairwise_distances_non_negative_and_symmetric(self, n, m, seed):
        rng = np.random.default_rng(seed)
        left = rng.standard_normal((n, 4))
        right = rng.standard_normal((m, 4))
        distances = pairwise_squared_distances(left, right)
        assert np.all(distances >= 0.0)
        assert np.allclose(pairwise_squared_distances(right, left), distances.T, atol=1e-6)

    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_l2_normalize_output_unit_norm(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 8)).astype(np.float32) * 10
        out = L2Normalize().forward(x)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-4)

    @given(st.integers(1, 8), st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_triplet_loss_non_negative_and_bounded_grad(self, n, margin, seed):
        rng = np.random.default_rng(seed)
        anchor = rng.standard_normal((n, 6)).astype(np.float32)
        positive = rng.standard_normal((n, 6)).astype(np.float32)
        negative = rng.standard_normal((n, 6)).astype(np.float32)
        loss, da, dp, dn = triplet_loss_and_grad(anchor, positive, negative, margin=margin)
        assert loss >= 0.0
        for grad in (da, dp, dn):
            assert np.all(np.isfinite(grad))

    @given(st.floats(0.05, 2.0))
    @settings(max_examples=20)
    def test_triplet_loss_zero_for_identical_positive_and_separated_negative(self, margin):
        anchor = np.zeros((3, 4), dtype=np.float32)
        positive = np.zeros((3, 4), dtype=np.float32)
        negative = np.full((3, 4), 10.0, dtype=np.float32)
        loss, *_ = triplet_loss_and_grad(anchor, positive, negative, margin=margin)
        assert loss == 0.0


# ---------------------------------------------------------------- weak superv.


class TestWeakSupervisionProperties:
    @given(st.lists(st.sampled_from(["Sheet1", "Data", "Budget", "Report"]), min_size=1, max_size=30))
    def test_name_probabilities_sum_over_observed_names(self, names):
        from repro.sheet import Workbook

        workbooks = []
        for index, name in enumerate(names):
            workbook = Workbook(f"wb{index}")
            workbook.add_sheet(name)
            workbooks.append(workbook)
        stats = SheetNameStatistics.from_workbooks(workbooks)
        total = sum(stats.probability(name) for name in set(names))
        assert total == np.float64(1.0) or abs(total - 1.0) < 1e-9

    @given(
        st.lists(st.sampled_from(["Alpha", "Beta", "Gamma"]), min_size=1, max_size=6),
        st.integers(2, 40),
    )
    def test_sequence_probability_decreases_with_length(self, names, n_noise):
        from repro.sheet import Workbook

        workbooks = []
        for index in range(n_noise):
            workbook = Workbook(f"noise{index}")
            workbook.add_sheet(f"Unique {index}")
            workbooks.append(workbook)
        family = Workbook("family")
        for name in names:
            if name not in family:
                family.add_sheet(name)
        workbooks.append(family)
        stats = SheetNameStatistics.from_workbooks(workbooks)
        probability = 1.0
        for prefix_length in range(1, len(family.sheet_names) + 1):
            new_probability = stats.sequence_probability(family.sheet_names[:prefix_length])
            assert new_probability <= probability + 1e-12
            probability = new_probability
