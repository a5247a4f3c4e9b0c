"""Table and JSON writers: whole-table row templates against a cell-by-cell writer.

The reference functions below print one cell at a time, the way the writers
did before they built one %-template per table; the writers must give the
same bytes.  Every table is a `Columns`; a JSON document may also hold lists
of any cells.  In JSON, a non-finite float is the string "inf", "-inf" or
"nan".
"""

import errno
import gc
import io
import json
import math
import os
import stat
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockfilter import _arraytext, fock, tables, tomography


def assert_same_text(text, reference):
    """str(text) == reference, naming the first line that differs: pytest's
    own diff of two texts of thousands of lines takes minutes."""
    text = str(text)
    if text != reference:
        lines, expected = text.split("\n"), reference.split("\n")
        k = next((k for k, pair in enumerate(zip(lines, expected)) if pair[0] != pair[1]),
                 min(len(lines), len(expected)))
        pytest.fail(f"line {k} of {len(expected)} differs: {lines[k:k + 1]} != "
                    f"{expected[k:k + 1]}")


def reference_cell(value):
    if isinstance(value, bool):
        raise TypeError("ambiguous bool in table cell")
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (int, str)):
        return str(value)
    if hasattr(value, "item"):
        return reference_cell(value.item())
    raise TypeError(f"cannot format table cell of type {type(value)!r}")


def reference_table_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(reference_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_json_text(obj):
    """The document of obj: its JSON value and a newline."""
    return reference_json_value(obj) + "\n"


def reference_json_value(obj, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{inner}{reference_json_scalar(k)}: '
                           f'{reference_json_value(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join(reference_json_scalar(v) for v in obj) + "]"
        items = ",\n".join(f"{inner}{reference_json_value(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    return reference_json_scalar(obj)


def reference_json_scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, float):
        # JSON has no literal for a non-finite float: it is written as a string
        return "%.17g" % v if math.isfinite(v) else '"%.17g"' % v
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        out = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if hasattr(v, "item"):
        return reference_json_scalar(v.item())
    raise TypeError(f"cannot serialize {type(v)!r}")


def reference_density_matrix_rows(rho):
    rows = []
    for n in range(rho.shape[0]):
        for m in range(rho.shape[1]):
            v = complex(rho[n, m])
            rows.append((n, m, v.real, v.imag))
    return rows


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
               0.1, 1e16, 1e17, 123456789.0]
EDGE_INTS = [0, -1, 10 ** 16, 10 ** 17, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, -2 ** 63]

CELLS = {
    "int": st.one_of(st.sampled_from(EDGE_INTS), st.integers(-2 ** 63, 2 ** 63),
                     st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)),
    "float": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(),
                       st.floats().map(np.float64)),
    # strings are compared with the old writer, which did not escape control
    # characters; those are covered by test_json_strings_escape_control_characters
    "str": st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8),
}


@st.composite
def mixed_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    rows = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=12))
    header = [f"c{k}" for k in range(len(kinds))]
    return header, rows


# the cells of a Columns' int64, float64 and float32 columns
COLUMN_CELLS = {
    "int": (st.one_of(st.sampled_from([v for v in EDGE_INTS if v < 2 ** 63]),
                      st.integers(-2 ** 63, 2 ** 63 - 1)), np.int64),
    "float": (st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()), np.float64),
    "float32": (st.floats(width=32), np.float32),
}


@st.composite
def columns_tables(draw, sizes):
    """(header, columns, rows): up to 8 drawn cells per column, repeated to a
    size drawn from `sizes`, and the rows of Python ints and floats they hold."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS)), min_size=1, max_size=5))
    size, drawn = draw(sizes), draw(st.integers(1, 8))
    columns = [np.resize(np.array(draw(st.lists(COLUMN_CELLS[k][0], min_size=drawn,
                                                 max_size=drawn)), COLUMN_CELLS[k][1]), size)
               for k in kinds]
    rows = list(zip(*(c.tolist() for c in columns)))
    return [f"c{k}" for k in range(len(kinds))], tables.Columns(*columns), rows


def assert_tables_print_as_cell_by_cell(header, columns, rows):
    assert_same_text(tables.table_text(header, columns), reference_table_text(header, rows))
    doc = {"tables": {"t": {"header": header, "rows": columns}}}
    assert_same_text(tables.json_text(doc),
                     reference_json_text({"tables": {"t": {"header": header, "rows": rows}}}))


@settings(max_examples=300, deadline=None)
@given(table=columns_tables(st.integers(0, 12)), cells=mixed_tables(), as_lists=st.booleans())
def test_writers_equal_the_cell_by_cell_writer(table, cells, as_lists):
    assert_tables_print_as_cell_by_cell(*table)
    # a document's own lists, of any cells, are written cell by cell
    header, rows = cells
    if as_lists:
        rows = [list(row) for row in rows]
    doc = {"tables": {"t": {"header": header, "rows": rows}}, "flat": rows[0] if rows else []}
    assert_same_text(tables.json_text(doc), reference_json_text(doc))
    for row in rows:
        for cell in row:
            assert tables.fmt_cell(cell) == reference_cell(cell)


@pytest.mark.parametrize("rows", [
    [(1, True)],
    [(1, np.bool_(False))],
    [(1, 2.5 + 1j)],
    [(1, None)],
    [(1, 2.5), (2, 3)],     # an int cell in a float column
    [(1, 2.5), (2,)],       # rows of different lengths
    [(1, 2.5)],             # rows of cells a Columns could hold
    [],
    ((1, 2.5),),
    np.ones((2, 2)),
    None,
])
def test_table_text_rejects_cells_it_cannot_print_alone(rows):
    # a table is a Columns; anything else is refused at the call, before any
    # text is formed
    with pytest.raises(TypeError, match="Columns"):
        tables.table_text(["a", "b"], rows)


@pytest.mark.parametrize("column", [[True], np.array([False]), [2.5 + 1j], [None], ["x"]])
def test_columns_hold_only_signed_int_and_float_columns(column):
    with pytest.raises(TypeError):
        tables.Columns(np.arange(len(column)), column)


def test_columns_are_one_or_more_1d_columns_of_one_length():
    for columns in [(), (np.arange(2), np.arange(3)), (np.ones((2, 2)),)]:
        with pytest.raises(ValueError):
            tables.Columns(*columns)


def test_unsigned_columns_are_refused_not_wrapped():
    # as int64, 2^63 would print as -9223372036854775808
    for column in [np.array([2 ** 63], np.uint64), [2 ** 63], np.array([1], np.uint8)]:
        with pytest.raises(TypeError, match="signed int"):
            tables.Columns(column)
    top = tables.Columns(np.array([2 ** 63 - 1]))
    assert str(tables.table_text(["n"], top)) == "n\n9223372036854775807\n"


@pytest.mark.parametrize("rows", [
    [(1, True)],
    [(1, None)],
    [(1, 2.5), (2, 3)],
    [(1, 2.5), (2,)],
    [(np.int64(1), 2.5)],
    [(1, "x")],
])
def test_json_rows_one_template_cannot_print_are_written_cell_by_cell(rows):
    doc = {"rows": rows}
    assert_same_text(tables.json_text(doc), reference_json_text(doc))


def test_bool_cell_is_ambiguous():
    with pytest.raises(TypeError, match="bool"):
        tables.fmt_cell(True)


def test_empty_table():
    empty = tables.Columns(np.arange(0), np.zeros(0))
    assert_same_text(tables.table_text(["n", "p"], empty), "n,p\n")
    for rows in ([], empty):
        assert str(tables.json_text({"header": ["n"], "rows": rows})) \
            == '{\n  "header": [\n    "n"\n  ],\n  "rows": []\n}\n'


@pytest.mark.parametrize("make", [
    lambda g: g.normal(size=(7, 5)) + 1j * g.normal(size=(7, 5)),
    lambda g: g.normal(size=(6, 6)),
    lambda g: -np.abs(g.normal(size=(4, 4))) * 0.0,                  # all -0.0
    lambda g: (g.normal(size=(9, 8)) + 1j * g.normal(size=(9, 8)))[::2, 1::3],
    lambda g: np.asfortranarray(g.normal(size=(5, 5)) + 1j * g.normal(size=(5, 5))),
    lambda g: (g.normal(size=(5, 5)) + 1j * g.normal(size=(5, 5))).astype(np.complex64).T,
    lambda g: g.integers(-3, 3, size=(3, 4)),
])
def test_density_matrix_rows_equal_the_double_loop(make):
    rho = make(np.random.default_rng(3))
    rows = tables.density_matrix_rows(rho)
    assert repr(list(rows)) == repr(reference_density_matrix_rows(rho))
    header = ["n", "m", "re", "im"]
    assert_same_text(tables.table_text(header, rows), reference_table_text(header, rows))


@pytest.mark.parametrize("text", ["a\tb/measured.csv", "\x00\x1f\x7f", "line\r\nbreak\x0c",
                                  'quote " and \\ and é'])
def test_json_strings_escape_control_characters(text):
    encoded = str(tables.json_text({text: [text]}))
    assert json.loads(encoded) == {text: [text]}
    assert_same_text(tables.json_text(text), json.dumps(text, ensure_ascii=False) + "\n")
    if not any(ord(c) < 0x20 for c in text):
        assert encoded == reference_json_text({text: [text]})


def test_read_csv_names_the_line_of_a_ragged_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n3\n")
    with pytest.raises(ValueError, match="line 4 has 1 cells, the header has 2"):
        tables.read_csv(path)
    path.write_text("a,b\n\n1,2\n")
    assert tables.read_csv(path) == (["a", "b"], [["1", "2"]])


# ---------------------------------------------------------------------------
# write_text rewrites a file from open_in_place in place and cuts it to the
# new length

def write_file(path, text):
    """Write the `Text` text to path as the CLI writes an output file."""
    [fh] = tables.open_in_place([str(path)])
    return tables.write_text(fh, text)


@pytest.mark.parametrize("old,new", [
    ([0.25, 0.75], [1.0]),
    ([1.0], [0.25, math.inf, -0.0]),
])
def test_write_text_rewrite_leaves_exactly_the_new_bytes(tmp_path, old, new):
    path = tmp_path / "t.csv"
    for values in (old, new):
        text = tables.table_text(["n", "µ"], tables.Columns(np.arange(len(values)), values))
        assert write_file(path, text) == str(path)
        assert path.read_bytes() == str(text).encode("utf-8")


def test_write_text_new_file_mode_follows_the_umask(tmp_path):
    previous = os.umask(0o027)
    try:
        write_file(tmp_path / "t.csv", tables.json_text([0.5]))
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(tmp_path / "t.csv").st_mode) == 0o666 & ~0o027


def test_opening_a_directory_in_place_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        tables.open_in_place([str(tmp_path)])


def test_write_text_closes_the_file_when_the_write_fails(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\n")
    unraised = []
    monkeypatch.setattr(sys, "unraisablehook", unraised.append)
    with warnings.catch_warnings():
        # an unclosed file warns when collected; as an error it reaches the hook
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(UnicodeEncodeError):
            write_file(path, tables.json_text(["lone surrogate \ud800"]))
        gc.collect()
    assert unraised == []
    assert path.read_bytes() == b"old\n"


# ---------------------------------------------------------------------------
# the array path: tables of ARRAY_ROWS rows or more are printed from numpy
# columns, and every cell must still be what %.17g or %d prints

def array_printed(values):
    """Each value of a float64 or int64 array as the array path prints it."""
    values = np.asarray(values)
    rows = np.resize(values, max(len(values), tables.ARRAY_ROWS))
    text = str(tables.table_text(["x"], tables.Columns(rows)))
    return text.split("\n")[1:len(values) + 1]


def reference_printed(values, conversion="%.17g"):
    return [conversion % v for v in np.asarray(values).tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=60))
def test_array_path_prints_every_float_as_percent_17g(values):
    assert array_printed(np.array(values)) == reference_printed(values)


def test_array_path_on_random_bit_patterns():
    bits = np.random.default_rng(2024).integers(0, 2 ** 64, size=120_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert array_printed(values) == reference_printed(values)


def test_array_path_next_to_powers_of_ten():
    # log10 is one off next to a power of ten, and 17 nines round up to 10^k
    p = 10.0 ** np.arange(-307, 309)
    values = np.concatenate([p, -p] + [np.nextafter(p, q) for q in (0.0, np.inf)]
                            + [p * (1 - k * 2.0 ** -53) for k in range(2, 6)]
                            + [p * (1 + k * 2.0 ** -52) for k in range(2, 6)])
    assert array_printed(values) == reference_printed(values)


def test_array_path_rounds_seventeen_nines_up_to_a_power_of_ten():
    # float(10^k) lies below 10^k for these k, and its 17 digits are nines
    # that round up: %.17g prints "1e+k"
    below = [float(10 ** k) for k in range(23, 300) if int(float(10 ** k)) < 10 ** k]
    rounded_up = [v for v in below if "%.17g" % v == "1e+%d" % round(math.log10(v))]
    assert len(rounded_up) >= 3
    values = np.array(rounded_up + [-v for v in rounded_up])
    assert array_printed(values) == reference_printed(values)


def test_array_path_on_exact_decimal_ties():
    # (k + 1/2) 2^j with 53-bit k, and odd multiples of 2^-j, have 18
    # significant digits ending in 5 when they fall in the right binade:
    # %.17g rounds those halves to even, and the array path leaves them to it
    g = np.random.default_rng(5)
    k = g.integers(2 ** 50, 2 ** 52, size=20_000).astype(np.float64)
    j = g.integers(-12, 4, size=20_000)
    odd = np.arange(1, 2000, 2, dtype=np.float64)
    values = np.concatenate([(k + 0.5) * 2.0 ** j] + [odd * 2.0 ** -j for j in range(20, 80)])
    digits = np.array([len(("%.25e" % v).split("e")[0].rstrip("0")) - 1 for v in values])
    ties = values[(digits == 18) & np.array([("%.25e" % v)[18] == "5" for v in values])]
    assert len(ties) > 3000
    assert _arraytext._decimal(ties)[2].all()
    values = np.concatenate([values, -values, [0.5, 2.5, 1e16 + 2, 1e17 - 16, 2.0 ** 56]])
    assert array_printed(values) == reference_printed(values)


def test_array_path_on_edge_floats():
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-270, 1e270,
                       9.99e-271, 1.01e270, 1.7976931348623157e308, np.inf, -np.inf, np.nan,
                       1e16, 1e17, 99999999999999999.0, 0.0001, 0.00009999999999999999,
                       123456789.0, 1e-5, 0.1, 1.0, 10.0, 100.0, 2.0 ** 53])
    assert array_printed(values) == reference_printed(values)


def test_array_path_prints_int64_as_percent_d():
    g = np.random.default_rng(8)
    values = np.concatenate([g.integers(-2 ** 63, 2 ** 63 - 1, size=5000, endpoint=True),
                             10 ** np.arange(19), -10 ** np.arange(19), 10 ** np.arange(19) - 1,
                             [0, -1, 2 ** 63 - 1, -2 ** 63]]).astype(np.int64)
    assert array_printed(values) == reference_printed(values, "%d")
    small = np.arange(-3, 1000)
    assert array_printed(small) == reference_printed(small, "%d")


def text_calls(monkeypatch):
    """The cells of each `_arraytext._text_slots` call, which prints every
    int cell of the array path with %d."""
    calls, form = [], _arraytext._text_slots

    def counted(cells, width):
        calls.append(list(cells))
        return form(cells, width)

    monkeypatch.setattr(_arraytext, "_text_slots", counted)
    return calls


def assert_ints_print_as_cell_by_cell(*columns):
    rows = list(zip(*(c.tolist() for c in columns)))
    header = [f"c{k}" for k in range(len(columns))]
    assert_tables_print_as_cell_by_cell(header, tables.Columns(*columns), rows)


@pytest.mark.parametrize("n", [tables.ARRAY_ROWS, tables.ARRAY_ROWS + 1, 401,
                               _arraytext.BLOCK_CELLS + 1])
def test_an_arange_column_prints_each_value_once(monkeypatch, n):
    # hi - lo = n - 1: the n of a profile table, and the same values in
    # descending order, each printed once in CSV and once in JSON, in
    # ascending order, then gathered
    calls = text_calls(monkeypatch)
    assert_ints_print_as_cell_by_cell(np.arange(n), np.arange(n)[::-1].copy(), np.arange(n) * 0.5)
    assert calls == [list(range(n))] * 4


@pytest.mark.parametrize("lo, rows, span", [(-1, tables.ARRAY_ROWS, tables.ARRAY_ROWS),
                                            (-250, tables.ARRAY_ROWS + 5, 300),
                                            (-2 ** 63, tables.ARRAY_ROWS + 1, 7)])
def test_an_int_span_that_starts_below_zero_prints_each_value_once(monkeypatch, lo, rows, span):
    # the values lo..lo + span - 1, each at least once, in a seeded order
    column = lo + np.random.default_rng(3).permutation(np.resize(np.arange(span), rows))
    calls = text_calls(monkeypatch)
    assert_ints_print_as_cell_by_cell(column, column[::-1].copy())
    assert calls == [list(range(lo, lo + span))] * 4


@pytest.mark.parametrize("n", [_arraytext.BLOCK_CELLS + 1, 2 * _arraytext.BLOCK_CELLS + 3])
def test_a_wide_int_column_prints_block_by_block_across_a_boundary(monkeypatch, n):
    # values spread over +-1e15 and the int64 edges span more numbers than
    # there are rows: each block prints its own cells, and in JSON the last
    # row, alone in its block or not, ends in "]"
    g = np.random.default_rng(11)
    wide = g.integers(-10 ** 15, 10 ** 15, size=n)
    wide[[0, n // 2, -2]] = [-2 ** 63, 2 ** 63 - 1, 0]
    calls = text_calls(monkeypatch)
    assert_ints_print_as_cell_by_cell(np.arange(n), wide)
    blocks = [wide[start:start + _arraytext.BLOCK_CELLS].tolist()
              for start in range(0, n, _arraytext.BLOCK_CELLS)]
    assert calls == 2 * ([list(range(n))] + blocks)


@settings(max_examples=60, deadline=None)
@given(table=columns_tables(st.integers(tables.ARRAY_ROWS, tables.ARRAY_ROWS + 3)))
def test_large_tables_equal_the_cell_by_cell_writer(table):
    assert_tables_print_as_cell_by_cell(*table)


@pytest.mark.parametrize("make", [
    lambda n: [(1, True)] * n,
    lambda n: [(1, np.bool_(False))] * n,
    lambda n: [(1, 2.5 + 1j)] * n,
    lambda n: [(1, None)] * n,
    lambda n: [(1, 2.5)] * (n - 1) + [(2, 3)],  # an int cell in a float column
    lambda n: [(1, 2.5)] * (n - 1) + [(2,)],    # rows of different lengths
])
@pytest.mark.parametrize("n", [2, tables.ARRAY_ROWS - 1, tables.ARRAY_ROWS,
                               tables.ARRAY_ROWS + 1])
def test_cells_the_writers_cannot_print_raise_on_both_sides_of_the_threshold(make, n):
    rows = make(n)
    with pytest.raises(TypeError, match="Columns"):
        tables.table_text(["a", "b"], rows)
    # JSON writes a document's lists cell by cell at any length, and raises
    # where the reference does
    doc = {"rows": rows}
    try:
        expected = reference_json_text(doc)
    except TypeError:
        with pytest.raises(TypeError):
            str(tables.json_text(doc))
    else:
        assert_same_text(tables.json_text(doc), expected)


def test_large_tables_of_columns_and_of_rows_print_alike():
    g = np.random.default_rng(4)
    n = 3 * tables.ARRAY_ROWS + 7
    re = g.normal(size=n) * 10.0 ** g.integers(-30, 30, size=n)
    re[::13] = -0.0
    re[::17] = np.inf
    re[::19] = np.nan
    columns = tables.Columns(np.arange(n) - 5, re, g.random(n))
    rows = list(columns)
    assert len(columns) == len(rows) == n
    assert isinstance(rows[0][0], int) and isinstance(rows[0][1], float)
    header = ["n", "re", "p"]
    assert_same_text(tables.table_text(header, columns), reference_table_text(header, rows))
    doc = {"t": {"header": header, "rows": columns}}
    assert_same_text(tables.json_text(doc),
                     reference_json_text({"t": {"header": header, "rows": rows}}))


# ---------------------------------------------------------------------------
# a density matrix whose |re| and |im| are symmetric is printed from one
# triangle of digits; every cell must still print as %.17g prints it

# 18 digits ending in 5: %.17g rounds these halves to even, and the array
# path leaves them to it
TIES = [(2 ** 51 + 12345 + 0.5) * 2.0 ** -60, (2 ** 50 + 7 + 0.5) * 2.0 ** -3]
MIRROR_EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-270, 9.99e-271, 1e-5,
                0.0001, 0.00009999999999999999, 0.5, 1e16, 1e17, 1e300, math.inf] + TIES


@st.composite
def symmetric_magnitudes(draw):
    """A square complex matrix whose |re| and |im| are symmetric bit for bit,
    every cell with a sign of its own, from edge values and random ones."""
    dim = draw(st.integers(1, 40))
    palette = draw(st.lists(st.one_of(st.sampled_from(MIRROR_EDGES),
                                      st.floats(0.0, allow_infinity=False)), min_size=1,
                            max_size=6))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rho = np.empty((dim, dim), dtype=complex)
    for part in (rho.real, rho.imag):  # not re + 1j * im, which turns inf into nan
        a = g.normal(size=(dim, dim)) * 10.0 ** g.integers(-20, 3, size=(dim, dim))
        picked = g.random((dim, dim)) < 0.3
        a[picked] = g.choice(palette, size=picked.sum())
        a = np.abs(np.tril(a) + np.tril(a, -1).T)
        part[...] = np.where(g.random((dim, dim)) < 0.5, -a, a)
    return rho


@settings(max_examples=60, deadline=None)
@given(rho=symmetric_magnitudes(), nudge=st.booleans())
def test_density_matrices_print_from_one_triangle_as_cell_by_cell(rho, nudge):
    if nudge:  # one mirrored cell an ulp off: the table is printed unmarked
        n = rho.shape[0]
        x = rho[n - 1, 0]
        rho[n - 1, 0] = complex(np.nextafter(x.real, -x.real if x.real else 1.0), x.imag)
    rows = tables.density_matrix_rows(rho)
    marked = rho.size >= tables.ARRAY_ROWS and not (nudge and rho.shape[0] > 1)
    assert (rows.mirror is not None) == marked
    header, reference = ["n", "m", "re", "im"], reference_density_matrix_rows(rho)
    assert_same_text(tables.table_text(header, rows), reference_table_text(header, reference))
    assert_same_text(tables.json_text({"rows": rows}), reference_json_text({"rows": reference}))


def test_non_finite_cells_of_a_mirrored_matrix_print_from_their_own_value():
    rho = np.full((20, 20), 0.25 - 0.5j)
    rho[3, 7], rho[7, 3] = complex(-np.inf, 1e-300), complex(np.inf, -1e-300)
    rho[5, 5] = complex(-0.0, 5e-324)
    rows = tables.density_matrix_rows(rho)
    assert rows.mirror is not None
    header, reference = ["n", "m", "re", "im"], reference_density_matrix_rows(rho)
    assert_same_text(tables.table_text(header, rows), reference_table_text(header, reference))
    assert_same_text(tables.json_text({"rows": rows}), reference_json_text({"rows": reference}))
    # NaN equals no mirror cell, so its table is printed unmarked
    rho[2, 9] = rho[9, 2] = complex(np.nan, 0.0)
    rows = tables.density_matrix_rows(rho)
    assert rows.mirror is None
    reference = reference_density_matrix_rows(rho)
    assert_same_text(tables.json_text({"rows": rows}), reference_json_text({"rows": reference}))


# ---------------------------------------------------------------------------
# float columns of runs: digits formed once per run, in the first block's
# digit call, and every cell still what %.17g prints

RUN_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, math.inf,
             -math.inf, math.nan, 0.1, -0.1, 1e16, 1e17, 2 * math.pi * 3 / 46] + TIES


def run_column(g, n, palette, mean_run):
    """n cells of runs of mean length ~mean_run, each run one palette value
    whose cells take random signs."""
    lengths = g.integers(1, 2 * mean_run, size=n)
    values = g.choice(np.array(palette), size=n)
    column = np.repeat(values, lengths)[:n]
    return np.where(g.random(n) < 0.3, -column, column)


def assert_printed_as_cell_by_cell(columns, int_columns=()):
    rows = tables.Columns(*int_columns, *columns)
    header = [f"c{k}" for k in range(len(int_columns) + len(columns))]
    reference = list(zip(*(c.tolist() for c in (*int_columns, *columns))))
    assert_same_text(tables.table_text(header, rows), reference_table_text(header, reference))
    assert_same_text(tables.json_text({"rows": rows}), reference_json_text({"rows": reference}))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(tables.ARRAY_ROWS, 6000),
       mean_runs=st.lists(st.integers(1, 60), min_size=1, max_size=2),
       spread=st.integers(0, 2), with_int=st.booleans(),
       palette=st.lists(st.one_of(st.sampled_from(RUN_EDGES), st.floats()), min_size=1,
                        max_size=6))
def test_float_runs_print_as_cell_by_cell(seed, n, mean_runs, spread, with_int, palette):
    # runs that cross block boundaries (BLOCK_CELLS rows with one spread
    # column), in any column order next to columns whose digits are formed
    # block by block
    g = np.random.default_rng(seed)
    columns = [run_column(g, n, palette, mean_run) for mean_run in mean_runs]
    columns += [g.normal(size=n) * 10.0 ** g.integers(-20, 20, size=n) for _ in range(spread)]
    columns = [columns[k] for k in g.permutation(len(columns))]
    ints = [np.arange(n) % 17] if with_int else []
    assert_printed_as_cell_by_cell(columns, ints)


def test_a_run_column_is_formed_once_per_run():
    n = 5000
    phi = np.repeat(np.linspace(0.0, 6.0, 100), 50)
    assert _arraytext._runs(np.abs(phi))[1].tolist() == list(range(0, n, 50))
    # a column of distinct values is formed block by block
    assert _arraytext._runs(np.arange(n) * 0.5) is None
    spread = np.random.default_rng(3).random(n)
    assert_printed_as_cell_by_cell([spread, phi, spread, phi[::-1]])


@pytest.mark.parametrize("edge", [
    [0.0, -0.0],             # equal, but printed with different signs
    [math.nan],              # equal to nothing: a run of its own, cell by cell
    [math.inf, -math.inf],   # one magnitude, left to %.17g
    [5e-324, -5e-324],       # subnormals
    TIES[:1],                # a rounding midpoint, left to %.17g
])
def test_edge_cells_inside_runs_print_from_their_own_value(edge):
    n = 3 * _arraytext.BLOCK_CELLS + 5
    phi = np.repeat(np.linspace(0.5, 3.0, n // 40 + 1), 40)[:n]
    at = np.arange(_arraytext.BLOCK_CELLS - 30, _arraytext.BLOCK_CELLS + 30)  # a boundary
    phi[at] = np.resize(np.array(edge), len(at))
    phi[7:9] = edge[-1]
    assert _arraytext._runs(np.abs(phi)) is not None
    assert_printed_as_cell_by_cell([phi, np.linspace(-1.0, 1.0, n)], [np.arange(n)])


def state_rows(cutoff):
    """The table of a coherent state as the CLI writes a state."""
    rho = fock.make_state(fock.StateSpec.coherent(3.0 + 1.0j), cutoff=cutoff, tail=None)
    return tables.density_matrix_rows(rho)


def measured_rows(max_fock):
    """The phi,n,p table of an exact tomography run as the CLI builds it, at
    the CLI's default n_phases and n_rows."""
    plan = tomography.TomographyPlan(gamma_abs=1.0, n_phases=2 * max_fock + 6,
                                     max_fock=max_fock, n_rows=2 * max_fock + 2)
    truth = fock.make_state(fock.StateSpec.coherent(1.0), cutoff=max_fock, tail=None)
    P = tomography.measure_distributions(truth, plan)
    return tables.Columns(np.repeat(plan.phases, plan.n_rows),
                          np.tile(np.arange(plan.n_rows), plan.n_phases), P.ravel())


@pytest.mark.parametrize("make,size,rows,cells,blocks", [
    # every float cell shares its digits: the triangle's 2 x 7381 cells in
    # the first block's call, then blocks of BLOCK_CELLS rows
    (state_rows, 120, 121 * 121, [2048] * 7 + [426], 8),
    # the 1932 cells of p and the 46 phases in one call, one block
    (measured_rows, 20, 46 * 42, [1978], 1),
    # 2048 cells of p and the 86 phases, then blocks of 2048 cells of p
    (measured_rows, 40, 86 * 82, [2048, 86, 2048, 2048, 908], 4),
])
def test_digit_calls_and_blocks_of_the_cli_tables(monkeypatch, make, size, rows, cells, blocks):
    table = make(size)
    header = [f"c{k}" for k in range(len(table.columns))]
    assert len(table) == rows
    calls, form = [], _arraytext._float_slots

    def counted(a, lanes):
        calls.append(len(a))
        return form(a, lanes)

    monkeypatch.setattr(_arraytext, "_float_slots", counted)
    handed = []
    tables.table_text(header, table).write(handed.append)
    assert calls == cells
    assert len(handed) == 1 + blocks  # the header, then the blocks of rows
    assert_same_text(b"".join(handed).decode(), reference_table_text(header, table))


# ---------------------------------------------------------------------------
# writing is a stream: each block goes to the file as it is formed, and a
# failure part way leaves the file a prefix of the new text

def spread_columns(n=3 * _arraytext.BLOCK_CELLS + 5):
    """An index column and a float column of distinct values: 4 blocks of
    BLOCK_CELLS rows, each forming its digits in a call of its own."""
    g = np.random.default_rng(6)
    return tables.Columns(np.arange(n), g.normal(size=n) * 10.0 ** g.integers(-20, 20, size=n))


def test_texts_are_handed_over_a_block_at_a_time():
    rows = spread_columns()
    reference = list(rows)
    text = tables.table_text(["n", "x"], rows)
    blocks = []
    text.write(blocks.append)
    assert len(blocks) == 1 + 4  # the header, then the blocks of rows
    assert len(text) == sum(map(len, blocks))
    assert_same_text(b"".join(blocks).decode(), reference_table_text(["n", "x"], reference))
    text = tables.json_text({"a": rows, "b": {"rows": rows}, "c": [0.5]})
    blocks = []
    text.write(blocks.append)
    # the pieces before each table, its blocks, the pieces after with the
    # closing newline
    assert len(blocks) == 1 + 4 + 1 + 4 + 1
    assert len(text) == sum(map(len, blocks))
    assert_same_text(b"".join(blocks).decode(), reference_json_text(
        {"a": reference, "b": {"rows": reference}, "c": [0.5]}))
    # below ARRAY_ROWS the row template hands the rows over as one block
    small = tables.Columns(np.arange(3), [0.5, math.inf, -0.0])
    reference = list(small)
    text = tables.table_text(["n", "x"], small)
    blocks = []
    text.write(blocks.append)
    assert blocks == [b"n,x\n", b"0,0.5\n1,inf\n2,-0\n"]
    text = tables.json_text({"a": small})
    blocks = []
    text.write(blocks.append)
    assert blocks == [b'{\n  "a": [\n', b'    [0, 0.5],\n    [1, "inf"],\n    [2, -0]',
                      b"\n  ]\n}\n"]
    assert_same_text(b"".join(blocks).decode(), reference_json_text({"a": reference}))


def test_len_of_a_text_counts_its_utf8_bytes():
    text = tables.json_text({"é": [1, 2.5]})
    assert len(text) == len(str(text).encode()) == len(str(text)) + 1


def test_a_text_that_fails_before_its_first_byte_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\n")
    rows = spread_columns()
    # a header that cannot be encoded, and a document whose first piece
    # cannot be serialized
    with pytest.raises(UnicodeEncodeError):
        write_file(path, tables.table_text(["n", "lone \ud800"], rows))
    assert path.read_bytes() == b"old\n"
    with pytest.raises(TypeError):
        write_file(path, tables.json_text({"when": object(), "rows": rows}))
    assert path.read_bytes() == b"old\n"


def older_and_longer(path, text):
    """Leave at path the bytes of `text` and a tail an older run left; returns
    the bytes of text."""
    full = str(text).encode()
    path.write_bytes(full + b"the longer tail of an older run\n")
    return full


def test_a_failure_in_the_second_block_cuts_the_file_after_the_first(tmp_path, monkeypatch):
    header, rows = ["n", "x"], spread_columns()
    path = tmp_path / "t.csv"
    full = older_and_longer(path, tables.table_text(header, rows))
    calls, form = [], _arraytext._float_slots

    def second_block_fails(a, lanes):
        calls.append(len(a))
        if len(calls) == 2:
            raise RuntimeError("formatting failed")
        return form(a, lanes)

    monkeypatch.setattr(_arraytext, "_float_slots", second_block_fails)
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_file(path, tables.table_text(header, rows))
    left = path.read_bytes()
    assert len(left) < len(full) and full.startswith(left)
    assert left.count(b"\n") == 1 + _arraytext.BLOCK_CELLS


class FullDisk(io.FileIO):
    """A file on a disk with room for `room` bytes: a write past them is cut
    short, and the next one fails as a full disk fails."""

    room = 10_000

    def write(self, data):
        room = self.room - self.tell()
        if room <= 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(memoryview(data)[:room])


def test_a_failed_write_cuts_the_file_at_the_bytes_that_reached_it(tmp_path):
    header, rows = ["n", "x"], spread_columns()
    path = tmp_path / "t.csv"
    full = older_and_longer(path, tables.table_text(header, rows))
    fh = io.BufferedWriter(FullDisk(path, "r+"))
    with pytest.raises(OSError) as failed:
        tables.write_text(fh, tables.table_text(header, rows))
    assert failed.value.errno == errno.ENOSPC
    assert fh.closed
    assert path.read_bytes() == full[:FullDisk.room]
