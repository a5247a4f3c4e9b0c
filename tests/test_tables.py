"""Table and JSON writers: whole-table row templates against a cell-by-cell writer.

The reference functions below print one cell at a time, the way the writers
did before they built one %-template per table; the writers must give the
same bytes.  In JSON, a non-finite float is the string "inf", "-inf" or "nan".
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockfilter import tables


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


def reference_json_text(obj, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{inner}{reference_json_scalar(k)}: '
                           f'{reference_json_text(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join(reference_json_scalar(v) for v in obj) + "]"
        items = ",\n".join(f"{inner}{reference_json_text(v, indent + 1)}" for v in obj)
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


@settings(max_examples=300, deadline=None)
@given(table=mixed_tables(), as_lists=st.booleans())
def test_writers_equal_the_cell_by_cell_writer(table, as_lists):
    header, rows = table
    if as_lists:
        rows = [list(row) for row in rows]
    assert tables.table_text(header, rows) == reference_table_text(header, rows)
    doc = {"tables": {"t": {"header": header, "rows": rows}}, "flat": rows[0] if rows else []}
    assert tables.json_text(doc) == reference_json_text(doc)
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
])
def test_table_text_rejects_cells_it_cannot_print_alone(rows):
    with pytest.raises(TypeError):
        tables.table_text(["a", "b"], rows)


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
    assert tables.json_text(doc) == reference_json_text(doc)


def test_bool_cell_is_ambiguous():
    with pytest.raises(TypeError, match="bool"):
        tables.fmt_cell(True)
    with pytest.raises(TypeError, match="bool"):
        tables.table_text(["ok"], [(True,)])


def test_empty_table():
    assert tables.table_text(["n", "p"], []) == "n,p\n"
    assert tables.json_text({"header": ["n"], "rows": []}) \
        == '{\n  "header": [\n    "n"\n  ],\n  "rows": []\n}'


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
    assert repr(rows) == repr(reference_density_matrix_rows(rho))
    header = ["n", "m", "re", "im"]
    assert tables.table_text(header, rows) == reference_table_text(header, rows)


@pytest.mark.parametrize("text", ["a\tb/measured.csv", "\x00\x1f\x7f", "line\r\nbreak\x0c",
                                  'quote " and \\ and é'])
def test_json_strings_escape_control_characters(text):
    encoded = tables.json_text({text: [text]})
    assert json.loads(encoded) == {text: [text]}
    assert tables.json_text(text) == json.dumps(text, ensure_ascii=False)
    if not any(ord(c) < 0x20 for c in text):
        assert encoded == reference_json_text({text: [text]})


def test_read_csv_names_the_line_of_a_ragged_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n3\n")
    with pytest.raises(ValueError, match="line 4 has 1 cells, the header has 2"):
        tables.read_csv(path)
    path.write_text("a,b\n\n1,2\n")
    assert tables.read_csv(path) == (["a", "b"], [["1", "2"]])
