"""Deterministic plain-text serialization for results and manifests.

Every float is printed with 17 significant digits (%.17g), which round-trips
binary64 exactly, so identical configurations produce byte-identical files.
The structured format is JSON written by a small formatter here because the
stdlib encoder cannot be told how to print floats.

Tables are formatted a whole table at a time.  The exact types of each
column's cells give it one %-conversion (%d for int, %.17g for float, %s for
str; numpy integer and float scalars print as their .item() would), and the
joined conversions form one row template that `%` applies to every row in C.
CSV joins the conversions with "," and the JSON row arrays with ", ", so both
formats print each cell exactly as `fmt_cell` prints it on its own, and the
bytes are the same as those of a cell-by-cell writer.
"""

import os
from json.encoder import encode_basestring

import numpy as np

FLOAT = "%.17g"  # shortest fixed precision that round-trips any double exactly


def _conversion(kind):
    """The %-conversion that prints a cell of type `kind` as `fmt_cell` does."""
    if issubclass(kind, (bool, np.bool_)):
        raise TypeError("ambiguous bool in table cell")
    if issubclass(kind, (float, np.floating)):
        return FLOAT
    if kind is int or issubclass(kind, np.integer):
        return "%d"
    if issubclass(kind, (int, str)):
        return "%s"  # str(value), whatever a subclass makes of it
    raise TypeError(f"cannot format table cell of type {kind!r}")


def fmt_cell(value):
    """One table cell as text: %.17g for floats, str() for ints and strings."""
    return _conversion(type(value)) % (value,)


def _row_template(rows, sep, numbers_only=False):
    """One %-template, cells joined by `sep`, that prints every row of `rows`.

    Each column's conversion comes from the exact types of its cells.  None
    when the rows differ in length, when a column would need two conversions
    (an int cell in a float column), or, with `numbers_only`, when a cell is
    not a Python int or float.  A bool or unknown cell raises TypeError.
    """
    if len(set(map(len, rows))) > 1:
        return None
    conversions = []
    for column in zip(*rows):
        kinds = set(map(type, column))
        if numbers_only and not all(issubclass(k, (int, float)) and not issubclass(k, bool)
                                    for k in kinds):
            return None
        found = set(map(_conversion, kinds))
        if len(found) > 1:
            return None
        conversions += found
    return sep.join(conversions)


def table_text(header, rows):
    """Comma-separated table with newline-terminated rows.

    Rows must have equal lengths, and the cells of a column one kind: int,
    float or str.
    """
    template = _row_template(rows, ",")
    if template is None:
        raise TypeError("table rows differ in length or mix cell kinds within a column")
    return "\n".join([",".join(header), *map(template.__mod__, map(tuple, rows))]) + "\n"


def density_matrix_rows(rho):
    """Row-major (n, m, re, im) quadruples of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    dim_n, dim_m = rho.shape
    flat = rho.ravel()
    return list(zip(np.arange(dim_n).repeat(dim_m).tolist(), list(range(dim_m)) * dim_n,
                    flat.real.tolist(), flat.imag.tolist()))


def json_text(obj, indent=0):
    """Deterministic JSON: dict insertion order kept, floats via %.17g.

    A list of numbers is written on one line; a list of such lists (a
    table's rows) one row per line, through one row template.  A non-finite
    float is written as the string "inf", "-inf" or "nan".
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{inner}{_json_str(k)}: {json_text(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # %d and %.17g print the letter n only in "inf" and "nan", so one search
        # of the formatted text finds the rows that need quoted cells
        template = _row_template([obj], ", ", numbers_only=True)
        if template is not None:
            text = template % tuple(obj)
            if "n" in text:
                text = ", ".join(map(_json_scalar, obj))
            return "[" + text + "]"
        if set(map(type, obj)) <= {list, tuple}:
            template = _row_template(obj, ", ", numbers_only=True)
            if template is not None:
                text = ",\n".join(map(f"{inner}[{template}]".__mod__, map(tuple, obj)))
                if "n" not in text:
                    return "[\n" + text + "\n" + pad + "]"
        items = ",\n".join(f"{inner}{json_text(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    return _json_scalar(obj)


def _json_scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, float):
        # JSON has no literal for inf or nan: they are the strings "inf",
        # "-inf" and "nan", the text of the CSV cell, which float() reads back
        text = FLOAT % v
        return f'"{text}"' if "n" in text else text
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return _json_str(v)
    if hasattr(v, "item"):
        return _json_scalar(v.item())
    raise TypeError(f"cannot serialize {type(v)!r}")


def _json_str(s):
    """A JSON string literal escaped as json.dumps(s, ensure_ascii=False) escapes
    it: backslash, quote and every control character below U+0020."""
    return encode_basestring(s)


def write_text(path, text):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def read_csv(path):
    """(header, rows-of-strings) of a comma-separated table written here.

    Blank lines are skipped; a row whose cell count differs from the header's
    raises ValueError naming its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    table = [ln.split(",") for ln in lines if ln.strip()]
    if not table:
        raise ValueError(f"{path} is empty")
    header, rows = table[0], table[1:]
    if set(map(len, rows)) - {len(header)}:
        numbers = [k for k, ln in enumerate(lines, 1) if ln.strip()][1:]
        k, row = next((k, row) for k, row in zip(numbers, rows) if len(row) != len(header))
        raise ValueError(f"{path} line {k} has {len(row)} cells, the header has "
                         f"{len(header)}")
    return header, rows
