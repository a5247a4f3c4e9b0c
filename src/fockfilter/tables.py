"""Deterministic plain-text serialization for results and manifests.

Every float is printed with 17 significant digits (%.17g), which round-trips
binary64 exactly, so identical configurations produce byte-identical files.
The structured format is JSON written by a small formatter here because the
stdlib encoder cannot be told how to print floats.

Tables are formatted a whole table at a time.  The exact types of each
column's cells give it one %-conversion (%d for int, %.17g for float, %s for
str; numpy integer and float scalars print as their .item() would).  CSV
joins the cells of a row with "," and the JSON row arrays with ", ", so both
formats print each cell exactly as `fmt_cell` prints it on its own, and the
bytes are the same as those of a cell-by-cell writer.

`Columns` holds a table's rows as int64 and float64 numpy columns, and the
experiment runners hand every large table to the writers as one.  A
`Columns` of ARRAY_ROWS rows or more is printed from its columns by
`_arraytext`, because one %.17g costs ~1 µs (CPython's dtoa leaves its fast
path above 14 digits):

- A float64 cell gets its 17 digits from |x|·10^(16−e), e = floor(log10|x|),
  formed as a double-double within ~1e-14 of exact.  %.17g itself prints
  every cell whose scaled value lies within 1e-9 of a rounding midpoint
  (1e5 times that error bound), every non-finite cell and every |x| outside
  [1e-270, 1e270] other than ±0 (subnormals included).
- An int64 cell is printed from the same table of 4-digit chunks.
- Digits are formed once per distinct magnitude: for a density matrix that
  `density_matrix_rows` marks (|re| and |im| symmetric bit for bit), once
  per mirror pair; for an index column, once per value.

Every other table (a list of rows of any size, or a smaller `Columns`) goes
through one row template, the joined conversions, which `%` applies to every
row in C.  The output bytes are those of the row template; the tests compare
the array path with %.17g and %d cell by cell.
"""

import contextlib
import functools
import os
from collections.abc import Sequence
from json.encoder import encode_basestring

import numpy as np

FLOAT = "%.17g"  # shortest fixed precision that round-trips any double exactly
# Tables with at least this many rows are printed a column at a time.  The
# array path costs ~0.5 ms per table whatever its size, so below ~200-300
# rows (4 columns, 2 of them float; measured on a 2-vCPU VM) the row
# template is faster.
ARRAY_ROWS = 300


class Columns(Sequence):
    """A table's rows held as equal-length int64 and float64 numpy columns.

    Row i is the tuple of the columns' i-th values as Python ints and floats,
    so the writers print a Columns exactly as they print the list of its rows.
    `mirror`, None or (cells, slot), says that the float cells of rows
    `cells` hold every magnitude of the float columns and that row i's are
    those of row cells[slot[i]]; the array path then forms digits for those
    rows only.  It changes no printed byte.
    """

    def __init__(self, *columns, mirror=None):
        arrays = [np.asarray(c) for c in columns]
        if not arrays or len({a.shape for a in arrays}) > 1 or arrays[0].ndim != 1:
            raise ValueError("Columns needs one or more 1-D columns of one length")
        kinds = {a.dtype.kind for a in arrays}
        if not kinds <= {"i", "u", "f"}:
            raise TypeError(f"Columns holds int and float columns, got dtype kinds {kinds}")
        self.columns = [a.astype(np.float64 if a.dtype.kind == "f" else np.int64, copy=False)
                        for a in arrays]
        self.mirror = mirror

    def __len__(self):
        return len(self.columns[0])

    def __getitem__(self, i):
        return tuple(c[i].item() for c in self.columns)

    def __iter__(self):
        return zip(*(c.tolist() for c in self.columns))


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


def _table(rows, numbers_only=False):
    """[(conversion, column)] of `rows`: each column's cells and the one
    %-conversion that prints them, from the exact types of the cells.

    None when the rows differ in length, when a column would need two
    conversions (an int cell in a float column), or, with `numbers_only`, when
    a cell is not a Python int or float.  A bool or unknown cell raises
    TypeError.
    """
    if isinstance(rows, Columns):
        return [("%d" if c.dtype.kind == "i" else FLOAT, c) for c in rows.columns]
    if len(set(map(len, rows))) > 1:
        return None
    table = []
    for column in zip(*rows):
        kinds = set(map(type, column))
        if numbers_only and not all(issubclass(k, (int, float)) and not issubclass(k, bool)
                                    for k in kinds):
            return None
        found = set(map(_conversion, kinds))
        if len(found) > 1:
            return None
        table.append((found.pop(), column))
    return table


def table_text(header, rows):
    """Comma-separated table with newline-terminated rows.

    Rows must have equal lengths, and the cells of a column one kind: int,
    float or str.  `rows` is a sequence of rows or a `Columns`.
    """
    head = ",".join(header) + "\n"
    if isinstance(rows, Columns) and len(rows) >= ARRAY_ROWS:
        return head + _array_text(rows, "", ",", "\n")
    table = _table(rows)
    if table is None:
        raise TypeError("table rows differ in length or mix cell kinds within a column")
    template = ",".join(conversion for conversion, _ in table)
    return head + "".join(map(f"{template}\n".__mod__, map(tuple, rows)))


def density_matrix_rows(rho):
    """Row-major (n, m, re, im) rows of a density matrix, as `Columns`.

    A square matrix whose |re| and |im| are symmetric bit for bit, as every
    state this package returns is, and whose table takes the array path is
    marked with the mirror of its lower triangle, so the array path forms
    the digits of each mirror pair once.
    """
    rho = np.asarray(rho, dtype=complex)
    dim_n, dim_m = rho.shape
    flat = rho.ravel()
    mirror = None
    if dim_n == dim_m and dim_n * dim_m >= ARRAY_ROWS:
        re, im = np.abs(rho.real), np.abs(rho.imag)
        if np.array_equal(re, re.T) and np.array_equal(im, im.T):
            mirror = _lower_mirror(dim_n)
    return Columns(np.arange(dim_n).repeat(dim_m), np.tile(np.arange(dim_m), dim_n),
                   flat.real, flat.imag, mirror=mirror)


@functools.lru_cache(maxsize=1)
def _lower_mirror(dim):
    """(cells, slot) of a dim x dim matrix's row-major table: the rows of its
    lower triangle n >= m, and for each row (n, m) the position among them
    of (max(n, m), min(n, m)).  Read-only."""
    n, m = np.divmod(np.arange(dim * dim), dim)
    rows, cols = np.tril_indices(dim)
    high, low = np.maximum(n, m), np.minimum(n, m)
    out = rows * dim + cols, high * (high + 1) // 2 + low
    for a in out:
        a.setflags(write=False)
    return out


def json_text(obj, indent=0):
    """Deterministic JSON: dict insertion order kept, floats via %.17g.

    A list of numbers is written on one line; a list of such lists (a
    table's rows, or a `Columns`) one row per line, through one row template
    or, for a `Columns` of ARRAY_ROWS rows or more, the array path.  A
    non-finite float is written as the string "inf", "-inf" or "nan".
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{inner}{_json_str(k)}: {json_text(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, Columns)):
        if not obj:
            return "[]"
        if not isinstance(obj, Columns):
            table = _table([obj], numbers_only=True)
            if table is not None:
                text = ", ".join(conversion for conversion, _ in table) % tuple(obj)
                # %d and %.17g print the letter n only in "inf" and "nan"
                if "n" in text:
                    text = ", ".join(map(_json_scalar, obj))
                return "[" + text + "]"
        if isinstance(obj, Columns) or set(map(type, obj)) <= {list, tuple}:
            text = _json_rows(obj, inner)
            if text is not None:
                return "[\n" + text + "\n" + pad + "]"
        items = ",\n".join(f"{inner}{json_text(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    return _json_scalar(obj)


def _json_rows(rows, inner):
    """The rows of a table as JSON arrays, one per line; None when a row
    needs the cell-by-cell writer (a cell that is not a number or, outside
    the array path, a non-finite float)."""
    if isinstance(rows, Columns) and len(rows) >= ARRAY_ROWS:
        return _array_text(rows, inner + "[", ", ", "],\n", json=True)[:-2]
    table = _table(rows, numbers_only=True)
    if table is None:
        return None
    template = ", ".join(conversion for conversion, _ in table)
    text = ",\n".join(map(f"{inner}[{template}]".__mod__, map(tuple, rows)))
    return None if "n" in text else text


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


def _array_text(rows, head, sep, tail, json=False):
    """Each row of the `Columns` `rows` as head, its cells joined by sep, and
    tail, all rows concatenated, by the array path."""
    # imported on first use: without cached bytecode, compiling the array
    # path costs ~7 ms at every start, and small tables never need it
    from ._arraytext import array_text
    return array_text(rows.columns, head, sep, tail, json, rows.mirror)


def write_text(path, text):
    """Write `text` as UTF-8 to `path`, in place; returns path.

    `path` is a path, or a binary file from `open_in_place`, which is written
    from its start and closed.  The file is overwritten from its start and
    cut to the new length, never truncated to zero first: on ext4 an O_TRUNC
    open frees the old blocks and flushes the file again on close, which
    made the tables layer of a rerun that rewrites three small files cost
    0.99 ms instead of 0.30 ms (2-vCPU VM, ext4 mounted with discard).  The
    write is not atomic, and the old bytes stay until they are overwritten,
    so a crash part way can leave a file that mixes bytes of the old and the
    new run and may still parse.
    """
    if isinstance(path, (str, bytes, os.PathLike)):
        write_text(open_in_place([path])[0], text)
        return path
    with path:
        path.write(text.encode("utf-8"))
        path.truncate()
    return path.name


def open_in_place(paths):
    """Every one of `paths` opened for writing without truncating, all before
    any is written: a list of binary files, which the caller closes.

    A new file gets mode 0o666 & ~umask, as open(path, "w") gives it; the
    directory must exist.  When an open fails, the files opened so far are
    closed, the ones this call created are removed, and the error is raised:
    every file that existed is left untouched.
    """
    files, created = [], []
    try:
        for path in paths:
            try:
                files.append(open(path, "wb", opener=_open_existing))
            except FileNotFoundError:
                files.append(open(path, "wb", opener=_create))
                created.append(path)
    except BaseException:
        for fh in files:
            fh.close()
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return files


def _open_existing(path, flags):
    return os.open(path, flags & ~(os.O_TRUNC | os.O_CREAT))


def _create(path, flags):
    return os.open(path, (flags & ~os.O_TRUNC) | os.O_EXCL, 0o666)


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
