"""Deterministic plain-text serialization for results and manifests.

Every float is printed with 17 significant digits (%.17g), which round-trips
binary64 exactly, so identical configurations produce byte-identical files.
The structured format is JSON written by a small formatter here because the
stdlib encoder cannot be told how to print floats.

`table_text` and `json_text` return a `Text`, which forms its bytes as it is
written: each block goes to the file (or to any sink) as soon as it is
formed, so writing holds one block of text, plus the digit slots its blocks
share (for a mirrored density matrix, those of its triangle), and never a
whole file.  `write_text` writes a `Text` into a file from `open_in_place`,
and str() of a `Text` runs the same writer into a buffer.

Every table is a `Columns`, its rows held as int64 and float64 numpy
columns: an int cell prints with %d and a float cell with %.17g, exactly as
`fmt_cell` prints it on its own.  One row writer prints a table's rows in
both formats: a CSV row is its cells joined with "," and a newline, a JSON
row its cells in brackets joined with ", ", a non-finite one quoted.  Below
ARRAY_ROWS rows the writer applies one row template, the joined
conversions, which `%` applies to every row in C, and hands the rows over
as one block.  From ARRAY_ROWS rows `_arraytext` prints them from the
columns, a block of rows at a time, because one %.17g costs ~1 µs
(CPython's dtoa leaves its fast path above 14 digits):

- A float64 cell gets its 17 digits from |x|·10^(16−e), e = floor(log10|x|),
  formed as a double-double within ~1e-14 of exact.  %.17g itself prints
  every cell whose scaled value lies within 1e-9 of a rounding midpoint
  (1e5 times that error bound), every non-finite cell and every |x| outside
  [1e-270, 1e270] other than ±0 (subnormals included).
- An int64 cell is printed by %d.  An int column whose values span no more
  numbers than it has rows (an index column) prints each value once and
  gathers its cells; any other prints its cells block by block.
- Float digits are formed once per distinct magnitude: for a density matrix
  that `density_matrix_rows` marks (|re| and |im| symmetric bit for bit),
  once per mirror pair; for a float column of runs of one magnitude (a
  phase repeated over rows), once per run.
- A block holds 2048 float cells of the columns that form their own digits,
  or 2048 rows when every float column shares its digits, and forms its
  digits in one call; the first block's call also forms the shared ones.

The output bytes are those of the row template; the tests compare the array
path with %.17g and %d cell by cell.  JSON gathers the small pieces around
its tables and hands them over as one block before each table and at its
end.
"""

import contextlib
import functools
import os
from json.encoder import encode_basestring

import numpy as np

FLOAT = "%.17g"  # shortest fixed precision that round-trips any double exactly
# Tables with at least this many rows are printed a column at a time.  The
# array path costs ~0.5 ms per table whatever its size, so below ~200-300
# rows (4 columns, 2 of them float; measured on a 2-vCPU VM) the row
# template is faster.
ARRAY_ROWS = 300


class Columns:
    """A table's rows held as equal-length int64 and float64 numpy columns.

    Signed integer columns are held as int64 and float columns as float64;
    any other dtype, unsigned included, raises TypeError.  Iterating gives
    row i as the tuple of the columns' i-th values as Python ints and floats.
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
        if not kinds <= {"i", "f"}:
            # an unsigned value of 2^63 or more would wrap in int64
            raise TypeError(f"Columns holds signed int and float columns, got dtype kinds "
                            f"{sorted(kinds)}")
        self.columns = [a.astype(np.float64 if a.dtype.kind == "f" else np.int64, copy=False)
                        for a in arrays]
        self.mirror = mirror

    def __len__(self):
        return len(self.columns[0])

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


class Text:
    """A table or JSON document, formed block by block as it is written.

    `write(sink)` forms the text and hands its UTF-8 bytes to `sink` (a
    binary file's write, say) one block at a time, in order; a formatting
    error is raised from there.  len() is the number of bytes the last write
    handed over (a text never written is formed once to count them), and
    str() forms the text into one string.
    """

    __slots__ = ("_form", "_size")

    def __init__(self, form):
        self._form = form  # form(sink): hands each block of bytes to sink
        self._size = None

    def write(self, sink):
        size = 0

        def counted(block):
            nonlocal size
            sink(block)
            size += len(block)

        self._form(counted)
        self._size = size

    def __len__(self):
        if self._size is None:
            self.write(lambda block: None)  # formed only to count its bytes
        return self._size

    def __str__(self):
        blocks = []
        self.write(blocks.append)
        return b"".join(blocks).decode("utf-8")


def table_text(header, rows):
    """Comma-separated table with newline-terminated rows, as a `Text`.

    `rows` is a `Columns`; anything else raises TypeError here, before any
    file is opened.
    """
    if not isinstance(rows, Columns):
        raise TypeError(f"table rows must be a Columns, got {type(rows).__name__}")
    return Text(functools.partial(_write_table, header, rows))


def _write_table(header, rows, sink):
    sink((",".join(header) + "\n").encode("utf-8"))
    _write_rows(rows, "", ",", "\n", sink)


def _write_rows(rows, head, sep, tail, sink, json=False, last=None):
    """Each row of the `Columns` `rows` as head, its cells joined by sep, and
    tail (`last` for the last row), handed to sink; with `json` a non-finite
    cell is quoted.  Below ARRAY_ROWS rows one row template prints them as
    one block, from ARRAY_ROWS the array path a block at a time."""
    if len(rows) >= ARRAY_ROWS:
        # imported on first use: without cached bytecode, compiling the array
        # path costs ~7 ms at every start, and small tables never need it
        from ._arraytext import array_text
        array_text(rows.columns, head, sep, tail, sink, json, rows.mirror, last)
        return
    template = head + sep.join("%d" if c.dtype.kind == "i" else FLOAT
                               for c in rows.columns) + tail
    text = "".join(map(template.__mod__, rows))
    # %d and %.17g print the letter n only in "inf" and "nan"
    if json and "n" in text:
        text = "".join(head + sep.join(map(_json_scalar, row)) + tail for row in rows)
    if last is not None:
        text = text[:len(text) - len(tail)] + last
    sink(text.encode("utf-8"))


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


def json_text(obj):
    """Deterministic JSON, as a `Text` that ends in a newline: dict insertion
    order kept, floats via %.17g.

    A list of numbers is written on one line, a `Columns` one row per line
    by the row writer, and any other list one item per line.  A non-finite
    float is written as the string "inf", "-inf" or "nan".  A value that
    cannot be serialized raises TypeError when the text is written.
    """
    return Text(functools.partial(_write_json, obj))


def _write_json(obj, sink):
    """Hand `obj` as JSON and a newline to sink: its pieces are gathered and
    handed over as one block before each table and at the end."""
    pieces = []
    _json(obj, "", pieces, sink)
    pieces.append("\n")
    sink("".join(pieces).encode("utf-8"))


def _json(obj, pad, pieces, sink):
    """Append `obj` as JSON, indented from `pad`, to pieces; a `Columns` goes
    to sink, after the pieces before it."""
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        separator = "{\n"
        for key, value in obj.items():
            pieces.append(f"{separator}{inner}{_json_str(key)}: ")
            _json(value, inner, pieces, sink)
            separator = ",\n"
        pieces.append("\n" + pad + "}")
        return
    if isinstance(obj, (list, tuple, Columns)) and not len(obj):
        pieces.append("[]")
        return
    if isinstance(obj, Columns):
        pieces.append("[\n")
        sink("".join(pieces).encode("utf-8"))
        pieces.clear()
        _write_rows(obj, inner + "[", ", ", "],\n", sink, json=True, last="]")
        pieces.append("\n" + pad + "]")
        return
    if isinstance(obj, (list, tuple)):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            pieces.append("[" + ", ".join(map(_json_scalar, obj)) + "]")
            return
        separator = "[\n"
        for value in obj:
            pieces.append(separator + inner)
            _json(value, inner, pieces, sink)
            separator = ",\n"
        pieces.append("\n" + pad + "]")
        return
    pieces.append(_json_scalar(obj))


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


def write_text(fh, text):
    """Write the `Text` `text` as UTF-8 to `fh`, a binary file from
    `open_in_place`, from its start, and close it; returns fh's name.

    The text is formed as it is written, each block going to the file as
    soon as it is formed, so no whole-file string is ever built.  The file
    is overwritten from its start and cut to the new length, never truncated
    to zero first: on ext4 an O_TRUNC open frees the old blocks and flushes
    the file again on close, which made the tables layer of a rerun that
    rewrites three small files cost 0.99 ms instead of 0.30 ms (2-vCPU VM,
    ext4 mounted with discard).  The write is not atomic.  When formatting
    or writing raises part way, the file is cut at the bytes that reached
    it, closed, and the error re-raised, so it holds a prefix of the new
    text and none of the old tail; a file that was handed no byte is left as
    it was.
    """
    with fh:
        try:
            text.write(fh.write)
        except BaseException:
            _cut(fh)
            raise
        fh.truncate()
    return fh.name


def _cut(fh):
    """Cut the buffered binary file `fh`, whose writing failed, at the bytes
    that reached it, and close it; one that was handed no byte is left whole."""
    if fh.tell():
        with contextlib.suppress(OSError):
            fh.flush()
        fd = fh.fileno()
        with contextlib.suppress(OSError):
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    fh.raw.close()  # drops any bytes the flush could not write


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
