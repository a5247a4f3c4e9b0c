"""The array path of `tables`: the int64 and float64 numpy columns of a
`tables.Columns`, printed whole as %d and %.17g.

A float64 cell x takes e = floor(log10|x|) and forms |x|·10^(16−e) as a
double-double: Dekker's exact product with 10^k stored as hi + lo, hi + lo
within 2^-106 of 10^k, both from exact integers.  That is within ~1e-14 of
the exact scaled value, so rounding it to an integer gives the 17 digits of
%.17g; e is corrected where log10 was one off, and where the rounding
reached 10^17.  A cell whose scaled value lies within 1e-9 of a rounding
midpoint, a non-finite cell and any |x| outside [1e-270, 1e270] other than
±0 is printed by %.17g itself.  Only float64 arithmetic is used, so the
digits do not depend on the platform's long double.

Text is handled as unsigned integers whose byte k, counted from the least
significant, is character k: 4 ASCII digits come from one lookup of a
10000-entry table, and a float cell is assembled in three 8-byte lanes (sign,
"0.000" prefix, 17 digits with the dot moved in by a one-byte shift) plus a
fourth for the exponent when a cell of the table may need one.  Each cell is
a fixed-width slot padded with NUL.  Digits are formed for magnitudes, once
per distinct one: a density matrix whose |re| and |im| are symmetric shares
the digits of its lower triangle, a float column of runs of one magnitude
(the phase of a phi,n,p table, repeated over its n) those of one cell per
run, an int column whose values span fewer numbers than it has rows (an
index column) is printed from the slots of that span, and each cell is
gathered from those slots and takes its own sign.  Equal floats can differ
in sign (0.0 and -0.0) and NaN equals nothing, so a run is of equal
magnitudes and a NaN is a run of its own.

The text is assembled in blocks of BLOCK_CELLS cells of the float columns
that form their own digits, or of BLOCK_CELLS rows when every float column
shares its digits; the cost is per numpy call, not per cell, so each block
forms its digits in one call, and the first block's call also forms the
shared digits, which later blocks gather from its slots.  The slots of a
block are written into one row buffer per table, whose head, separators
and tail are filled once, and its bytes lose their NULs in one
`bytes.translate` and go to the sink as they are formed: a table in writing
holds one block of text, its digit slots and those of the first block's
call.

Cost on a 2-vCPU VM: forming the digits of 2048 magnitudes takes ~0.3-0.5
ms, and assembling 1024 rows of a density matrix from its slots ~0.15 ms,
most of it the `bytes.translate`; a 121×121 density matrix prints
in about half the time it took when every cell formed its own digits.  A
phi,n,p table of 1932 rows (max_fock 20) forms its digits in one call and
prints in ~0.7 of the time it took when it formed those of every phase cell,
in two calls; at 7052 rows (max_fock 40), ~0.75.
"""

import functools
from types import SimpleNamespace

import numpy as np

from .tables import FLOAT

# Float cells of a block, and float magnitudes whose digits are formed at
# once (~240 bytes of temporaries each, ~0.5 MB in all); the first block's
# call also holds the 24- or 32-byte slots of the shared digits.
BLOCK_CELLS = 2048
# A float column whose runs of one magnitude are this many rows long on
# average forms its digits once per run.
RUN_ROWS = 8

_K_MIN, _K_MAX = -260, 290  # powers 10^k stored; |x| in [1e-270, 1e270] needs -255..288
_EXP_MAX = 300  # exponents with an entry in the exponent table
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_LANES = np.dtype("<u8")  # 8 bytes of text as one integer, byte 0 least significant


def _values(table, dtype):
    """Bytes, read as little-endian integers of `dtype`'s width, as native values."""
    return np.ascontiguousarray(table, np.uint8).view(dtype.newbyteorder("<")).astype(dtype)


@functools.cache
def _lookup():
    """The tables of the array path, built on first use.

    A float cell is three uint64 lanes, 24 bytes: the sign at byte 0, "0.",
    .. "0.000" from byte 1, and the digits and dot from byte 6; and a fourth
    lane for "e±dd" or "e±ddd".

    chunk: the 4 ASCII digits of 0..9999; trailing: their trailing zeros
    (4 for 0); tail: uint32 masks keeping the last 0..4 characters; powers:
    hi, hi's two Dekker halves and lo, with hi + lo within 2^-106 of 10^k,
    for k = _K_MIN.._K_MAX; layout, for 18·point + kept: the lanes that
    keep bytes 6..6+point-1 (the digits before the dot), that keep
    6+point..6+kept-1 (those after it), and of the dot at byte 6+point;
    head, for zeros: lane 0 with "0.", "0.0", .. before the digits (byte 0,
    the sign, NUL); exponent: the fourth lane, for -_EXP_MAX.._EXP_MAX, then
    none; int_powers: 10^1..10^19.
    """
    i = np.arange(10000)
    chunk = 48 + np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    trailing = (i % 10 == 0) * 1 + (i % 100 == 0) + (i % 1000 == 0) + (i == 0)
    tail = (np.arange(4) >= 4 - np.arange(5)[:, None]) * 255
    powers = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:  # exact rationals: int / int is correctly rounded
            hi = 1 / 10 ** -k
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -k) / (den * 10 ** -k)
        split = hi * _SPLIT
        head = split - (split - hi)
        powers.append((hi, head, hi - head, lo))
    byte = np.arange(24)
    point, kept = np.divmod(np.arange(18 * 18)[:, None], 18)
    layout = np.stack([((6 <= byte) & (byte < 6 + point)) * 255,
                       ((6 + point <= byte) & (byte < 6 + kept)) * 255,
                       ((byte == 6 + point) & (kept > point) & (point > 0)) * ord(".")])
    head = np.zeros((5, 8), np.uint8)
    head[:, 1:6] = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000"], dtype="S5"
                            ).view(np.uint8).reshape(5, 5)
    x = np.arange(-_EXP_MAX, _EXP_MAX + 1)
    m = np.abs(x)
    exponent = np.zeros((len(x) + 1, 8), np.uint8)
    exponent[:-1, :5] = np.stack([np.full_like(x, ord("e")), np.where(x < 0, ord("-"), ord("+")),
                                  np.where(m >= 100, 48 + m // 100, 0), 48 + m // 10 % 10,
                                  48 + m % 10], axis=1)
    u32, u64 = np.dtype(np.uint32), np.dtype(np.uint64)
    return SimpleNamespace(
        chunk=_values(chunk, u32).ravel(), trailing=trailing.astype(np.uint8),
        tail=_values(tail, u32).ravel(), powers=np.array(powers).T.copy(),
        layout=_values(layout, u64).transpose(0, 2, 1).copy(),
        head=_values(head, u64).ravel(), exponent=_values(exponent, u64).ravel(),
        int_powers=np.array([10 ** j for j in range(1, 20)], dtype=np.uint64))


def _scaled(a, e):
    """(D, frac): a·10^(16−e) = D + frac with D an integer and |frac| <= ½.

    The product is a double-double, so frac is within ~1e-14 of exact for
    a·10^(16−e) < 2^62, a in [1e-270, 1e270].
    """
    k = 16 - e - _K_MIN
    hi, head_hi, tail_hi, lo = (p.take(k) for p in _lookup().powers)
    product = a * hi
    split = a * _SPLIT
    head = split - (split - a)
    tail = a - head
    # a·hi = product + error exactly (Dekker)
    error = ((head * head_hi - product) + head * tail_hi + tail * head_hi) + tail * tail_hi
    whole = np.rint(product)
    rest = (product - whole) + (error + a * lo)
    carry = np.rint(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _decimal(a):
    """(D, e, tie) of a in [1e-270, 1e270]: a's 17 significant digits D in
    [10^16, 10^17), rounded to nearest, and decimal exponent e, so that %.17g
    prints D·10^(e−16); tie marks the cells whose scaled value lies within
    1e-9 of a rounding midpoint, whose D is left to %.17g."""
    e = np.floor(np.log10(a)).astype(np.int64)
    D, frac = _scaled(a, e)
    # log10 can be one off next to a power of ten
    low = np.flatnonzero((D < 10 ** 16) | ((D == 10 ** 16) & (frac < 0)))
    if len(low):
        e[low] -= 1
        D[low], frac[low] = _scaled(a[low], e[low])
    high = np.flatnonzero(D > 10 ** 17)
    if len(high):
        e[high] += 1
        D[high], frac[high] = _scaled(a[high], e[high])
    top = D == 10 ** 17  # rounded up to the next power of ten
    D[top] = 10 ** 16
    e[top] += 1
    return D, e, np.abs(np.abs(frac) - 0.5) < 1e-9


def _chunks(values):
    """The five 4-digit chunks, most significant first, of non-negative int64
    or uint64 integers below 10^20: (5, n) intp."""
    scale = values.dtype.type(10 ** 8)
    high = values // scale
    top = high // scale
    chunks = np.empty((5, len(values)), np.intp)
    chunks[0] = top
    for j, part in ((1, high - top * scale), (3, values - high * scale)):
        upper = part // 10 ** 4
        chunks[j] = upper
        chunks[j + 1] = part - upper * 10 ** 4
    return chunks


def _digits(D, point):
    """Lanes 0..2 of float slots: the digits of D in [10^16, 10^17) without
    trailing zeros, from byte 6, with a dot after the first `point` of them
    (none for 0); a digit before the dot is kept even when it is a zero."""
    t = _lookup()
    chunks = _chunks(D)  # the leading chunk is the first digit, 1..9
    zeros = t.trailing.take(chunks[1:])
    zeros = zeros[3] + (zeros[3] == 4) * (
        zeros[2] + (zeros[2] == 4) * (zeros[1] + (zeros[1] == 4) * zeros[0]))
    c = t.chunk.take(chunks[1:]).astype(np.uint64)
    text = np.stack([(48 + chunks[0].astype(np.uint64)) << 48 | c[0] << 56,
                     c[0] >> 8 | c[1] << 24 | c[2] << 56, c[2] >> 8 | c[3] << 24])
    del chunks, c  # freed before the masks are taken: they bound a block's memory
    # the digits after the dot move one byte on, and the dot goes between
    before, after, dot = t.layout.take(18 * point + np.maximum(17 - zeros, point), axis=2)
    moved = text & after
    dot |= (text & before) | moved << 8
    dot[1:] |= moved[:2] >> 56
    return dot


def _lanes(a):
    """3 when every non-zero magnitude in `a` lies in [1e-4, 1e16), so that
    %.17g prints it without an exponent; 4 otherwise (a cell that %.17g
    prints itself may count as either)."""
    return 4 if ((a < 1e-4) & (a > 0.0)).any() or (a >= 1e16).any() else 3


def _float_slots(a, lanes):
    """(slots, slow) of float64 magnitudes `a` >= 0: %.17g of each cell in a
    NUL-padded row of 8·lanes bytes whose byte 0, the sign, is NUL, and the
    mask of the cells that %.17g must print itself, whose slots are not
    their text."""
    t = _lookup()
    zero = a == 0.0
    fast = (a >= 1e-270) & (a <= 1e270)
    D, e, tie = _decimal(np.where(fast, a, 1.0))  # 0 prints the "1" of 1.0, then "0"
    # %.17g is fixed-point for exponents -4..16: "0.000ddd" or "ddd.ddd"
    fixed = (e >= -4) & (e < 17)
    slots = _digits(D, np.where(fixed, np.maximum(e + 1, 0), 1))
    slots[0] |= t.head.take(np.where(fixed & (e < 0), -e, 0))
    if lanes == 4:
        slots = np.concatenate([slots, t.exponent.take(np.where(fixed, -1, e + _EXP_MAX))[None]])
    slots = np.ascontiguousarray(slots.T, _LANES).view(np.uint8)
    slots[zero, 6] = ord("0")
    return slots, ~(fast | zero) | (tie & fast)


def _magnitude_slots(columns, lanes):
    """(slots, slow) of the magnitudes of the float64 `columns`, one column
    after another, formed BLOCK_CELLS at a time; slow is None when %.17g
    need print none of them."""
    a = np.abs(np.concatenate(columns))
    parts = [_float_slots(a[i:i + BLOCK_CELLS], lanes) for i in range(0, len(a), BLOCK_CELLS)]
    slots, slow = (np.concatenate(p) if len(p) > 1 else p[0] for p in zip(*parts))
    return slots, slow if slow.any() else None


def _int_slots(v, width):
    """%d of each cell of int64 `v`, right-aligned in a NUL-padded row of
    `width` bytes (at least as wide as the longest cell), with any "-" at
    byte 0."""
    t = _lookup()
    negative = v < 0
    magnitude = np.where(negative, -v, v).astype(np.uint64)  # -(-2^63) wraps to 2^63
    count = 1 + np.searchsorted(t.int_powers, magnitude, side="right")  # digits
    lanes = -(-int(count.max()) // 4)  # 4-digit chunks, of which each keeps its digits
    chunks = _chunks(magnitude)[5 - lanes:] if lanes > 1 else magnitude[None].astype(np.intp)
    text = t.chunk.take(chunks) & t.tail.take(
        np.clip(count - 4 * np.arange(lanes - 1, -1, -1)[:, None], 0, 4))
    text = np.ascontiguousarray(text.T, np.dtype("<u4")).view(np.uint8)
    slots = np.zeros((len(v), width), np.uint8)
    digits = min(4 * lanes, width)  # the leading 4·lanes - digits bytes are NUL
    slots[:, width - digits:] = text[:, 4 * lanes - digits:]
    if negative.any():
        slots[:, 0] |= negative.view(np.uint8) * np.uint8(ord("-"))
    return slots


def _int_width(lo, hi):
    """The slot width of int cells in lo..hi: the digits of the longest, and
    a byte for the sign when one is negative."""
    return max(len(str(abs(lo))), len(str(abs(hi)))) + (lo < 0)


def _text_slots(texts, width):
    """The bytes of printed cells in NUL-padded rows of `width` bytes."""
    data = np.array([t.encode() for t in texts], dtype=f"S{width}")
    return data.view(np.uint8).reshape(len(texts), width)


def _runs(a):
    """(run, first) of float magnitudes `a` that form runs of equal values
    at least RUN_ROWS long on average: the run of each cell, counted from 0,
    and the first cell of each run; None for any other column.  NaN equals
    nothing, so it starts a run of its own."""
    change = a[1:] != a[:-1]
    count = 1 + int(np.count_nonzero(change))
    if count * RUN_ROWS > len(a):
        return None
    run = np.zeros(len(a), np.int32)  # kept for the whole table: half of intp
    np.cumsum(change, out=run[1:])
    return run, np.flatnonzero(np.concatenate([[True], change]))


def _source(column, mirror):
    """(lanes, values, index) of a float column: `_lanes` of its magnitudes,
    and the cells `values` whose digits it shares, row i taking those of
    values[index[i]]: one cell per run, or the mirror's cells.  values and
    index are None for a column that forms its digits block by block."""
    a = np.abs(column)
    lanes, run = _lanes(a), _runs(a)
    if run is not None:
        return lanes, column[run[1]], run[0]
    if mirror is not None:
        return lanes, column[mirror[0]], mirror[1]
    return lanes, None, None


def array_text(columns, head, sep, tail, sink, json=False, mirror=None, last=None):
    """Each row of the int64 and float64 `columns` as head, its cells joined
    by sep, and tail, handed to `sink` as UTF-8 bytes a block of rows at a
    time; the last row ends in `last`, no longer than tail, in place of tail
    when it is given.

    Digits are formed once per distinct magnitude and gathered.  `mirror` is
    None or (cells, slot): the float cells of rows `cells` hold every
    magnitude of the float columns, and row i's are those of row
    cells[slot[i]], so their digits are shared, formed for those rows only.
    A float column of runs of one magnitude (a phase repeated over rows)
    shares the digits of one cell per run.  A block holds BLOCK_CELLS cells
    of the float columns that form their digits block by block, or
    BLOCK_CELLS rows when every float column shares its digits, and forms
    its digits in one call; the first block's call also forms the shared
    digits, which later blocks gather from its slots.  A mirrored density
    matrix's block is 2048 rows of text, ~150 KB.  Each cell takes its sign
    from its own value, and a cell the array path leaves to %.17g is printed
    from its own value.  An int column whose values span fewer numbers than
    it has rows is printed from the slots of that span.
    """
    n = len(columns[0])
    floats = [c for c in columns if c.dtype.kind == "f"]
    sources = [_source(c, mirror) for c in floats]
    lanes = max([3] + [source[0] for source in sources])
    spread = [c for c, (_, values, _) in zip(floats, sources) if values is None]
    step = max(1, min(n, BLOCK_CELLS // max(1, len(spread))))

    # one row buffer per table, whose head, separators and tail are filled once
    text = [np.frombuffer(p.encode(), np.uint8) for p in (head, sep, tail)]
    if last is not None:  # padded with NUL, which the translate drops
        last = np.frombuffer(last.encode().ljust(len(text[2]), b"\0"), np.uint8)
    spans, widths = [], [len(text[0])]
    for column in columns:
        if column.dtype.kind == "f":
            spans.append(None)
            widths += [8 * lanes, len(text[1])]
        else:
            lo, hi = int(column.min()), int(column.max())
            width = _int_width(lo, hi)
            # an index column: each value is printed once, then gathered
            spans.append((lo, _int_slots(lo + np.arange(hi - lo + 1), width)
                          if hi - lo < n - 1 else None))
            widths += [width, len(text[1])]
    widths[-1] = len(text[2])
    at = np.cumsum([0] + widths).tolist()
    matrix = np.empty((step, at[-1]), np.uint8)
    for k, piece in enumerate(text[:1] + [text[1]] * (len(columns) - 1) + text[2:]):
        matrix[:, at[2 * k]:at[2 * k + 1]] = piece

    # the shared digits join the first block's call, each column's at its
    # offset after the block's own
    shared, offsets, end = [], [], step * len(spread)
    for _, values, _ in sources:
        offsets.append(end)
        if values is not None:
            shared.append(values)
            end += len(values)

    for start in range(0, n, step):
        block = slice(start, start + step)
        rows = matrix[:min(step, n - start)]
        parts = [c[block] for c in spread] + (shared if start == 0 else [])
        table, slow = _magnitude_slots(parts, lanes) if parts else (None, None)
        if start == 0:
            kept = table, slow  # later blocks gather the shared digits from these
        f = b = 0
        for k, (column, span) in enumerate(zip(columns, spans)):
            part = rows[:, at[2 * k + 1]:at[2 * k + 2]]
            x = column[block]
            if span is None:  # a float column: its slots, the sign of each cell
                _, values, index = sources[f]
                if values is None:
                    slots, marks = table, slow
                    index = np.arange(b * len(rows), (b + 1) * len(rows))
                    b += 1
                else:
                    slots, marks = kept
                    index = index[block] + offsets[f]
                f += 1
                part[...] = slots.take(index, axis=0)
                part[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
                redo = () if marks is None else np.flatnonzero(marks.take(index))
                if len(redo):
                    texts = [FLOAT % v for v in x[redo].tolist()]
                    if json:
                        texts = [f'"{s}"' if "n" in s else s for s in texts]
                    part[redo] = _text_slots(texts, part.shape[1])
            elif span[1] is not None:
                part[...] = span[1].take(x - span[0], axis=0)
            else:
                part[...] = _int_slots(x, part.shape[1])
        if last is not None and start + step >= n:
            rows[-1, at[-2]:] = last
        sink(rows.tobytes().translate(None, b"\0"))
