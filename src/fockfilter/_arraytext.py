"""The array path of `tables`: whole numpy columns printed as %.17g and %d.

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
fourth for the exponent when a cell of the block needs one.  Each cell is a
fixed-width slot padded with NUL; the slots and separators of a block of rows
form one uint8 matrix, whose bytes lose their NULs in one `bytes.translate`.
"""

import functools
from types import SimpleNamespace

import numpy as np

from .tables import FLOAT, _json_scalar

# Float cells printed per block (~240 bytes of temporaries each), which
# bounds the memory the array path holds at once to ~0.5 MB.
BLOCK_CELLS = 2048

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
    head, for 5·sign + zeros: lane 0 with "-" and "0.", "0.0", .. before
    the digits; exponent: the fourth lane, for -_EXP_MAX.._EXP_MAX, then
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
    head = np.zeros((2, 5, 8), np.uint8)
    head[1, :, 0] = ord("-")
    head[:, :, 1:6] = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000"], dtype="S5"
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


def _float_slots(x, quote=False):
    """%.17g of each cell of float64 `x` in a NUL-padded row of 24 bytes, or
    32 when a cell takes an exponent; with `quote`, a non-finite cell is a
    JSON string."""
    t = _lookup()
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-270) & (a <= 1e270)
    D, e, tie = _decimal(np.where(fast, a, 1.0))  # ±0 prints the "1" of 1.0, then "0"
    # %.17g is fixed-point for exponents -4..16: "0.000ddd" or "ddd.ddd"
    fixed = (e >= -4) & (e < 17)
    slots = _digits(D, np.where(fixed, np.maximum(e + 1, 0), 1))
    slots[0] |= t.head.take(5 * np.signbit(x) + np.where(fixed & (e < 0), -e, 0))
    if not fixed[fast].all():
        slots = np.concatenate([slots, t.exponent.take(np.where(fixed, -1, e + _EXP_MAX))[None]])
    slots = np.ascontiguousarray(slots.T, _LANES).view(np.uint8)
    slots[zero, 6] = ord("0")
    slow = np.flatnonzero(~(fast | zero) | (tie & fast))
    if len(slow):
        texts = [FLOAT % v for v in x[slow].tolist()]
        if quote:
            texts = [f'"{s}"' if "n" in s else s for s in texts]
        slots[slow] = _text_slots(texts, slots.shape[1])
    return slots


def _int_slots(v):
    """%d of each cell of int64 `v` in a NUL-padded row, as wide as the
    longest cell."""
    t = _lookup()
    negative = v < 0
    magnitude = np.where(negative, -v, v).astype(np.uint64)  # -(-2^63) wraps to 2^63
    count = 1 + np.searchsorted(t.int_powers, magnitude, side="right")  # digits
    width = int(count.max())
    lanes = -(-width // 4)  # 4-digit chunks, of which each keeps its digits
    chunks = _chunks(magnitude)[5 - lanes:] if lanes > 1 else magnitude[None].astype(np.intp)
    text = t.chunk.take(chunks) & t.tail.take(
        np.clip(count - 4 * np.arange(lanes - 1, -1, -1)[:, None], 0, 4))
    text = np.ascontiguousarray(text.T, np.dtype("<u4")).view(np.uint8)
    sign = int(negative.any())
    slots = np.empty((len(v), sign + width), np.uint8)
    slots[:, sign:] = text[:, 4 * lanes - width:]
    if sign:
        slots[:, 0] = np.where(negative, ord("-"), 0)
    return slots


def _text_slots(texts, width=None):
    """UTF-8 of printed cells in NUL-padded rows (at least `width` bytes)."""
    data = np.array([t.encode() for t in texts], dtype=f"S{width}" if width else bytes)
    return data.view(np.uint8).reshape(len(texts), -1)


def _as_array(conversion, column):
    """A column of cells as the int64 or float64 array that the array path
    prints as `conversion` prints each cell, or None."""
    if isinstance(column, np.ndarray):
        return column
    kinds = set(map(type, column))
    if conversion == FLOAT and kinds <= {float, np.float64}:
        return np.array(column, dtype=np.float64)
    if conversion == "%d" and all(k is int or np.can_cast(k, np.int64) for k in kinds):
        try:
            return np.array(column, dtype=np.int64)
        except OverflowError:  # a Python int beyond int64
            return None
    return None


def array_text(table, head, sep, tail, json=False):
    """Each row of `table` as head, its cells joined by sep, and tail, all
    rows concatenated; None when a printed cell holds a NUL, the padding."""
    arrays = [_as_array(conversion, column) for conversion, column in table]
    floats = [a for a in arrays if a is not None and a.dtype.kind == "f"]
    head, sep, tail = (np.frombuffer(p.encode(), np.uint8) for p in (head, sep, tail))
    step = max(1, BLOCK_CELLS // max(1, len(floats)))
    out = []
    for start in range(0, len(table[0][1]), step):
        block = slice(start, start + step)
        if floats:  # the float columns of a block are printed together
            printed = iter(np.split(_float_slots(np.concatenate([a[block] for a in floats]),
                                                 quote=json), len(floats)))
        pieces = [head]
        for (conversion, column), values in zip(table, arrays):
            if values is None:
                texts = [_json_scalar(v) if json else conversion % (v,) for v in column[block]]
                if "\0" in "".join(texts):
                    return None
                pieces += [_text_slots(texts), sep]
            elif values.dtype.kind == "f":
                pieces += [next(printed), sep]
            else:
                pieces += [_int_slots(values[block]), sep]
        pieces[-1] = tail
        widths = [p.shape[-1] for p in pieces]
        matrix = np.empty((len(pieces[1]), sum(widths)), np.uint8)
        for p, at, width in zip(pieces, np.cumsum([0] + widths).tolist(), widths):
            matrix[:, at:at + width] = p
        out.append(matrix.tobytes().translate(None, b"\0").decode())
    return "".join(out)
