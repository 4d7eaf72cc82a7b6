"""Text of doubles as `%.17g` writes it, for one value or many at once.

`fmt17` is Python's `format(v, ".17g")`, which CPython rounds correctly.
`rows17` writes the same bytes for a whole array with NumPy: each value's
17 digits come from an exact double-double scaling by a power of ten
(Dekker's product, no FMA needed), and its layout from tables built once
at import (about 1.5 ms).  The few values whose rounding that scaling
cannot settle, and inf and nan, are written by `fmt17`.  Profile CSVs are
written with it; tests/test_profile_text.py checks it value by value.
"""

from __future__ import annotations

import math

import numpy as np


def fmt17(v: float) -> str:
    """One value's text: 17 significant digits, as `%.17g` writes it."""
    return format(float(v), ".17g")


def rows17(values: np.ndarray) -> bytes:
    """('%.17g,%.17g\\n' * (n // 2)) % tuple(values) for a float64 array of
    even length n, formed a block of _ROW_BLOCK values at a time."""
    return b"".join(_text_block(values[i:i + _ROW_BLOCK])
                    for i in range(0, values.size, _ROW_BLOCK))


# A finite v != 0 with 10**d <= |v| < 10**(d+1) has the 17 significant digits
# D = round-half-even(|v| * 10**(16 - d)), 10**16 <= D <= 10**17 (10**17 is
# 10**16 one decade up).  `%.17g` writes D in fixed notation for -4 <= d < 17
# and as d.dddde+dd otherwise, without the fraction's trailing zeros.  Each
# value's text is laid out in six 8-byte words, every unused byte NUL: word 0
# holds the sign, '0.' and up to three zeros, the first digit at byte 6 and a
# point slot at byte 7; words 1-4 hold four digits each, every digit at an even
# byte followed by its point slot; word 5 holds the exponent and the ',' or '\n'
# that ends the value.  Dropping the NUL bytes joins them.
_D_MIN, _D_END = -330, 316  # the decades d of every finite double, with a margin
_ROW_BLOCK = 2048  # values per pass; a pass's temporaries stay near 0.5 MB


def _pow10_table():
    """10**(16 - d) = (hi + lo) * 2**E for every d, with hi + lo in [0.25, 1].

    hi and lo are the exact quotient cut to 120 bits and split into two
    doubles, so hi + lo is within 2**-105 of the power, relatively; lo is 0
    exactly where the power is a double (16 - d in [0, 22]).  Rows hi, hi's
    Veltkamp halves and lo (float64), and E (int64).
    """
    hi, lo, E = [], [], []
    for d in range(_D_MIN, _D_END):
        num, den = (10 ** (16 - d), 1) if d <= 16 else (1, 10 ** (d - 16))
        e = num.bit_length() - den.bit_length() + 1  # num / den < 2**e
        q = (num << (120 - e)) // den if e <= 120 else num // (den << (e - 120))
        h = float(q)  # q rounded to nearest, and the rest below it
        hi.append(math.ldexp(h, -120))
        lo.append(math.ldexp(float(q - int(h)), -120))
        E.append(e)
    hi = np.array(hi)
    c = hi * 134217729.0
    hi_h = c - (c - hi)
    return np.stack([hi, hi_h, hi - hi_h, np.array(lo)]), np.array(E)


def _text_tables():
    """The words of a value's text slot, looked up by digit group and by form.

    - group words: four digits at bytes 0, 2, 4, 6 (rows 0-9999), or one
      first digit at byte 6 (rows 10000-10009);
    - group ends: 2 * the digit count through the group's last nonzero digit,
      counted within the group, or -64 for a zero group;
    - per decade d: 36 * the form (below), 2 * the least digits kept (the
      integer part's, in fixed notation) and, two rows per d (',' then '\\n'),
      the exponent word;
    - keep masks, by 2 * digits kept: 0xff on each kept digit's byte;
    - form bytes, by 36 * form + 2 * digits kept + sign: the sign, the point
      after digit `form` when a fraction digit follows it (form 16: no point),
      and for forms 17-20 the prefix '0.' and form - 17 zeros.
    Tables of words are (word, row), so that a lookup fills whole rows.
    """
    g = np.arange(10000)
    words = np.zeros((10010, 8), np.uint8)
    for j, unit in enumerate((1000, 100, 10, 1)):
        words[:10000, 2 * j] = 48 + g // unit % 10
    words[10000:, 6] = 48 + np.arange(10)
    ends = np.full(10010, -64, np.intp)
    for unit, end in ((1, 2), (10, 4), (100, 6), (1000, 8)):
        ends[:10000][g % (10000 // unit) > 0] = end
    ends[10001:] = 2

    d = np.arange(_D_MIN, _D_END)
    sci = (d < -4) | (d > 16)
    form = np.where(sci, 0, np.where(d >= 0, d, 16 - d))
    least = 2 * np.where(sci | (d < 0), 1, d + 1)
    x = np.abs(d)
    exp = np.zeros((len(d), 2, 8), np.uint8)  # 'e', sign, digits at bytes 0-4; the end at 7
    exp[:, :, :5] = (sci[:, None] * np.stack([np.full_like(d, 101), np.where(d < 0, 45, 43),
                                              np.where(x > 99, 48 + x // 100, 0),
                                              48 + x // 10 % 10, 48 + x % 10], axis=1))[:, None]
    exp[:, :, 7] = [44, 10]

    b = np.arange(40)
    kept2 = np.arange(35)[:, None]
    keep = np.where((b % 2 == 0) & (b >= 6) & (b < 6 + kept2), np.uint8(255), np.uint8(0))
    f = np.arange(21)[:, None, None, None]
    kept2 = 2 * np.arange(18)[:, None, None]
    p = np.minimum(f, 16)
    prefix = (b >= 1) & (b < np.where(f > 16, f - 14, 1))
    u8 = np.uint8
    marks = (np.where((b == 7 + 2 * p) & (kept2 > 2 * p + 2), u8(46), u8(0))
             + np.where(prefix, np.where(b == 2, u8(46), u8(48)), u8(0))
             + np.where((b == 0) & (np.arange(2)[:, None] == 1), u8(45), u8(0)))

    def rows_of_words(a):
        return np.ascontiguousarray(a.reshape(-1, 40).view(np.uint64).T)

    return (np.ascontiguousarray(words.view(np.uint64).ravel()), ends,
            (36 * form).astype(np.intp), least.astype(np.intp),
            exp.view(np.uint64).ravel(), rows_of_words(keep), rows_of_words(marks))


_P10, _P10_EXP = _pow10_table()
_POW2 = np.ldexp(1.0, np.arange(72))  # 2**(e + E) < 2**64 for a product below 10**18
(_GROUP_WORDS, _GROUP_ENDS, _FORM36, _LEAST2, _EXP_WORDS, _KEEP_WORDS,
 _FORM_WORDS) = _text_tables()
_GROUP_START2 = np.array([0, 2, 10, 18, 26], np.intp)[:, None]  # 2 * digits before each group
_PARITY = np.arange(_ROW_BLOCK) & 1


def _scaled_digits(a: np.ndarray, di: np.ndarray):
    """a * 10**(16 - d) for a > 0 and di = d - _D_MIN: its integer part, its
    rounding half to even (both int64), and where that rounding is unsure.

    With a = m * 2**e (m in [0.5, 1)), m * (hi + lo) is a double-double:
    Dekker's product gives m * hi exactly as p + t without FMA, and m * lo is
    added to t.  Scaled by 2**(e + E), the whole is within 2**-47 of the exact
    product, and exact where lo is 0.  Where the product reaches 10**16, p is an
    even integer, so rounding t half to even rounds the sum half to even.  Where
    lo is not 0 and t's fraction lies within 2**-40 of 1/2, the rounding is
    unsure.
    """
    m, e = np.frexp(a)
    hi, hi_h, hi_l, lo = _P10.take(di, axis=1)
    c = m * 134217729.0  # Veltkamp's split of m into two 26-bit halves
    m_h = c - (c - m)
    m_l = m - m_h
    p = m * hi
    t = m_h * hi_h - p
    t += m_h * hi_l
    t += m_l * hi_h
    t += m_l * hi_l
    t += m * lo
    scale = _POW2.take(e + _P10_EXP.take(di))
    p *= scale
    t *= scale
    whole = np.floor(t)
    rounded = p.astype(np.int64)
    integer = rounded + whole.astype(np.int64)
    rounded += np.rint(t).astype(np.int64)
    t -= whole
    t -= 0.5
    return integer, rounded, (np.abs(t) < 2.0 ** -40) & (lo != 0)


def _text_block(v: np.ndarray) -> bytes:
    """('%.17g,%.17g\\n' * (len(v) // 2)) % tuple(v), for len(v) even and at
    most _ROW_BLOCK."""
    n = len(v)
    finite = np.isfinite(v)
    zero = v == 0
    a = np.where(finite & ~zero, np.abs(v), 1.0)
    di = (np.log10(a) - _D_MIN).astype(np.intp)  # floor, as the operand is positive
    integer, D, unsure = _scaled_digits(a, di)
    # next to a power of ten log10 may put d one decade off
    off = (integer < 10 ** 16) | (integer >= 10 ** 17)
    if off.any():
        i = np.flatnonzero(off)
        di[i] += np.where(integer[i] < 10 ** 16, -1, 1)
        _, D[i], unsure[i] = _scaled_digits(a[i], di[i])
    carry = D == 10 ** 17
    if carry.any():
        D[carry] = 10 ** 16
        di[carry] += 1
    D[zero] = 0

    # D's first digit (as row 10000 + digit) and four groups of four
    G = np.empty((5, n), np.intp)
    top = D // 10 ** 8
    low = D - top * 10 ** 8
    np.floor_divide(low, 10 ** 4, out=G[3])
    np.subtract(low, G[3] * 10 ** 4, out=G[4])
    top += 10 ** 12
    mid = top // 10 ** 4
    np.subtract(top, mid * 10 ** 4, out=G[2])
    np.floor_divide(mid, 10 ** 4, out=G[0])
    np.subtract(mid, G[0] * 10 ** 4, out=G[1])
    ends = _GROUP_ENDS.take(G)
    ends += _GROUP_START2
    kept2 = np.maximum.reduce(ends)
    np.maximum(kept2, _LEAST2.take(di), out=kept2)
    form = _FORM36.take(di)
    form += kept2
    form += np.signbit(v)

    M = np.empty((6, n), np.uint64)
    text = M[:5]
    _GROUP_WORDS.take(G, out=text)
    text &= _KEEP_WORDS.take(kept2, axis=1)
    text |= _FORM_WORDS.take(form, axis=1)
    _EXP_WORDS.take(2 * di + _PARITY[:n], out=M[5])
    slots = M.view(np.uint8).reshape(6, n, 8)
    for i in np.flatnonzero(unsure | ~finite).tolist():
        slots[:, i] = np.frombuffer((fmt17(v[i]) + ",\n"[i & 1]).encode().ljust(48, b"\0"),
                                    np.uint8).reshape(6, 8)
    return M.T.tobytes().translate(None, b"\0")
