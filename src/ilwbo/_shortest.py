"""repr's bytes for a whole float64 array, from numpy.

repr writes the shortest decimal that reads back as the same double, the
closest one when several are as short.  Schubfach finds its digits with three
128-bit products of the significand and a table entry g (R. Giulietti, "The
Schubfach way to render doubles", 2020; the arithmetic is that of Java's
DoubleToDecimal), here on uint64 arrays in 32-bit limbs.  Each value then
fills one row of fixed columns, as bytes:

  sign "0" . d0 | d1-d4 | ... | d13-d16 | "." "000" |
  . . . d0 | d1-d4 | ... | d13-d16 | "0" or "e", sign, d, d | d

integer digits first, then the fraction digits, each a run of 4-digit chunks
written as one uint32 each, then the exponent.  The row of _TEMPLATES for the
value's digit count and decimal point holds the constant characters repr
writes, 0xFF where the value's own bytes go and NUL elsewhere, and is ANDed
onto it.  Subnormals, infinities and nan go through repr itself: Schubfach's
rule for the shortest subnormals is not repr's.

`io_utils` imports this module on its first CSV write, so that a run pays for
the tables only when it writes one; they are read-only.
`tests/test_io_utils.py::TestReprBytes` pins `repr_bytes` against repr.
"""

from __future__ import annotations

import numpy as np

_M32, _M63 = 0xFFFFFFFF, (1 << 63) - 1
_K_MIN, _K_MAX = -324, 292  # decimal exponents with a g
_SIGN, _ZERO, _INT, _DOT, _LEAD, _FRAC, _TAIL, _EXP = 0, 1, 3, 20, 21, 27, 44, 45
WIDTH, _STRIDE = 49, 52  # a row's bytes, and its length in whole uint32s
_FIXED = 20  # point places p = -3..16 (0.d0 d1 ... x 10^p) written without an exponent


def _flog2pow10(e):
    return (e * 913124641741) >> 38  # floor(e log2 10)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _g_table() -> np.ndarray:
    """(6, 617) uint64: per k from _K_MIN, g = floor(10^-k 2^-r) + 1 with
    2^125 <= g < 2^126, as its top and bottom 63 bits g1 and g0, then their
    32-bit limbs."""
    g1, g0 = [], []
    for e in range(-_K_MIN, -_K_MAX - 1, -1):  # e = -k; 10^e 2^(125 - flog2pow10(e)) = 5^e 2^s
        s = 125 - _flog2pow10(e) + e
        g = ((5 ** e << s if s >= 0 else 5 ** e >> -s) if e >= 0 else (1 << s) // 5 ** -e) + 1
        g1.append(g >> 63)
        g0.append(g & _M63)
    table = np.empty((6, len(g1)), np.uint64)
    table[0], table[1] = g1, g0
    table[2:4] = table[0] >> 32, table[0] & _M32
    table[4:6] = table[1] >> 32, table[1] & _M32
    return _frozen(table)


def _templates() -> np.ndarray:
    """(17 * 22, _STRIDE) uint8, row (n - 1) * 22 + place for n significant
    digits: place p + 3 for a point place p written in fixed notation, _FIXED
    for an exponent below 100 in magnitude and _FIXED + 1 for one above."""
    n = np.arange(1, 18)[:, None, None]
    place = np.arange(_FIXED + 2)[:, None]
    p, fixed = place - 3, place < _FIXED
    col = np.arange(_STRIDE)
    j_int, j_lead, j_frac = col - _INT, col - _LEAD, col - _FRAC
    ones = (col == _SIGN) | (j_int >= 0) & np.where(fixed, j_int < p, j_int == 0)
    ones = ones | (j_frac >= 0) & (j_frac < n) & (j_frac >= np.where(fixed, p, 1))
    ones = ones | ~fixed & (col >= _EXP) & (col < WIDTH) & ((col != _EXP + 1) | (place > _FIXED))
    zero = (col == _ZERO) & fixed & (p <= 0) | (j_lead >= 0) & fixed & (j_lead < -p)
    zero = zero | (col == _TAIL) & fixed & (n <= p)
    dot = (col == _DOT) & (fixed | (n > 1))
    chars = np.where(ones, 0xFF, np.where(zero, ord("0"), np.where(dot, ord("."), 0)))
    chars = np.where((col == _TAIL) & ~fixed, ord("e"), chars)
    return _frozen(chars.astype(np.uint8).reshape(-1, _STRIDE))


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four digit characters of 0..9999 as one uint32 each, and 4 less
    the trailing zeros of 1..9999 (-64 for 0)."""
    q = np.arange(10_000)
    chars = np.empty((len(q), 4), np.uint8)
    zeros = np.zeros(len(q), np.int64)
    for i, unit in enumerate((1, 10, 100, 1000)):
        chars[:, 3 - i] = q // unit - q // (10 * unit) * 10 + ord("0")
        zeros += q // (10 * unit) * (10 * unit) == q  # q ends in i + 1 zeros or more
    significant = np.where(q > 0, 4 - zeros, -64).astype(np.int8)
    return _frozen(chars.view(np.uint32).ravel()), _frozen(significant)


def _place_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point place p from -400: the _TEMPLATES place, the tail "0"/"e"
    column with the exponent's sign and first two digits as one uint32, and
    the exponent's last digit."""
    p = np.arange(-400, 400)
    place = np.where((p < -3) | (p > 16), _FIXED + ((p < -98) | (p > 100)), p + 3)
    e = np.where(p < 1, 1 - p, p - 1)
    tail = np.empty((len(p), 5), np.uint8)
    tail[:, 0] = 0xFF
    tail[:, 1] = np.where(p < 1, ord("-"), ord("+"))
    for i, unit in enumerate((100, 10, 1)):
        tail[:, 2 + i] = e // unit - e // (10 * unit) * 10 + ord("0")
    return (_frozen(place.astype(np.intp)), _frozen(tail[:, :4].copy().view(np.uint32).ravel()),
            _frozen(tail[:, 4].copy()))


_G = _g_table()
_TEMPLATES = _templates()
_QUADS, _SIGNIFICANT = _digit_tables()
_PLACES, _EXPONENTS, _UNITS = _place_tables()


def _mul128(ah, al, bh, bl):
    """(high, low) 64-bit halves of a * b, given as 32-bit limbs, a, b < 2^63."""
    ll, lh, hl = al * bl, al * bh, ah * bl
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> 32) + (hl >> 32) + (mid >> 32), (mid << 32) | (ll & _M32)


def _shifted_sum(hi, lo, g, shift, sign):
    """(high, low) of (hi, lo) + sign * g * 2^shift, in 128 bits."""
    ghi, glo = g >> (64 - shift), g << shift
    if sign > 0:
        lo = lo + glo
        return hi + ghi + (lo < glo), lo
    return hi - ghi - (lo < glo), lo - glo


def _round_odd(y1, y0, x1):
    """Java's rop: g * cp / 2^127 rounded to odd, from g1 * cp = (y1, y0)
    and the high half x1 of g0 * cp."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _schubfach(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f x 10^k the shortest, closest decimal of each normal
    double in `bits` (sign ignored); f has 16 or 17 digits."""
    biased = ((bits >> 52) & 0x7FF).astype(np.int64)
    t = bits & ((1 << 52) - 1)
    c, q = t | (1 << 52), biased - 1075
    odd = c & 1
    # the interval around c 2^q is symmetric unless c is a power of two
    # with a smaller spacing below it
    symmetric = (t != 0) | (biased == 1)
    # floor(log10 2^q), or floor(log10 (3/4) 2^q) for the asymmetric interval
    k = (q * 661971961083 - np.where(symmetric, 0, 274743187321)) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0, g1h, g1l, g0h, g0l = _G.take(k - _K_MIN, axis=1)
    cp = c << (h + 2)
    cph, cpl = cp >> 32, cp & _M32
    y1, y0 = _mul128(g1h, g1l, cph, cpl)
    x1, x0 = _mul128(g0h, g0l, cph, cpl)
    vb = _round_odd(y1, y0, x1)
    # the interval's ends: cp + 2^(h + 1) and cp - 2^(h + 1), or - 2^h
    up = h + 1
    vbr = _round_odd(*_shifted_sum(y1, y0, g1, up, 1), _shifted_sum(x1, x0, g0, up, 1)[0])
    down = h + symmetric
    vbl = _round_odd(*_shifted_sum(y1, y0, g1, down, -1), _shifted_sum(x1, x0, g0, down, -1)[0])
    vbl, vbr = vbl + odd, vbr - odd  # an odd c's interval leaves its ends out
    s = vb >> 2
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    # one digit fewer when exactly one of sp10, tp10 lies in the interval
    upin, wpin = vbl <= sp10 << 2, tp10 << 2 <= vbr
    uin, win = vbl <= s << 2, (s + 1) << 2 <= vbr
    # else s or s + 1: the one inside, or the closer, or the even one on a tie
    below = np.where(uin != win, uin, (vb & 3) + (s & 1) < 3)
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(below, s, s + 1))
    return f, k


def _split(x: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """divmod(x, unit), faster than np.divmod's for a scalar unit."""
    q = x // unit
    return q, x - q * unit


def repr_bytes(values: np.ndarray) -> np.ndarray:
    """(len(values), WIDTH) uint8: row i holds the bytes of
    repr(float(values[i])), with NUL in the columns it does not use."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    bits = v.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    zero = bits << 1 == 0
    special = (biased == 0x7FF) | (biased == 0) & ~zero  # inf, nan, subnormal
    f, k = _schubfach(np.where(special | zero, 0x3FF << 52, bits))  # 1.0 in their place
    # as 17 digits d0 d1 ... d16 with the point at p: 0.d0 d1 ... x 10^p
    long = f >= 10 ** 16
    f = np.where(long, f, f * 10)
    at = k + (416 + long)  # p + 400
    if zero.any():
        f[zero], at[zero] = 0, 401
    high, low = _split(f, 10 ** 8)
    d0, mid = _split(high, 10 ** 8)
    chunks = (d0, *_split(mid, 10 ** 4), *_split(low, 10 ** 4))
    out = np.empty((len(v), _STRIDE), np.uint8)
    words = out.view(np.uint32)
    significant = np.ones(len(v), np.int8)  # digits up to the last nonzero one
    for i, chunk in enumerate(chunks):
        words[:, i] = _QUADS.take(chunk)
        if i:
            np.maximum(significant, _SIGNIFICANT.take(chunk) + (4 * i - 3), out=significant)
    out[:, _SIGN] = (bits >> 63).astype(np.uint8) * ord("-")
    for i in range(5):
        words[:, _FRAC // 4 + i] = words[:, i]
    words[:, _DOT // 4] = _M32  # all ones: the template's "." and "000" pass
    words[:, _TAIL // 4] = _EXPONENTS.take(at)
    out[:, _EXP + 3] = _UNITS.take(at)
    row = (significant.astype(np.intp) - 1) * (_FIXED + 2) + _PLACES.take(at)
    out &= _TEMPLATES.take(row, axis=0)
    if special.any():
        rows = np.flatnonzero(special)
        text = [repr(x).encode() for x in v[rows].tolist()]
        out[rows, :WIDTH] = np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return out[:, :WIDTH]
