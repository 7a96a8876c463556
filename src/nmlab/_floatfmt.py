"""repr(float(v)) for a whole float64 array: Schubfach digits, Python's layout.

Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) finds
the shortest decimal that reads back to a double, the one closest to it when
several are that short, with 64x128-bit products and no bignum or loop; each
step here runs on every cell of an array at once. Giulietti rounds three
products, of the value and of the two bounds of its rounding interval. Here
only the value's, g*cp, is multiplied, and kept exact in four 64-bit words;
the bounds' are g*cp -+ g * 2**(h+1) (g * 2**h below a power of two), one
two-word sum each.

The decimal is laid out as Python's repr does: scientific notation iff the
decimal exponent is below -4 or at least 16, the exponent signed and at
least two digits, ".0" on integral values, "-0.0". Java's two-digit minimum
is left out: its test s >= 100 before trying the decimal one digit shorter,
and the padding of tiny subnormals that goes with it. Without the padding
the test gives 4.9e-323 for 5e-323; without the test too, the shorter
decimal is tried on every cell, which is right for all doubles (the rounding
interval is narrower than 10**(k+1), so it holds at most one of sp10 and
sp10 + 10). nan and inf are passed to repr one cell at a time.

All bit arithmetic stays in uint64: numpy promotes a uint64 mixed with an
int64 to float64, which drops bits. Only exponents are int64.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U((1 << 63) - 1)
_C_MIN = _U(1 << 52)
_Q_MIN = -1074
_K_MIN, _K_MAX = -324, 292
_POW10 = np.array([10**j for j in range(18)], dtype=_U)

# One cell as a template of WIDTH bytes, of which a mask keeps repr's: a sign,
# "0.000" (the lead of 0.000ddd), the first 16 of the 17 digits (before the
# point), ".", all 17 digits (after the point), then "e+-" and three exponent
# digits.
_SIGN, _LEAD, _INT, _DOT, _FRAC, _EXP = 0, 1, 6, 22, 23, 40
WIDTH = 46
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 16 + b"." + b"0" * 17 + b"e+-000", dtype=np.uint8)
# Layout classes: 0-19 positional with exponent -4..15; 20-23 scientific with
# exponent >= 16, >= 100, < 0, <= -100.
_CLASSES = 24


# floor(log10(2**e)), floor(log10(3/4 * 2**e)) and floor(log2(10**e)) by fixed-point
# products, exact over the exponents of doubles (as in Giulietti's MathUtils).
def _flog10pow2(e):
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    return (e * 913_124_641_741) >> 38


def _g_words() -> np.ndarray:
    """(2, 617) uint64: g1 and g0 of g = g1*2**63 + g0.

    For each k in [_K_MIN, _K_MAX], 10**-k = beta * 2**r with 2**125 <= beta < 2**126
    and g = floor(beta) + 1, computed exactly with Python ints.
    """
    words = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        words.append((g >> 63, g & ((1 << 63) - 1)))
    return np.array(words, dtype=_U).T.copy()


def _keep_rows() -> np.ndarray:
    """(_CLASSES * 17 * 2, WIDTH) bool: the template bytes repr keeps per layout.

    The row of (class, digit count nd, negative) is (class * 17 + nd - 1) * 2 + negative.
    """
    cls = np.arange(_CLASSES)[:, None, None]
    nd = np.arange(1, 18)[:, None]
    j = np.arange(WIDTH)
    e = cls - 4

    def span(lo, hi):
        return (lo <= j) & (j < hi)

    sci = (span(_INT, _INT + 1) | (j == _DOT) & (nd > 1) | span(_FRAC + 1, _FRAC + nd)
           | (j == _EXP) | (j == _EXP + 1 + (cls >= 22)) | (j >= _EXP + 4 - cls % 2))
    small = span(_LEAD, _LEAD + 1 - e) | span(_FRAC, _FRAC + nd)  # 0.000ddd
    # ddd.ddd, with at least one digit after the point
    whole = (span(_INT, _INT + e + 1) | (j == _DOT)
             | span(_FRAC + e + 1, _FRAC + np.maximum(nd, e + 2)))
    keep = np.where(cls >= 20, sci, np.where(e < 0, small, whole))
    return np.stack([keep, keep | (j == _SIGN)], axis=2).reshape(-1, WIDTH)


@functools.cache
def _tables():
    """(g words, keep rows, ASCII of 0000-9999, last digit positions, ASCII of 000-324),
    built on first use: they take milliseconds that importing the package, or a small
    write, never needs. Row j of the positions holds, for each group of four digits that
    are digits 4j + 2 to 4j + 5 of 17, the position of its last nonzero digit, 0 if none."""
    quads = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    last = 4 - np.argmax(quads[:, ::-1] > 0, axis=1)
    last = np.where(quads.any(axis=1), last + 1 + 4 * np.arange(4)[:, None], 0)
    exps = np.arange(325)[:, None] // np.array([100, 10, 1]) % 10
    return (_g_words(), _keep_rows(), (quads + ord("0")).astype(np.uint8),
            last.astype(np.uint8), (exps + ord("0")).astype(np.uint8))


def _product(g, cp):
    """The high and low words of g1*cp and g0*cp, each (2, n), for g < 2**63 and cp < 2**60.

    The low words come by uint64 wraparound, the high ones from 32-bit halves gh, gl of g
    and ch, cl of cp: mid = gh*cl + gl*ch + (gl*cl >> 32) < 2**64.
    """
    gh, gl, ch, cl = g >> _U(32), g & _M32, cp >> _U(32), cp & _M32
    mid = gl * cl
    mid >>= _U(32)
    mid += gh * cl
    mid += gl * ch
    mid >>= _U(32)
    mid += gh * ch
    return mid, g * cp


def _rop(hi, lo):
    """Schubfach's round-to-odd of g*cp / 2**127, from the words of g*cp as _product gives
    them (g = g1*2**63 + g0)."""
    z = lo[0] >> _U(1)
    z += hi[1]
    return (hi[0] + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _rop_bound(hi, lo, g, s, up):
    """_rop of g*cp + (g << s) if up, else g*cp - (g << s), from the words of g*cp: a
    two-word sum, as g << s < 2**(63 + s)."""
    step_hi, step_lo = g >> (_U(64) - s), g << s
    if up:
        step_lo += lo
        step_hi += hi
        step_hi += step_lo < lo
    else:
        step_hi += lo < step_lo
        np.subtract(hi, step_hi, out=step_hi)
        np.subtract(lo, step_lo, out=step_lo)
    return _rop(step_hi, step_lo)


def _decimal(bits, bq, g_words):
    """(f, k): the shortest, closest decimal f * 10**k of each finite nonzero double.

    bq is the biased exponent of each; other cells give garbage. Temporaries are freed
    once used: they, not the cells, bound the cells a call may take.
    """
    c = bits & _U((1 << 52) - 1)
    c = np.where(bq != 0, c | _C_MIN, c)
    q = np.maximum(bq, 1) - 1075
    regular = (c != _C_MIN) | (q == _Q_MIN)
    k = np.where(regular, _flog10pow2(q), _flog10_three_quarters_pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    del q
    g = g_words.take(k - _K_MIN, axis=1)
    out = c & _U(1)
    hi, lo = _product(g, c << (h + _U(2)))  # the value's 4c * 2**h * g
    del c
    vb = _rop(hi, lo)
    # The interval's bounds are (4c -+ 2) * 2**h * g, (4c - 1) * 2**h * g below a power of two.
    high = _rop_bound(hi, lo, g, h + _U(1), True) - out
    low = _rop_bound(hi, lo, g, h + regular, False) + out
    del g, hi, lo, h, regular, out
    # A decimal d * 10**k lies in the rounding interval iff low <= 4d <= high.
    s = vb >> _U(2)
    # A decimal one digit shorter, sp10 = 10*floor(s/10) or sp10 + 10, if exactly one
    # of them lies in the interval.
    sp10 = s // _U(10) * _U(10)
    sp40 = sp10 << _U(2)
    upin = low <= sp40
    wpin = sp40 + _U(40) <= high
    del sp40
    # Otherwise s or s + 1 at full length, whichever lies in the interval; if
    # both do, the closer, the even one on a tie.
    s4 = s << _U(2)
    up = (s4 + _U(4) <= high) & ((low > s4) | (vb + (s & _U(1)) > s4 + _U(2)))
    return np.where(upin != wpin, np.where(upin, sp10, sp10 + _U(10)), s + up), k


def format_repr(x: np.ndarray) -> np.ndarray:
    """uint8 (x.size, w) for a 1-D float64 array x: row i is the ASCII bytes of
    repr(float(x[i])) in order, with NUL (0) in every other byte. The w <= WIDTH
    columns are the template's that some cell of x keeps.
    """
    g_words, keep_rows, digit_quads, last_digit, exp_digits = _tables()
    x = np.ascontiguousarray(x, dtype=np.float64)
    bits = x.view(_U)
    n = bits.size
    bq = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    special = np.flatnonzero(bq == 0x7FF).tolist()  # nan and inf
    f, k = _decimal(bits, bq, g_words)
    del bq
    length = np.searchsorted(_POW10, f, side="right")  # digits of f
    f *= _POW10[17 - length]  # 17 digits
    exp = k + length - 1  # scientific exponent
    del k, length
    zero = (bits << _U(1)) == 0
    f[zero] = 0
    exp[zero] = 0
    # The 17 digits as one digit and four groups of four, looked up as ASCII.
    quads = np.empty((n, 5), dtype=np.intp)
    quads[:, 0] = lead = f // _U(10**16)
    f -= lead * _U(10**16)
    high = f // _U(10**8)
    f -= high * _U(10**8)
    quads[:, 1] = quads_hi = high // _U(10**4)
    quads[:, 2] = high - quads_hi * _U(10**4)
    quads[:, 3] = quads_lo = f // _U(10**4)
    quads[:, 4] = f - quads_lo * _U(10**4)
    del f, lead, high, quads_hi, quads_lo
    digits = digit_quads.take(quads, axis=0).reshape(n, 20)[:, 3:]
    nd = np.ones(n, dtype=np.uint8)  # significant digits: the last nonzero one's position
    for j in range(4):
        np.maximum(nd, last_digit[j].take(quads[:, j + 1]), out=nd)
    del quads
    mag = np.abs(exp)
    sci = (exp < -4) | (exp >= 16)
    cls = np.where(sci, 20 + 2 * (exp < 0) + (mag >= 100), exp + 4)
    rows = (cls * 17 + nd - 1) * 2 + (bits >> _U(63)).astype(np.intp)
    del exp, zero, nd, sci, cls
    # Only the layouts present, and of their template columns only those that some cell
    # keeps, and the first four, over which nan and inf are written. The digits after the
    # point are kept from the first used to the last, so that each run of digits (before
    # the point, after it, of the exponent) is one slice.
    present = np.flatnonzero(np.bincount(rows, minlength=len(keep_rows)))
    layouts = keep_rows[present]
    used = layouts.any(axis=0)
    used[:4] |= bool(special)
    frac = used[_FRAC:_EXP]
    frac |= np.logical_or.accumulate(frac) & np.logical_or.accumulate(frac[::-1])[::-1]
    cols = np.flatnonzero(used)
    chars = np.tile(_TEMPLATE[cols], (n, 1))
    for lo, hi, source in ((_INT, _DOT, digits), (_FRAC, _EXP, digits),
                           (_EXP + 3, WIDTH, exp_digits.take(mag, axis=0))):
        a, b = np.searchsorted(cols, (lo, hi))
        first = np.argmax(used[lo:hi])
        chars[:, a:b] = source[:, first:first + b - a]
    chars *= keep_rows[:, cols].take(rows, axis=0)  # NUL in the bytes repr drops
    for i in special:
        chars[i] = np.frombuffer(repr(float(x[i])).encode().ljust(cols.size, b"\0"), np.uint8)
    return chars
