"""The vectorized float formatter against Python's repr, cell for cell."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmlab import _floatfmt

CHUNK = 1 << 14
SRC = Path(__file__).resolve().parent.parent / "src"


def rendered(x):
    """The kernel's text of each cell of x, in chunks of CHUNK cells."""
    x = np.asarray(x, dtype=np.float64).ravel()
    out = []
    for i in range(0, x.size, CHUNK):
        chars = _floatfmt.format_repr(x[i:i + CHUNK])
        chars = np.c_[chars, np.full(len(chars), ord("\n"), dtype=np.uint8)]
        out += chars.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return out


def assert_repr(x):
    values = np.asarray(x, dtype=np.float64).ravel().tolist()
    got = rendered(values)
    bad = [(v, g) for v, g in zip(values, got) if g != repr(v)]
    assert len(got) == len(values) and not bad, bad[:10]


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


RNG = np.random.default_rng(20201)
EDGES = [
    0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 2 / 3, 1e-4, 1e-5, 0.0001234, 0.00001234,
    9.999999999999999e-05, 1e15, 1e16, 9999999999999998.0, 1e16 + 2, 123456789012345680.0,
    0.5, 1.5, 100.0, 1e22, 1e23, 5e-324, -5e-324, 1e-323, 5e-323, 2.2250738585072014e-308,
    2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308, 4.35, 0.015,
    float("nan"), float("inf"), float("-inf"),
]
FAMILIES = {
    "smallest_bit_patterns": from_bits(np.arange(1 << 16, dtype=np.uint64)),
    "random_bit_patterns": from_bits(RNG.integers(0, 2**64, 100_000, dtype=np.uint64,
                                                  endpoint=False)),
    "powers_of_two": np.ldexp(np.r_[1.0, -1.0][:, None], np.arange(-1074, 1024)),
    "powers_of_ten": np.array([float(f"{s}1e{k}") for s in "+-" for k in range(-323, 309)]),
    "integers": np.arange(-100_000, 100_001, dtype=np.float64),
    "mixed_magnitudes": RNG.normal(size=100_000) * 10.0 ** RNG.integers(-30, 30, 100_000),
    "layout_edges": np.array(EDGES),
}


class TestAgainstRepr:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_family(self, name):
        assert_repr(FAMILIES[name])

    def test_neighbours_of_layout_switches(self):
        # The last and first values of each layout, and their float neighbours.
        anchors = np.array([1e-4, 1e-5, 1e16, 1e15, 1e100, 1e-100, 1e-99, 1e99])
        anchors = np.r_[anchors, -anchors]
        steps = np.arange(-3, 4)
        assert_repr(anchors[:, None] + steps * np.spacing(anchors)[:, None])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
    @example([5e-323, 4.9e-324, 1e23, -0.0])
    def test_floats(self, values):
        assert_repr(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_bit_patterns(self, bits):
        assert_repr(from_bits(bits))

    def test_tables_are_built_on_first_call(self):
        code = ("import nmlab.cli, nmlab._floatfmt as f; "
                "assert f._tables.cache_info().currsize == 0; "
                "f.format_repr(f.np.ones(1)); assert f._tables.cache_info().currsize == 1")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))


def mulhi_words(a_hi, a_lo, b_hi, b_lo):
    """High 64 bits of the 128-bit product of a and b, given as 32-bit words."""
    m32, w = np.uint64(0xFFFF_FFFF), np.uint64(32)
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (lo_lo >> w) + (lo_hi & m32) + (hi_lo & m32)
    return a_hi * b_hi + (lo_hi >> w) + (hi_lo >> w) + (mid >> w)


def three_product_decimal(bits):
    """Oracle for _floatfmt._decimal: Schubfach's (f, k) with the value and both bounds of the
    rounding interval each from its own round-to-odd product (64x128 bits, 32-bit words)."""
    u, m32, m63 = np.uint64, np.uint64(0xFFFF_FFFF), np.uint64((1 << 63) - 1)
    g1, g0 = _floatfmt._tables()[0]
    words = np.array([g1 >> u(32), g0 >> u(32), g1 & m32, g0 & m32, g1])

    def rop(g, cp):
        y1, x1 = mulhi_words(g[0:2], g[2:4], cp >> u(32), cp & m32)
        z = ((g[4] * cp) >> u(1)) + x1
        return (y1 + (z >> u(63))) | (((z & m63) + m63) >> u(63))

    bq = ((bits >> u(52)) & u(0x7FF)).astype(np.int64)
    t = bits & u((1 << 52) - 1)
    c = np.where(bq != 0, t | u(1 << 52), t)
    q = np.maximum(bq, 1) - 1075
    regular = (c != u(1 << 52)) | (q == -1074)
    k = np.where(regular, _floatfmt._flog10pow2(q), _floatfmt._flog10_three_quarters_pow2(q))
    h = (q + _floatfmt._flog2pow10(-k) + 2).astype(u)
    g = words.take(k - _floatfmt._K_MIN, axis=1)
    out = c & u(1)
    cb = c << u(2)
    vb = rop(g, cb << h)
    low = rop(g, (cb - np.where(regular, u(2), u(1))) << h) + out
    high = rop(g, (cb + u(2)) << h) - out
    s = vb >> u(2)
    sp10 = s // u(10) * u(10)
    upin, wpin = low <= sp10 << u(2), (sp10 << u(2)) + u(40) <= high
    s4 = s << u(2)
    up = (s4 + u(4) <= high) & ((low > s4) | (vb + (s & u(1)) > s4 + u(2)))
    return np.where(upin != wpin, np.where(upin, sp10, sp10 + u(10)), s + up), k


def assert_decimal_matches_oracle(bits):
    bits = np.asarray(bits, dtype=np.uint64)
    bq = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64)
    finite = (bq != 0x7FF) & ((bits << np.uint64(1)) != 0)  # other cells give garbage
    f, k = _floatfmt._decimal(bits, bq, _floatfmt._tables()[0])
    f_oracle, k_oracle = three_product_decimal(bits)
    assert np.array_equal(f[finite], f_oracle[finite])
    assert np.array_equal(k[finite], k_oracle[finite])


POWER_OF_TWO = 0x3FF0_0000_0000_0000  # 1.0: c = 2**52, the irregular interval
SMALLEST_NORMAL = 0x0010_0000_0000_0000


class TestDerivedBounds:
    """_decimal's interval bounds, derived from the value's product, against three products."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    @example([POWER_OF_TWO, 0x0020_0000_0000_0000, 0x7FE0_0000_0000_0000, 1 << 63 | POWER_OF_TWO])
    @example([SMALLEST_NORMAL - 1, SMALLEST_NORMAL, SMALLEST_NORMAL + 1, 1, 2, 3])
    def test_bit_patterns(self, bits):
        assert_decimal_matches_oracle(bits)

    def test_powers_of_two_and_the_subnormal_edge(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024)).view(np.uint64)
        edge = SMALLEST_NORMAL + np.arange(-4096, 4096, dtype=np.int64)
        assert_decimal_matches_oracle(np.r_[powers, edge.astype(np.uint64)])


SPECIALS = [float("nan"), float("inf"), float("-inf")]


@st.composite
def one_layout(draw, exponents=st.integers(-307, 307), signs=st.sampled_from("+-")):
    """Floats with one sign, decimal exponent and count of significant digits (at most
    15, so that each decimal is its float's repr): one layout, so one keep row."""
    exponent, nd, sign = draw(exponents), draw(st.integers(1, 15)), draw(signs)
    # The last digit is nonzero, so that the decimal has exactly nd digits.
    digits = st.integers(10 ** (nd - 1), 10**nd - 1).map(lambda m: m + (nd > 1 and m % 10 == 0))
    return [float(f"{sign}{m}e{exponent - nd + 1}")
            for m in draw(st.lists(digits, min_size=1, max_size=50))]


def with_specials(chunks):
    """Chunks, or chunks with nan and +-inf at drawn positions."""
    @st.composite
    def mixed(draw):
        values = draw(chunks)
        for special in draw(st.lists(st.sampled_from(SPECIALS), min_size=1, max_size=4)):
            values.insert(draw(st.integers(0, len(values))), special)
        return values
    return st.one_of(chunks, mixed())


# Negative, scientific, three exponent digits: a few layouts that differ in exponent and digits.
SCIENTIFIC_NEGATIVE = st.lists(
    one_layout(st.integers(100, 307) | st.integers(-307, -100), st.just("-")),
    min_size=1, max_size=4).map(lambda layouts: sum(layouts, []))
ZEROS = st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=50)


class TestCroppedChunks:
    """format_repr keeps only the template columns a chunk uses: repr still comes out."""

    @staticmethod
    def assert_chunk(values):
        chars = _floatfmt.format_repr(np.array(values))
        got = [bytes(c[c != 0]).decode("ascii") for c in chars]
        assert got == [repr(v) for v in values]
        return chars

    @settings(max_examples=300, deadline=None)
    @given(one_layout())
    @example([1e-05, 2e-05])
    @example([-1.5e300])
    def test_one_layout_is_cropped_to_its_keep_row(self, values):
        chars = self.assert_chunk(values)
        assert chars.all() and chars.shape[1] < _floatfmt.WIDTH  # no NUL column

    @settings(max_examples=300, deadline=None)
    @given(one_layout(), one_layout())
    @example([1.5e20], [12345678901.5])  # digits after the point: 1 and 11-12, not 2-10
    def test_two_layouts(self, first, second):
        self.assert_chunk(first + second)

    @settings(max_examples=200, deadline=None)
    @given(with_specials(SCIENTIFIC_NEGATIVE))
    def test_negative_scientific_with_three_digit_exponents(self, values):
        self.assert_chunk(values)

    @settings(max_examples=100, deadline=None)
    @given(with_specials(ZEROS))
    def test_zeros(self, values):
        chars = self.assert_chunk(values)
        if all(v == 0 for v in values):  # no nan or inf
            assert chars.shape[1] <= 4  # a sign, "0", "." and "0"

    @settings(max_examples=200, deadline=None)
    @given(with_specials(one_layout()))
    def test_one_layout_with_nan_and_inf(self, values):
        self.assert_chunk(values)
