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
        chars, keep = _floatfmt.format_repr(x[i:i + CHUNK])
        chars = np.c_[chars, np.full(len(chars), ord("\n"), dtype=np.uint8)]
        keep = np.c_[keep, np.ones(len(keep), dtype=bool)]
        out += np.compress(keep.ravel(), chars.ravel()).tobytes().decode("ascii").split("\n")[:-1]
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
