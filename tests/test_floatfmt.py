"""The vectorised "%.17g" kernel prints exactly what Python's % prints."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from superhedge.floatfmt import CELL, g17_cells


def formatted(values) -> list[str]:
    cells = g17_cells(np.asarray(values, dtype=float))
    assert cells.shape == (len(values), CELL)
    assert not cells[:, -1].any()  # room for a delimiter after every value
    return [bytes(row[row != 0]).decode("ascii") for row in cells]


def expected(values) -> list[str]:
    return ["%.17g" % v for v in values]


def ties_at_17th_digit() -> list[tuple[int, float]]:
    """(s, v) with v = odd * 2^-(s+1) and 10^16 <= v * 10^s < 10^17, so that
    v * 10^s ends in exactly .5: one group per exponent from 15 down to -6."""
    out = []
    for s in range(1, 23):
        lo = math.ceil(2 ** (s + 1) * 10.0 ** (16 - s)) | 1
        out += [(s, m / 2 ** (s + 1)) for m in range(lo, lo + 8, 2)]
    return out


def powers_of_ten_and_neighbours() -> list[float]:
    out = []
    for k in range(-8, 18):
        p = float(f"1e{k}")
        out += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    return out


EDGES = [
    1e-6,
    math.nextafter(1e-6, 0.0),
    math.nextafter(1e-6, 1.0),
    9.9999999999999995e-7,
    1e16,
    math.nextafter(1e16, 0.0),
    math.nextafter(1e16, math.inf),
    1e15 + 0.25,
    5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    0.1,
    0.0,
    -0.0,
    math.nan,
    math.inf,
    -math.inf,
    *powers_of_ten_and_neighbours(),
    *(v for _, v in ties_at_17th_digit()),
]


def test_named_edges():
    values = EDGES + [-v for v in EDGES]
    assert formatted(values) == expected(values)


def test_tie_values_are_ties_rounding_both_ways():
    floors = []
    for s, v in ties_at_17th_digit():
        scaled = Fraction(v) * 10**s
        assert scaled.denominator == 2 and 10**16 <= scaled < 10**17
        floors.append(math.floor(scaled))
    # Half to even rounds an even floor down and an odd one up: both occur.
    assert {f % 2 for f in floors} == {0, 1}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        min_size=1,
        max_size=40,
    )
)
def test_hypothesis_floats(values):
    assert formatted(values) == expected(values)


def test_random_bit_patterns():
    rng = np.random.default_rng(20240517)
    values = rng.integers(-(2**63), 2**63, 50_000, dtype=np.int64).view(np.float64)
    assert formatted(values) == expected(values.tolist())


def test_random_magnitudes():
    """Values of every exponent in the exact range, both signs."""
    rng = np.random.default_rng(7)
    values = np.ldexp(rng.uniform(1.0, 2.0, 100_000), rng.integers(-21, 54, 100_000))
    values *= rng.choice([-1.0, 1.0], values.size)
    assert formatted(values) == expected(values.tolist())
