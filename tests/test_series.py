from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc

from bivasym import (
    BivariatePolynomial,
    Prefactor,
    TruncatedSeries,
    coeff_recurrence,
    poly_times_series,
    series_mul,
)
from bivasym.errors import BoxMismatch

BOX = (3, 3)
# Two small integers per coefficient: st.fractions is slow enough to draw
# that 16 of them per series can trip Hypothesis's too_slow health check.
coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def small_series(draw):
    R, S = BOX
    rows = [[draw(coeffs) for _ in range(S + 1)] for _ in range(R + 1)]
    return TruncatedSeries(BOX, rows)


def test_identity_series():
    one = TruncatedSeries.one(BOX)
    b = TruncatedSeries(BOX, [[F(i + 2 * j) for j in range(4)] for i in range(4)])
    assert series_mul(one, b) == b


def test_hand_expansion():
    box = (1, 1)
    a = TruncatedSeries.from_polynomial(
        BivariatePolynomial.from_items([(0, 0, "1"), (1, 0, "1")]), box
    )
    b = TruncatedSeries.from_polynomial(
        BivariatePolynomial.from_items([(0, 0, "1"), (0, 1, "1")]), box
    )
    prod = series_mul(a, b)
    assert prod.coeffs == [[F(1), F(1)], [F(1), F(1)]]


def test_box_mismatch_raises():
    with pytest.raises(BoxMismatch):
        series_mul(TruncatedSeries.one((2, 2)), TruncatedSeries.one((2, 3)))


@given(small_series(), small_series())
@settings(max_examples=40)
def test_mul_commutative(a, b):
    assert series_mul(a, b) == series_mul(b, a)


@given(small_series(), small_series(), small_series())
@settings(max_examples=25)
def test_mul_associative(a, b, c):
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def test_sqrt_table_product(multinomial_h):
    # (1-x-y) * (1-x-y)^(-1/2) must equal the table of (1-x-y)^(+1/2).
    box = (6, 6)
    inv_sqrt = coeff_recurrence(multinomial_h, None, F(1, 2), box)
    plus_sqrt = coeff_recurrence(multinomial_h, None, F(-1, 2), box)
    poly_as_series = TruncatedSeries.from_polynomial(multinomial_h, box)
    assert series_mul(poly_as_series, inv_sqrt.series) == plus_sqrt.series


def test_poly_times_series_matches_series_mul(multinomial_h):
    box = (5, 5)
    t = coeff_recurrence(multinomial_h, None, F(1, 2), box)
    via_poly = poly_times_series(multinomial_h, t.series)
    via_series = series_mul(TruncatedSeries.from_polynomial(multinomial_h, box), t.series)
    assert via_poly == via_series


def test_prefactor_value_and_rationality():
    p = Prefactor(F(2), F(-1, 2))
    assert p.rational_value() is None
    assert str(p) == "(2)^(-1/2)"
    assert abs(float(p.value()) - 2 ** -0.5) < 1e-15
    q = Prefactor(F(4), F(-1, 2))
    assert q.rational_value() == F(1, 2)
    assert Prefactor().is_one()


def test_negative_base_prefactor_has_no_noise_real_part():
    # (-1)^(-1/2) on the principal branch is exactly -1j: its real part is
    # zero, not rounding noise.
    assert Prefactor(F(-1), F(-1, 2)).value() == mpc(0, -1)
    assert Prefactor(F(-4), F(1, 2)).value() == mpc(0, 2)
    assert Prefactor(F(-1), F(3)).value() == mpc(-1, 0)
    z = complex(Prefactor(F(-2), F(1, 3)).value())
    assert abs(z - complex(-2) ** (1 / 3)) < 1e-15
