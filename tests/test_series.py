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
from bivasym.series import ScaledRow

BOX = (3, 3)
# Two small integers per coefficient: st.fractions is slow enough to draw
# that 16 of them per series can trip Hypothesis's too_slow health check.
coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def small_series(draw):
    R, S = BOX
    rows = [[draw(coeffs) for _ in range(S + 1)] for _ in range(R + 1)]
    return TruncatedSeries(BOX, rows)


def _scaled(box, den=6, w=10, seed=1):
    """A series over den*w**(r+s), the same series built from its Fraction rows, and the rows."""
    R, S = box
    nums = [[(7 * seed + 31 * r - 13 * s) % 23 - 11 for s in range(S + 1)] for r in range(R + 1)]
    scales = [den * w**k for k in range(R + S + 1)]
    rows = [[F(n, scales[r + s]) for s, n in enumerate(row)] for r, row in enumerate(nums)]
    return TruncatedSeries.scaled(box, nums, scales), TruncatedSeries(box, rows), rows


def test_scaled_rows_read_like_lists():
    scaled, eager, _ = _scaled((3, 4))
    rows = scaled.coeffs
    assert len(rows) == 4 and all(len(row) == 5 for row in rows)
    assert [list(row) for row in rows] == eager.coeffs
    assert rows[-1][-1] == eager.coeffs[3][4] == scaled[3, 4]
    assert rows[-4][-5] == eager.coeffs[0][0]
    assert list(rows[-2]) == eager.coeffs[2]
    with pytest.raises(IndexError):
        rows[4]
    with pytest.raises(IndexError):
        rows[0][-6]


def test_scaled_row_slices_are_lists_of_fractions():
    scaled, _, plain = _scaled((3, 4))
    for r, row in enumerate(scaled.coeffs):
        for cut in (slice(1, 3), slice(None), slice(None, None, -2), slice(-3, None), slice(7, 9)):
            part = row[cut]
            assert part == plain[r][cut]
            assert all(type(c) is F for c in part)


def test_scaled_equality_both_ways():
    scaled, eager, plain = _scaled((3, 4))
    other, other_eager, _ = _scaled((3, 4), seed=2)
    assert scaled == eager and eager == scaled
    assert not (scaled != eager) and not (eager != scaled)
    assert scaled.coeffs == eager.coeffs and eager.coeffs == scaled.coeffs
    assert scaled.coeffs[2] == eager.coeffs[2] and eager.coeffs[2] == scaled.coeffs[2]
    assert scaled != other and other != scaled
    assert scaled != other_eager and other_eager != scaled
    assert scaled.coeffs[1] != other_eager.coeffs[1] and other_eager.coeffs[1] != scaled.coeffs[1]
    assert scaled.coeffs[1] != list(eager.coeffs[1])[:-1]
    assert scaled.coeffs == plain and plain == scaled.coeffs
    assert scaled.coeffs[1] != plain[1][:-1] and plain[1][:-1] != scaled.coeffs[1]
    # The same values over other scales.
    tenfold = [[10 * n for n in row.nums] for row in scaled.coeffs]
    assert scaled == TruncatedSeries.scaled((3, 4), tenfold, [60 * 10**k for k in range(8)])


def test_series_mul_with_a_scaled_operand():
    scaled, eager, _ = _scaled((4, 3))
    other = _scaled((4, 3), den=5, w=3, seed=3)[1]
    expected = series_mul(eager, other)
    assert series_mul(scaled, other) == expected
    assert series_mul(other, scaled) == expected
    assert series_mul(scaled, scaled) == series_mul(eager, eager)


@pytest.mark.parametrize("box", [(0, 0), (0, 12), (12, 0), (5, 7)])
def test_poly_times_scaled_series_stays_on_integers(box):
    G = BivariatePolynomial.from_items(
        [(0, 0, "-2/3"), (1, 0, "5/4"), (0, 1, "1/6"), (1, 1, "5/2"), (0, 2, "-1/11")]
    )
    scaled, eager, _ = _scaled(box, den=12, w=15)
    product = poly_times_series(G, scaled)
    assert all(isinstance(row, ScaledRow) for row in product.coeffs)
    expected = series_mul(TruncatedSeries.from_polynomial(G, box), eager)
    assert product == expected
    assert poly_times_series(G, eager) == expected


@pytest.mark.parametrize(
    "terms",
    [
        # Constant terms whose integer factor L*c_00 is 1: the rows are copied.
        [(0, 0, "1"), (1, 0, "-1"), (1, 1, "-1")],
        [(0, 0, "1/6"), (1, 0, "5/2"), (0, 2, "-1/3")],
        [(0, 0, "1")],
        # Factor 2, -1, and no constant term: the rows are multiplied.
        [(0, 0, "1"), (1, 0, "1/2")],
        [(0, 0, "-1"), (0, 1, "3")],
        [(1, 0, "1"), (2, 1, "-7/5")],
    ],
)
def test_poly_times_series_against_fractions(terms):
    G = BivariatePolynomial.from_items(terms)
    box = (6, 5)
    scaled, eager, _ = _scaled(box, den=12, w=15)
    before = [list(row.nums) for row in scaled.coeffs]
    product = poly_times_series(G, scaled)
    R, S = box
    for r in range(R + 1):
        for s in range(S + 1):
            want = sum(
                (c * eager[r - i, s - j] for (i, j), c in G.terms.items() if i <= r and j <= s),
                F(0),
            )
            assert product[r, s] == want
    assert [row.nums for row in scaled.coeffs] == before


def test_scaled_shape_is_checked():
    with pytest.raises(ValueError):
        TruncatedSeries.scaled((1, 1), [[1, 2], [3]], [1, 2, 4])
    with pytest.raises(ValueError):
        TruncatedSeries.scaled((1, 1), [[1, 2], [3, 4]], [1, 2])


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
