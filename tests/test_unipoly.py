from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from bivasym.unipoly import (
    add,
    degree,
    derivative,
    determinant_fraction,
    divmod_exact,
    eval_at,
    gcd,
    lagrange_interpolate,
    mul,
    squarefree_part,
    trim,
)

coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=24)
polys = st.lists(coeffs, min_size=1, max_size=6)


def test_divmod_exact_identity():
    a = [F(2), F(0), F(-3), F(1)]
    b = [F(-1), F(1)]
    q, r = divmod_exact(a, b)
    assert add(mul(q, b), r) == trim(a)


@given(polys, polys)
@settings(max_examples=60)
def test_divmod_reconstructs(a, b):
    if degree(b) < 0:
        return
    q, r = divmod_exact(a, b)
    assert add(mul(q, b), r) == trim(a)
    assert degree(r) < degree(b) or degree(r) < 0


def test_gcd_of_designed_factors():
    common = [F(1), F(2), F(1)]  # (1+x)^2
    a = mul(common, [F(3), F(1)])
    b = mul(common, [F(-5), F(2)])
    g = gcd(a, b)
    # monic (1+x)^2 = 1 + 2x + x^2
    assert g == [F(1), F(2), F(1)]


def test_squarefree_part_keeps_each_root_once():
    # 3 x^2 (x - 1)^3 (x + 2) -> 3 x (x - 1) (x + 2)
    three_x, x_minus_1, x_plus_2 = [F(0), F(3)], [F(-1), F(1)], [F(2), F(1)]
    p = mul(mul(three_x, [F(0), F(1)]), mul(mul(x_minus_1, x_minus_1), mul(x_minus_1, x_plus_2)))
    assert squarefree_part(p) == mul(three_x, mul(x_minus_1, x_plus_2))
    assert squarefree_part([F(5)]) == [F(5)]


def test_lagrange_recovers_polynomial():
    p = [F(1, 3), F(-2), F(0), F(5, 7)]
    xs = [F(k) for k in range(len(p))]
    ys = [eval_at(p, x) for x in xs]
    assert lagrange_interpolate(xs, ys) == trim(p)


@given(polys)
@settings(max_examples=40)
def test_lagrange_round_trip(p):
    n = max(degree(p) + 1, 1)
    xs = [F(k) for k in range(n)]
    ys = [eval_at(p, x) for x in xs]
    assert lagrange_interpolate(xs, ys) == trim(p)


def test_derivative():
    assert derivative([F(5), F(3), F(2)]) == [F(3), F(4)]
    assert derivative([F(7)]) == [F(0)]


def test_determinant_known():
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert determinant_fraction(m) == F(-2)
    assert determinant_fraction([]) == F(1)
    singular = [[F(1), F(2)], [F(2), F(4)]]
    assert determinant_fraction(singular) == 0


def test_determinant_triangular_product():
    m = [
        [F(2), F(5), F(7)],
        [F(0), F(1, 3), F(11)],
        [F(0), F(0), F(-6)],
    ]
    assert determinant_fraction(m) == F(2) * F(1, 3) * F(-6)
