"""The integer eliminant and square-free part against the Fraction routes.

``resultant_eliminating`` clears denominators, takes integer Sylvester
determinants by Bareiss elimination at x = 0, 1, ... and interpolates by
forward differences; ``squarefree_part`` runs a primitive remainder
sequence on integers.  The references below are the Fraction routes they
replaced: Gaussian elimination over the rationals at the sample points
0, 1, -1, 2, -2, ..., Newton divided differences, and the monic Euclidean
gcd.  The results must be equal, coefficient for coefficient.
"""

import functools
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bivasym import BivariatePolynomial, Direction, parse_problem
from bivasym.critical import critical_system
from bivasym.errors import NonIsolatedCriticalSet
from bivasym.resultant import resultant_eliminating, sylvester_matrix
from bivasym.unipoly import (
    bareiss_minors,
    degree,
    derivative,
    determinant_fraction,
    determinant_int,
    divmod_exact,
    eval_at,
    is_zero,
    lagrange_interpolate,
    mul,
    scale,
    squarefree_part,
    trim,
)
from tests.test_acceptance import _random_polynomials

ROOT = Path(__file__).resolve().parent.parent
DIRECTIONS = [Direction(1, 1), Direction(2, 1), Direction(1, 3)]


def fraction_determinant(matrix):
    """Fraction Gaussian elimination with row pivoting."""
    m = [list(row) for row in matrix]
    n, det = len(m), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r][col:] = [a - f * b for a, b in zip(m[r][col:], m[col][col:])]
    return det


def fraction_resultant(f, g):
    """The eliminant of y by evaluation-interpolation over the rationals, the sample points 0, 1, -1, ..."""
    f_rows, g_rows = f.coeffs_in_y(), g.coeffs_in_y()
    m, n = len(f_rows) - 1, len(g_rows) - 1
    if m == 0 or n == 0:
        base, power = (f_rows[0], n) if m == 0 else (g_rows[0], m)
        return functools.reduce(mul, [base] * power, [Fraction(1)])
    bound = n * f.degree_x() + m * g.degree_x()
    xs = [Fraction((k + 1) // 2 * (1 if k % 2 else -1)) for k in range(bound + 1)]
    ys = [
        fraction_determinant(
            sylvester_matrix([eval_at(r, x0) for r in f_rows], [eval_at(r, x0) for r in g_rows])
        )
        for x0 in xs
    ]
    return trim(lagrange_interpolate(xs, ys))


def fraction_squarefree_part(p):
    """``p`` over its monic Euclidean gcd with ``p'``, all in Fractions."""
    a, b = trim(p), derivative(p)
    while not is_zero(b):
        a, b = b, divmod_exact(a, b)[1]
    q, r = divmod_exact(p, scale(a, 1 / a[-1]))
    assert is_zero(r)
    return q


def _systems():
    out = []
    for H in itertools.islice(_random_polynomials(20260810), 200):
        for direction in DIRECTIONS:
            try:
                out.append(critical_system(H, direction))
            except NonIsolatedCriticalSet:
                pass
    for path in sorted((ROOT / "problems").glob("*.json")):
        spec = parse_problem(path.read_text())
        out.append(critical_system(spec.H, spec.direction))
    return out


def _check(f, g, eliminate):
    """The eliminant of ``eliminate``, "y" or "x", against the Fraction route."""
    if eliminate == "x":
        f, g = f.swap_variables(), g.swap_variables()
    got = resultant_eliminating(f, g)
    assert got == fraction_resultant(f, g)
    assert all(type(c) is Fraction for c in got)
    if degree(got) >= 1:
        assert squarefree_part(got) == fraction_squarefree_part(got)


@pytest.mark.parametrize("eliminate", ["y", "x"])
def test_integer_eliminant_equals_fraction_route(eliminate):
    # The first 200 criterion-4 polynomials at 1:1, 2:1 and 1:3, and every
    # problem file.
    systems = _systems()
    assert len(systems) > 590
    for f, g in systems:
        _check(f, g, eliminate)


def _poly(terms):
    return BivariatePolynomial({ij: Fraction(c) for ij, c in terms.items()})


rational_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    min_size=1,
    max_size=5,
).map(BivariatePolynomial)


@settings(max_examples=80, deadline=None)
@given(rational_polys, rational_polys, st.sampled_from(["y", "x"]))
# A y-degree 0 on either side, where the Sylvester matrix is diagonal and the
# reference is the Fraction power f^n or g^m, and on both, where it is empty
# and the eliminant 1.  The y-free x/2 - 1/2 and x^2/2 - x/2 vanish at the
# sample points x = 1 and x = 0, 1.
@example(_poly({(1, 0): "1/2", (0, 0): "-1/2"}), _poly({(0, 2): "1", (1, 1): "1", (0, 0): "-3"}), "y")
@example(_poly({(0, 3): "1/3", (1, 1): "1", (0, 0): "1"}), _poly({(2, 0): "1/2", (1, 0): "-1/2"}), "y")
@example(_poly({(1, 0): "1/3", (0, 0): "1"}), _poly({(0, 0): "2", (1, 0): "-1"}), "y")
def test_rational_pairs_match_the_fraction_route(f, g, eliminate):
    # A non-integer coefficient makes the scaling a^n b^m differ from 1.
    assume(f and g and any(c.denominator > 1 for c in (*f.terms.values(), *g.terms.values())))
    _check(f, g, eliminate)


def test_squarefree_part_of_a_rational_polynomial():
    # (x/2 - 1/3)^2 (3x + 5/7): the rational content and both factors survive.
    linear = [Fraction(-1, 3), Fraction(1, 2)]
    p = mul(mul(linear, linear), [Fraction(5, 7), Fraction(3)])
    assert squarefree_part(p) == fraction_squarefree_part(p)
    assert degree(squarefree_part(p)) == 2


def test_fraction_determinant_is_the_integer_one_over_the_row_denominators():
    m = [[Fraction(1, 2), Fraction(2, 3)], [Fraction(3), Fraction(-4, 5)]]
    assert determinant_fraction(m) == fraction_determinant(m) == Fraction(-12, 5)
    assert determinant_int([[2, 0, 1], [0, 0, 3], [1, 4, 0]]) == -24
    assert bareiss_minors([]) == [1] and determinant_int([]) == 1
