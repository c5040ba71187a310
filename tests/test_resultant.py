import itertools
import math
from fractions import Fraction as F
from functools import reduce
from pathlib import Path

import pytest

from bivasym import BivariatePolynomial, Direction, parse_problem
from bivasym import critical
from bivasym.critical import critical_system, eliminant, solve_critical
from bivasym.errors import NonIsolatedCriticalSet
from bivasym.resultant import (
    first_subresultant,
    resultant_eliminating,
    shares_positive_dimensional_zero,
    sylvester_matrix,
)
from bivasym.unipoly import degree, determinant_fraction, divmod_exact, eval_at, gcd, is_zero, trim
from tests.test_acceptance import _random_polynomials

PROBLEM_FILES = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))


def bp(items):
    return BivariatePolynomial.from_items(items)


def _shares(f, g) -> bool:
    return shares_positive_dimensional_zero(f, g, resultant_eliminating(f, g))


def test_linear_pair_gives_difference():
    # res_y(y - a(x), y - b(x)) = a(x) - b(x) up to sign
    f = bp([(0, 1, "1"), (1, 0, "-1")])        # y - x
    g = bp([(0, 1, "1"), (2, 0, "-3")])        # y - 3x^2
    res = resultant_eliminating(f, g)
    # Common roots exactly where x = 3x^2
    assert trim(res) in ([F(0), F(-1), F(3)], [F(0), F(1), F(-3)])


def test_designed_common_roots():
    # f = (y - x)(y - 2x), g = y - 3x: resultant roots where 3x hits x or 2x.
    f = bp([(0, 2, "1"), (1, 1, "-3"), (2, 0, "2")])
    g = bp([(0, 1, "1"), (1, 0, "-3")])
    res = resultant_eliminating(f, g)
    # (3x - x)(3x - 2x) = 2x^2
    assert trim(res) == [F(0), F(0), F(2)]


def test_common_factor_vanishes_identically():
    common = bp([(0, 0, "1"), (1, 0, "-1"), (0, 1, "-1")])
    f = common * bp([(0, 1, "1"), (1, 0, "1")])
    g = common * bp([(0, 0, "2"), (1, 0, "5")])
    assert is_zero(resultant_eliminating(f, g))
    assert _shares(f, g)


def test_common_factor_in_x_only_detected():
    # Factor depends only on x: res_y stays nonzero but res_x vanishes.
    common = bp([(0, 0, "1"), (1, 0, "-2")])  # 1 - 2x
    f = common * bp([(0, 1, "1"), (0, 0, "1")])
    g = common * bp([(0, 2, "1"), (0, 0, "-5")])
    assert not is_zero(resultant_eliminating(f, g))
    assert is_zero(resultant_eliminating(f.swap_variables(), g.swap_variables()))
    assert _shares(f, g)


def _two_eliminant_verdict(f, g) -> bool:
    """The reference: either eliminant vanishes identically."""
    return is_zero(resultant_eliminating(f, g)) or is_zero(
        resultant_eliminating(f.swap_variables(), g.swap_variables())
    )


@pytest.mark.parametrize(
    "f, g",
    [
        (bp([(0, 1, "1"), (1, 0, "-1")]), bp([(0, 1, "1"), (2, 0, "-3")])),
        (bp([(0, 0, "1"), (1, 0, "-2")]), bp([(1, 0, "3"), (2, 0, "-6")])),
        (bp([(0, 0, "2")]), bp([(0, 1, "1"), (1, 0, "1")])),
        (bp([(1, 1, "1"), (1, 0, "1")]), bp([(2, 0, "1"), (1, 2, "-1")])),
    ],
)
def test_content_gcd_matches_two_eliminants_on_small_pairs(f, g):
    assert _shares(f, g) == _two_eliminant_verdict(f, g)


def test_content_gcd_matches_two_eliminants_on_solved_systems():
    # The 32 random-solve polynomials at 1:1 and every problem file.
    systems = [
        critical_system(H, Direction(1, 1))
        for H in itertools.islice(_random_polynomials(20260810), 32)
    ]
    for path in PROBLEM_FILES:
        spec = parse_problem(path.read_text())
        systems.append(critical_system(spec.H, spec.direction))
    for f, g in systems:
        assert _shares(f, g) == _two_eliminant_verdict(f, g)


def _fraction_row_verdict(f, g, res_y) -> bool:
    """The reference: the gcd over Q[x] of the ``coeffs_in_y`` Fraction rows."""
    return is_zero(res_y) or degree(reduce(gcd, f.coeffs_in_y() + g.coeffs_in_y())) > 0


def test_integer_row_gcd_matches_the_fraction_row_gcd():
    # The critical systems of the first 64 family polynomials at 1:1, 2:1
    # and 1:3 (where H is not a function of x^r0*y^s0 alone) and of every
    # problem file, and the first eight of them times a factor 1 - 2x,
    # which only the gcd can see.
    family = itertools.islice(_random_polynomials(20260810), 64)
    directions = [Direction(1, 1), Direction(2, 1), Direction(1, 3)]
    systems = []
    for H, d in itertools.product(family, directions):
        try:
            systems.append(critical_system(H, d))
        except NonIsolatedCriticalSet:
            pass
    for path in PROBLEM_FILES:
        spec = parse_problem(path.read_text())
        systems.append(critical_system(spec.H, spec.direction))
    factor = bp([(0, 0, "1"), (1, 0, "-2")])
    systems += [(f * factor, g * factor) for f, g in systems[:8]]
    verdicts = []
    for f, g in systems:
        res_y = resultant_eliminating(f, g)
        verdicts.append(shares_positive_dimensional_zero(f, g, res_y))
        assert verdicts[-1] == _fraction_row_verdict(f, g, res_y)
    assert verdicts.count(True) >= 8


def test_no_common_factor_not_flagged(color_swap_h, color_swap_direction):
    f, g = critical_system(color_swap_h, color_swap_direction)
    assert not _shares(f, g)


def test_color_swap_eliminant_contains_reported_cubic(
    color_swap_h, color_swap_direction
):
    res = eliminant(color_swap_h, color_swap_direction)
    # Reported x-eliminant factor at ratio 1/2 (ascending):
    # 1/4 - (3/2) x + (3/2) x^2 + 2 x^3
    cubic = [F(1, 4), F(-3, 2), F(3, 2), F(2)]
    q, r = divmod_exact(res, cubic)
    assert is_zero(r)
    # The raw resultant is x^4 times the cubic: stripped of x^k, exactly
    # the degree-3 candidate count.
    k = next(i for i, c in enumerate(res) if c != 0)
    assert (k, len(res) - 1 - k) == (4, 3)


def test_multinomial_eliminant_linear(multinomial_h, diag_direction):
    res = eliminant(multinomial_h, diag_direction)
    assert len(res) - 1 == 1
    # Unique root at 1/2.
    assert -res[0] / res[1] == F(1, 2)


def test_squared_factor_raises(multinomial_h, diag_direction):
    squared = multinomial_h * multinomial_h
    with pytest.raises(NonIsolatedCriticalSet):
        eliminant(squared, diag_direction)


def test_symmetry_swaps_system_roles(multinomial_h):
    # For symmetric H, swapping variables and inverting the direction
    # exchanges the roles of the two system polynomials (up to sign).
    f, g = critical_system(multinomial_h, Direction(2, 1))
    fs, gs = critical_system(multinomial_h.swap_variables(), Direction(1, 2))
    assert fs == f  # symmetric H
    assert gs == g.swap_variables().scale(-1) or gs == g.swap_variables()


def test_first_subresultant_of_two_quadratics():
    # For monic quadratics S1 = g - f; here f = (2*y^2 - x)/2 over a = 2,
    # so the integers are 2*(g - f) = -6y + 5x.
    f = bp([(0, 2, "1"), (1, 0, "-1/2")])  # y^2 - x/2
    g = bp([(0, 2, "1"), (0, 1, "-3"), (1, 0, "2")])  # y^2 - 3y + 2x
    sigma0, sigma1 = first_subresultant(f, g)
    assert (sigma0, sigma1) == ([0, 5], [-6])
    # The eliminant x*(25x/4 - 9/2) vanishes at 0 and 18/25; above each the
    # common root is y = -sigma0/sigma1 = 5x/6.
    assert resultant_eliminating(f, g) == [F(0), F(-9, 2), F(25, 4)]
    for x0 in (F(0), F(18, 25)):
        y0 = -F(eval_at(sigma0, x0)) / eval_at(sigma1, x0)
        assert f.eval_exact(x0, y0) == 0 and g.eval_exact(x0, y0) == 0


def test_first_subresultant_with_a_linear_polynomial():
    quadratic = bp([(0, 2, "1"), (1, 1, "1"), (0, 0, "-1")])  # y^2 + xy - 1
    linear = bp([(0, 1, "2"), (1, 0, "-1")])  # 2y - x
    # y-degrees 2 and 1: S1 = lc(g)^0 * g, and the same with the roles swapped.
    assert first_subresultant(quadratic, linear) == ([0, -1], [2])
    assert first_subresultant(linear, quadratic) == ([0, -1], [2])
    # Both of y-degree 1: b*g with b = 3 stands in for S1.
    f = bp([(1, 1, "1"), (0, 0, "-1")])  # xy - 1
    g = bp([(0, 1, "1"), (1, 0, "-1/3")])  # y - x/3
    assert first_subresultant(f, g) == ([0, -1], [3])
    # A y-degree 0 leaves S1 undefined.
    assert first_subresultant(quadratic, bp([(1, 0, "1"), (0, 0, "-1")])) is None


def test_first_subresultant_matches_rational_minors():
    # At rational x0, sigma_j(x0) is a^(n-1) b^(m-1) times the minor of the
    # rational S1 matrix on its first m+n-3 columns and the column of y^j.
    for H in itertools.islice(_random_polynomials(20260810), 32):
        for direction in (Direction(1, 1), Direction(2, 1), Direction(1, 3)):
            try:
                f, g = critical_system(H, direction)
            except NonIsolatedCriticalSet:
                continue
            m, n = f.degree_y(), g.degree_y()
            if min(m, n) < 1 or m == n == 1:
                continue
            a = _denominator_lcm(f)
            b = _denominator_lcm(g)
            sigma0, sigma1 = first_subresultant(f, g)
            for x0 in (F(-2), F(1, 3), F(5)):
                mat = sylvester_matrix(
                    [eval_at(row, x0) for row in f.coeffs_in_y()],
                    [eval_at(row, x0) for row in g.coeffs_in_y()],
                    1,
                )
                for sigma, col in ((sigma1, m + n - 3), (sigma0, m + n - 2)):
                    minor = determinant_fraction([row[: m + n - 3] + [row[col]] for row in mat])
                    assert eval_at(sigma, x0) == a ** (n - 1) * b ** (m - 1) * minor


def _denominator_lcm(poly):
    out = 1
    for c in poly.terms.values():
        out = out * c.denominator // math.gcd(out, c.denominator)
    return out


def test_linear_system_takes_no_partner_root_solve(multinomial_h, diag_direction, monkeypatch):
    # H = 1 - x - y: both system polynomials have y-degree 1.
    monkeypatch.setattr(critical, "aberth_roots", _no_root_solve)
    (pt,) = solve_critical(multinomial_h, diag_direction)
    assert (pt.p, pt.q) == (0.5, 0.5)


def test_quadratic_system_takes_no_partner_root_solve(monkeypatch):
    # axis_point has y-degrees 2 and 2 and no two critical points share an x.
    spec = parse_problem(next(p for p in PROBLEM_FILES if p.stem == "axis_point").read_text())
    monkeypatch.setattr(critical, "aberth_roots", _no_root_solve)
    assert len(solve_critical(spec.H, spec.direction)) == 2


def _no_root_solve(coeffs):
    raise AssertionError("partner taken from a root solve")


def test_two_points_over_one_real_x_take_the_fallback(monkeypatch):
    # H = 1 - y^2 + 2xy + 3xy^2 at 1:1: the second polynomial is
    # y^2 (3x - 2), so both critical points lie over x = 2/3, at the
    # conjugate roots y = -2/3 +- i*sqrt(5)/3 of H(2/3, y).
    H = bp([(0, 0, "1"), (0, 2, "-1"), (1, 1, "2"), (1, 2, "3")])
    f, g = critical_system(H, Direction(1, 1))
    sigma0, sigma1 = first_subresultant(f, g)
    assert (sigma0, sigma1) == ([2, -3], [0, 4, -6])
    assert eval_at(sigma1, F(2, 3)) == 0 and eval_at(sigma0, F(2, 3)) == 0
    calls = []
    recover = critical._recover_partner
    monkeypatch.setattr(critical, "_recover_partner", lambda *a: calls.append(a[2]) or recover(*a))
    points = solve_critical(H, Direction(1, 1))
    assert len(calls) == 1 and abs(calls[0] - F(2, 3)) < 1e-30
    assert len(points) == 2
    for pt, sign in zip(sorted(points, key=lambda pt: pt.q.imag), (-1, 1)):
        assert abs(pt.p - F(2, 3)) < 1e-30
        assert abs(pt.q - complex(-2 / 3, sign * 5**0.5 / 3)) < 1e-15
