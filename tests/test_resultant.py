import itertools
from fractions import Fraction as F
from pathlib import Path

import pytest

from bivasym import BivariatePolynomial, Direction, parse_problem
from bivasym.critical import critical_system, eliminant
from bivasym.errors import NonIsolatedCriticalSet
from bivasym.resultant import (
    resultant_eliminating,
    shares_positive_dimensional_zero,
)
from bivasym.unipoly import divmod_exact, is_zero, trim
from tests.test_acceptance import _random_polynomials

PROBLEM_FILES = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))


def bp(items):
    return BivariatePolynomial.from_items(items)


def test_linear_pair_gives_difference():
    # res_y(y - a(x), y - b(x)) = a(x) - b(x) up to sign
    f = bp([(0, 1, "1"), (1, 0, "-1")])        # y - x
    g = bp([(0, 1, "1"), (2, 0, "-3")])        # y - 3x^2
    res = resultant_eliminating(f, g, "y")
    # Common roots exactly where x = 3x^2
    assert trim(res) in ([F(0), F(-1), F(3)], [F(0), F(1), F(-3)])


def test_designed_common_roots():
    # f = (y - x)(y - 2x), g = y - 3x: resultant roots where 3x hits x or 2x.
    f = bp([(0, 2, "1"), (1, 1, "-3"), (2, 0, "2")])
    g = bp([(0, 1, "1"), (1, 0, "-3")])
    res = resultant_eliminating(f, g, "y")
    # (3x - x)(3x - 2x) = 2x^2
    assert trim(res) == [F(0), F(0), F(2)]


def test_common_factor_vanishes_identically():
    common = bp([(0, 0, "1"), (1, 0, "-1"), (0, 1, "-1")])
    f = common * bp([(0, 1, "1"), (1, 0, "1")])
    g = common * bp([(0, 0, "2"), (1, 0, "5")])
    assert is_zero(resultant_eliminating(f, g, "y"))
    assert shares_positive_dimensional_zero(f, g)


def test_common_factor_in_x_only_detected():
    # Factor depends only on x: res_y stays nonzero but res_x vanishes.
    common = bp([(0, 0, "1"), (1, 0, "-2")])  # 1 - 2x
    f = common * bp([(0, 1, "1"), (0, 0, "1")])
    g = common * bp([(0, 2, "1"), (0, 0, "-5")])
    assert not is_zero(resultant_eliminating(f, g, "y"))
    assert is_zero(resultant_eliminating(f, g, "x"))
    assert shares_positive_dimensional_zero(f, g)


def _two_eliminant_verdict(f, g) -> bool:
    """The reference: either eliminant vanishes identically."""
    return is_zero(resultant_eliminating(f, g, "y")) or is_zero(
        resultant_eliminating(f, g, "x")
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
    assert shares_positive_dimensional_zero(f, g) == _two_eliminant_verdict(f, g)


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
        assert shares_positive_dimensional_zero(f, g) == _two_eliminant_verdict(f, g)


def test_no_common_factor_not_flagged(color_swap_h, color_swap_direction):
    f, g = critical_system(color_swap_h, color_swap_direction)
    assert not shares_positive_dimensional_zero(f, g)


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
