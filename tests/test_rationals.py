import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bivasym.rationals import (
    binomial_general,
    format_rational,
    hermite_basis,
    integer_nth_root,
    parse_rational,
    rational_power,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def test_parse_forms():
    assert parse_rational("-3/64") == F(-3, 64)
    assert parse_rational("0.5") == F(1, 2)
    assert parse_rational("7") == F(7)
    assert parse_rational("−3/64") == F(-3, 64)  # unicode minus
    with pytest.raises(ValueError):
        parse_rational(0.5)


@given(rationals)
def test_parse_format_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(rationals, rationals)
def test_addition_exact(a, b):
    assert (a + b) - b == a


def test_binomial_general_known():
    assert binomial_general(F(-1, 2), 2) == F(3, 8)
    assert binomial_general(F(-1, 2), 0) == 1
    assert binomial_general(F(5), 2) == 10
    assert binomial_general(F(1, 2), 3) == F(1, 16)


def test_integer_nth_root():
    assert integer_nth_root(8, 3) == 2
    assert integer_nth_root(81, 4) == 3
    assert integer_nth_root(10, 2) is None
    assert integer_nth_root(1, 7) == 1
    assert integer_nth_root(2**120, 2) == 2**60


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=6))
def test_integer_nth_root_recovers_powers(base, k):
    assert integer_nth_root(base**k, k) == base


def test_rational_power():
    assert rational_power(F(4), F(-1, 2)) == F(1, 2)
    assert rational_power(F(8, 27), F(2, 3)) == F(4, 9)
    assert rational_power(F(2), F(-1, 2)) is None
    assert rational_power(F(-2), F(1, 2)) is None
    assert rational_power(F(-2), F(3)) == F(-8)


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=5))
def test_hermite_basis_spans_the_exponents(exponents):
    """(a, b), (0, c) spans the pairs: each lies in it, and a and a*c are the lattice's."""
    a, b, c = hermite_basis(exponents)
    for i, j in exponents:
        assert i % a == 0 if a else i == 0
        rest = j - (i // a) * b if a else j
        assert rest % c == 0 if c else rest == 0
    assert a == math.gcd(*(i for i, _ in exponents))
    minors = math.gcd(*(i * l - j * k for (i, j), (k, l) in itertools.combinations(exponents, 2)))
    assert a * c == minors if a else c == math.gcd(*(j for _, j in exponents))


def test_hermite_basis_of_a_family_lattice():
    assert hermite_basis([(0, 0), (2, 2), (3, 1), (4, 0)]) == (1, -1, 4)
    assert hermite_basis([(2, 1), (4, 2)]) == (2, 1, 0)
    assert hermite_basis([(0, 2), (0, 4)]) == (0, 0, 2)
    assert hermite_basis([]) == (0, 0, 0)
