"""Sylvester resultants of bivariate rational polynomials.

The eliminant is computed exactly on Python ints by
evaluation&ndash;interpolation.  Each input is first put over the lcm of its
denominators, using ``Res(a*f, b*g) = a^n * b^m * Res(f, g)`` for y-degrees
m and n.  At each sample point x = 0, 1, ..., past the degree bound, every
y-coefficient is evaluated once and the integer Sylvester determinant is
taken by Bareiss elimination.  Forward differences recover the integer
polynomial, and the factor ``a^n * b^m`` is divided out once at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import List, Optional, Sequence

from .bivariate import BivariatePolynomial
from .unipoly import UPoly, degree, determinant_int, eval_at, gcd, is_zero, mul, trim


def sylvester_matrix(f_rows: Sequence, g_rows: Sequence) -> List[list]:
    """Sylvester matrix of two polynomials in y, coefficients in any ring.

    ``f_rows[j]`` is the coefficient of y^j (ascending), same for
    ``g_rows``.  Returns the (m+n) x (m+n) matrix, zero entries ``0``.
    """
    m = len(f_rows) - 1
    n = len(g_rows) - 1
    if m < 0 or n < 0:
        raise ValueError("empty polynomial")
    size = m + n
    mat: List[list] = [[0] * size for _ in range(size)]
    # Rows of f coefficients, highest y-degree first, shifted right.
    for row in range(n):
        for k in range(m + 1):
            mat[row][row + k] = f_rows[m - k]
    for row in range(m):
        for k in range(n + 1):
            mat[n + row][row + k] = g_rows[n - k]
    return mat


def resultant_eliminating(
    f: BivariatePolynomial, g: BivariatePolynomial, eliminate: str = "y"
) -> UPoly:
    """Resultant of f and g with respect to one variable.

    Eliminating "y" returns a polynomial in x (ascending coefficients);
    eliminating "x" returns a polynomial in y.  The zero polynomial is
    returned exactly when the two inputs share a factor of positive degree
    in the eliminated variable.
    """
    if eliminate == "x":
        f = f.swap_variables()
        g = g.swap_variables()
    elif eliminate != "y":
        raise ValueError(f"unknown variable {eliminate!r}")
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")

    f_rows = f.coeffs_in_y()
    g_rows = g.coeffs_in_y()
    m = len(f_rows) - 1
    n = len(g_rows) - 1
    if m == 0 and n == 0:
        return [Fraction(1)]
    if m == 0:
        return _power(f_rows[0], n)
    if n == 0:
        return _power(g_rows[0], m)

    a = math.lcm(*(c.denominator for c in f.terms.values()))
    b = math.lcm(*(c.denominator for c in g.terms.values()))
    f_ints = [[int(c * a) for c in row] for row in f_rows]
    g_ints = [[int(c * b) for c in row] for row in g_rows]
    bound = n * f.degree_x() + m * g.degree_x()
    samples = []
    for x0 in range(bound + 1):
        f_vals = [eval_at(row, x0) for row in f_ints]
        g_vals = [eval_at(row, x0) for row in g_ints]
        samples.append(determinant_int(sylvester_matrix(f_vals, g_vals)))
    scale = a**n * b**m
    return [c / scale for c in trim(_interpolate_from_zero(samples))]


def _interpolate_from_zero(values: List[int]) -> List[int]:
    """Integer coefficients of the polynomial R with R(k) = ``values[k]``.

    Newton's forward form R(x) = sum_k (Delta^k R(0) / k!) x(x-1)...(x-k+1).
    For R with integer coefficients each Delta^k R(0) is a multiple of k!;
    a remainder raises ArithmeticError.
    """
    diffs, newton, fact = list(values), [], 1
    for k in range(len(values)):
        fact *= max(k, 1)
        q, rem = divmod(diffs[0], fact)
        if rem:
            raise ArithmeticError("samples do not fit a polynomial with integer coefficients")
        newton.append(q)
        diffs = [hi - lo for lo, hi in zip(diffs, diffs[1:])]
    # Horner on the falling factorials: acc = acc * (x - k) + newton[k].
    out = [newton[-1]]
    for k in range(len(newton) - 2, -1, -1):
        out = [0] + out
        for i in range(len(out) - 1):
            out[i] -= k * out[i + 1]
        out[0] += newton[k]
    return out


def _power(p: UPoly, n: int) -> UPoly:
    out: UPoly = [Fraction(1)]
    for _ in range(n):
        out = mul(out, p)
    return out


def shares_positive_dimensional_zero(
    f: BivariatePolynomial, g: BivariatePolynomial, res_y: Optional[UPoly] = None
) -> bool:
    """True when f and g have a common factor, i.e. a curve of common zeros.

    A common factor of positive degree in y makes the eliminant of y vanish
    identically.  A factor free of y divides f exactly when it divides each
    y-coefficient of f (Gauss's lemma), so f and g share one exactly when
    the gcd in Q[x] of all their y-coefficients is not constant.  ``res_y``
    is the eliminant of y when the caller has it already.
    """
    if res_y is None:
        res_y = resultant_eliminating(f, g, "y")
    return is_zero(res_y) or degree(reduce(gcd, f.coeffs_in_y() + g.coeffs_in_y())) > 0
