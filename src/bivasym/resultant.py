"""Sylvester resultants of bivariate rational polynomials.

The eliminant is computed exactly over the rationals by
evaluation&ndash;interpolation: the Sylvester determinant is evaluated at
enough integer sample points with exact fraction arithmetic, then
recovered by Newton interpolation.  This stays within plain rational
linear algebra and needs no fraction-free pseudo-division machinery.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import List, Optional

from .bivariate import BivariatePolynomial
from .unipoly import UPoly, degree, determinant_fraction, eval_at, gcd, is_zero
from .unipoly import lagrange_interpolate, mul, trim


def sylvester_matrix(f_rows: List[UPoly], g_rows: List[UPoly]) -> List[List[UPoly]]:
    """Sylvester matrix of two polynomials in y with Q[x] coefficients.

    ``f_rows[j]`` is the x-polynomial multiplying y^j (ascending), same for
    ``g_rows``.  Returns the (m+n) x (m+n) matrix of x-polynomials.
    """
    m = len(f_rows) - 1
    n = len(g_rows) - 1
    if m < 0 or n < 0:
        raise ValueError("empty polynomial")
    size = m + n
    zero: UPoly = [Fraction(0)]
    mat: List[List[UPoly]] = [[zero] * size for _ in range(size)]
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

    bound = n * f.degree_x() + m * g.degree_x()
    xs = [Fraction(_sample_point(k)) for k in range(bound + 1)]
    mat = sylvester_matrix(f_rows, g_rows)
    ys = []
    for x0 in xs:
        numeric = [[eval_at(entry, x0) for entry in row] for row in mat]
        ys.append(determinant_fraction(numeric))
    return trim(lagrange_interpolate(xs, ys))


def _sample_point(k: int) -> int:
    # 0, 1, -1, 2, -2, ...
    if k == 0:
        return 0
    half = (k + 1) // 2
    return half if k % 2 == 1 else -half


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
