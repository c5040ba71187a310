"""Sylvester resultants and first subresultants of bivariate rational polynomials.

The eliminant is computed exactly on Python ints by
evaluation&ndash;interpolation.  Each input is first put over the lcm of its
denominators, using ``Res(a*f, b*g) = a^n * b^m * Res(f, g)`` for y-degrees
m and n.  At each sample point x = 0, 1, ..., past the degree bound, every
y-coefficient is evaluated once and the integer Sylvester determinant is
taken by Bareiss elimination.  Forward differences recover the integer
polynomial, and the factor ``a^n * b^m`` is divided out once at the end.
One route serves every y-degree: a y-free f makes the Sylvester matrix
f times the n x n identity (f^n), and with g also y-free it is empty (1).

The first subresultant ``S1 = sigma1(x)*y + sigma0(x)`` comes from the same
integer rows, sample points and interpolation: its two coefficients are
the Bareiss minors of the (m+n-2) x (m+n-1) matrix of
``y^(n-2)*f, ..., f, y^(m-2)*g, ..., g``.  It is the gcd of ``f(w, .)`` and
``g(w, .)`` when the eliminant vanishes at ``w`` and ``sigma1(w) != 0``
(González-Vega and El Kahoui, J. Complexity 12, 1996), so the one common
root above ``w`` is ``y = -sigma0(w)/sigma1(w)``.  Melczer and Salvy
(ISSAC 2016) carry critical points in this rational form.  The factor
``a^(n-1) * b^(m-1)`` cancels in that ratio and is never divided out.
With both y-degrees 1 the matrix is empty, and ``b*g`` stands in for S1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import List, Optional, Sequence, Tuple

from .bivariate import BivariatePolynomial
from .unipoly import UPoly, _int_gcd, bareiss_minors, eval_at, is_zero


def sylvester_matrix(f_rows: Sequence, g_rows: Sequence, k: int = 0) -> List[list]:
    """Sylvester matrix of two polynomials in y, coefficients in any ring.

    ``f_rows[j]`` is the coefficient of y^j (ascending), same for
    ``g_rows``.  For m = deg f and n = deg g, returns the rows of
    ``y^(n-k-1)*f, ..., f, y^(m-k-1)*g, ..., g``, highest power of y
    first, over m + n - k columns, zero entries ``0``: the square
    Sylvester matrix for ``k = 0``, the k-th subresultant's matrix above.
    """
    m = len(f_rows) - 1
    n = len(g_rows) - 1
    if m < 0 or n < 0:
        raise ValueError("empty polynomial")
    mat: List[list] = [[0] * (m + n - k) for _ in range(m + n - 2 * k)]
    # Rows of f coefficients, highest y-degree first, shifted right.
    for row in range(n - k):
        for c in range(m + 1):
            mat[row][row + c] = f_rows[m - c]
    for row in range(m - k):
        for c in range(n + 1):
            mat[n - k + row][row + c] = g_rows[n - c]
    return mat


def _sample_minors(f_ints, g_ints, k: int, count: int) -> List[List[int]]:
    """Bareiss minors of the k-th Sylvester matrix at x = 0, ..., count - 1."""
    out = []
    for x0 in range(count):
        f_vals = [eval_at(row, x0) for row in f_ints]
        g_vals = [eval_at(row, x0) for row in g_ints]
        out.append(bareiss_minors(sylvester_matrix(f_vals, g_vals, k)))
    return out


def resultant_eliminating(f: BivariatePolynomial, g: BivariatePolynomial) -> UPoly:
    """Resultant of f and g with respect to y: a polynomial in x, ascending.

    The zero polynomial is returned exactly when the two inputs share a
    factor of positive degree in y.  The eliminant of x is that of
    ``f.swap_variables()`` and ``g.swap_variables()``.
    """
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")

    m = f.degree_y()
    n = g.degree_y()
    a, f_ints = f.integer_coeffs_in_y()
    b, g_ints = g.integer_coeffs_in_y()
    bound = n * f.degree_x() + m * g.degree_x()
    samples = [det for (det,) in _sample_minors(f_ints, g_ints, 0, bound + 1)]
    scale = a**n * b**m
    return [Fraction(c, scale) for c in _interpolate_from_zero(samples)]


def first_subresultant(
    f: BivariatePolynomial, g: BivariatePolynomial
) -> Optional[Tuple[List[int], List[int]]]:
    """``(sigma0, sigma1)`` with ``S1(f, g) = sigma1*y + sigma0``, up to a positive factor.

    Both are ascending integer polynomials in x.  The factor is
    ``a^(n-1) * b^(m-1)`` for the lcms ``a``, ``b`` of the denominators of
    f and g.  With one y-degree 1, S1 is that polynomial times a power of
    its leading coefficient, and with both y-degrees 1 it is taken to be
    ``b*g``.  Returns None when a y-degree is 0, where S1
    is not defined.  Each coefficient has degree at most
    ``(n-1)*deg_x f + (m-1)*deg_x g``, so that many samples plus one
    determine it.
    """
    m = f.degree_y()
    n = g.degree_y()
    if m == 0 or n == 0:
        return None
    f_ints = f.integer_coeffs_in_y()[1]
    g_ints = g.integer_coeffs_in_y()[1]
    if m == n == 1:
        return list(g_ints[0]), list(g_ints[1])
    bound = (n - 1) * f.degree_x() + (m - 1) * g.degree_x()
    sigma1, sigma0 = zip(*_sample_minors(f_ints, g_ints, 1, bound + 1))
    return _interpolate_from_zero(sigma0), _interpolate_from_zero(sigma1)


def _interpolate_from_zero(values: Sequence[int]) -> List[int]:
    """Integer coefficients of the polynomial R with R(k) = ``values[k]``, trimmed.

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
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def shares_positive_dimensional_zero(
    f: BivariatePolynomial, g: BivariatePolynomial, res_y: UPoly
) -> bool:
    """True when f and g have a common factor, i.e. a curve of common zeros.

    A common factor of positive degree in y makes the eliminant of y vanish
    identically.  A factor free of y divides f exactly when it divides each
    y-coefficient of f (Gauss's lemma), so f and g share one exactly when
    the gcd in Q[x] of all their y-coefficients is not constant.  It is
    taken over the integer rows of ``integer_coeffs_in_y``: scaling by a
    constant changes no factor.  ``res_y`` is ``resultant_eliminating(f, g)``.
    """
    rows = f.integer_coeffs_in_y()[1] + g.integer_coeffs_in_y()[1]
    return is_zero(res_y) or len(reduce(_int_gcd, rows)) > 1
