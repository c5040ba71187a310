"""The Fraction routes that the library's integer kernels replaced, as test references.

The package computes every exact polynomial value on integers: eliminants
by Bareiss minors and forward differences, gcds and square-free parts by
primitive remainder sequences, values by Gaussian-integer Horner.  The
functions here do the same jobs the plain way, over Fractions, so the
tests can compare the two routes coefficient for coefficient:

- ``add``, ``mul``, ``scale``, ``divmod_exact`` and
  ``lagrange_interpolate`` on ascending Fraction coefficient lists;
- ``fraction_determinant``, Gaussian elimination with row pivoting;
- ``coeffs_in_y`` and ``eval_exact`` of a ``BivariatePolynomial``;
- ``principal_on_ray``, ``w^(-beta)`` on a branch ray's logarithm.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from mpmath import mp, mpc

from bivasym.estimates import BranchRay, branch_argument
from bivasym.precision import to_mpf
from bivasym.unipoly import degree, is_zero, trim

UPoly = List[Fraction]


def add(a: Sequence[Fraction], b: Sequence[Fraction]) -> UPoly:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> UPoly:
    if is_zero(a) or is_zero(b):
        return [Fraction(0)]
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb != 0:
                out[i + j] += ca * cb
    return trim(out)


def scale(a: Sequence[Fraction], c: Fraction) -> UPoly:
    return trim([Fraction(c) * v for v in a])


def divmod_exact(a: Sequence[Fraction], b: Sequence[Fraction]):
    """Quotient and remainder over the rationals."""
    a, b = trim(a), trim(b)
    if is_zero(b):
        raise ZeroDivisionError("division by the zero polynomial")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    db, lb = degree(b), b[-1]
    while not is_zero(r) and degree(r) >= db:
        dr = degree(r)
        c = r[dr] / lb
        q[dr - db] = c
        for i in range(db + 1):
            r[dr - db + i] -= c * b[i]
        r = trim(r)
    return trim(q), trim(r)


def lagrange_interpolate(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> UPoly:
    """Exact polynomial through (xs[i], ys[i]) via Newton divided differences."""
    n = len(xs)
    if n != len(ys) or n == 0:
        raise ValueError("need equally many sample points and values")
    coeffs = [Fraction(y) for y in ys]
    # Divided-difference table, in place.
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    # Expand the Newton form into monomial coefficients.
    out: UPoly = [Fraction(0)]
    basis: UPoly = [Fraction(1)]
    for i in range(n):
        out = add(out, scale(basis, coeffs[i]))
        basis = mul(basis, [-Fraction(xs[i]), Fraction(1)])
    return trim(out)


def fraction_determinant(matrix) -> Fraction:
    """Fraction Gaussian elimination with row pivoting (1 for the empty matrix)."""
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


def coeffs_in_y(poly) -> List[UPoly]:
    """``poly``'s coefficients as trimmed Fraction polynomials in x, indexed by y-degree."""
    out = [[Fraction(0)] * (poly.degree_x() + 1) for _ in range(poly.degree_y() + 1)]
    for (i, j), c in poly.terms.items():
        out[j][i] = c
    return [trim(row) for row in out]


def eval_exact(poly, qx, qy) -> Fraction:
    """``poly`` at the rationals (qx, qy), in Fractions."""
    qx, qy = Fraction(qx), Fraction(qy)
    return sum((c * qx**i * qy**j for (i, j), c in sorted(poly.terms.items())), Fraction(0))


def principal_on_ray(w: mpc, beta, ray: BranchRay, anchor_arg) -> mpc:
    """``w^(-beta)`` using the anchored ray branch of the logarithm."""
    theta = branch_argument(mp.arg(w), ray, anchor_arg)
    return mp.exp(-to_mpf(beta) * mpc(mp.log(abs(w)), theta))
