"""Univariate polynomial utilities over exact rationals.

Polynomials are ascending coefficient lists of Fractions.  These back the
resultant elimination and the exact seeding of root finding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

UPoly = List[Fraction]


def trim(p: Sequence[Fraction]) -> UPoly:
    out = [Fraction(c) for c in p]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def is_zero(p: Sequence[Fraction]) -> bool:
    return all(c == 0 for c in p)


def degree(p: Sequence[Fraction]) -> int:
    p = trim(p)
    if is_zero(p):
        return -1
    return len(p) - 1


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


def eval_at(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def derivative(p: Sequence[Fraction]) -> UPoly:
    if len(p) <= 1:
        return [Fraction(0)]
    return trim([Fraction(c) * i for i, c in enumerate(p)][1:])


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


def gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> UPoly:
    """Monic GCD by the Euclidean algorithm."""
    a, b = trim(a), trim(b)
    while not is_zero(b):
        _, r = divmod_exact(a, b)
        a, b = b, r
    if is_zero(a):
        return [Fraction(0)]
    return scale(a, 1 / a[-1])


def squarefree_part(p: Sequence[Fraction]) -> UPoly:
    """``p`` divided by gcd(p, p'): the same roots, each of multiplicity one."""
    q, r = divmod_exact(p, gcd(p, derivative(p)))
    if not is_zero(r):
        raise ArithmeticError("gcd(p, p') does not divide p")
    return q


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


def determinant_fraction(matrix: List[List[Fraction]]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination with pivoting."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(c) for c in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        pv = m[col][col]
        det *= pv
        inv = 1 / pv
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f == 0:
                continue
            row_r, row_c = m[r], m[col]
            for c in range(col, n):
                row_r[c] -= f * row_c[c]
    return det
