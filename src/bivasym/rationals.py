"""Helpers for exact rational values: parsing, formatting, binomials, roots, lattices.

Rationals are plain ``fractions.Fraction`` everywhere in the package:
always in lowest terms with a positive denominator, which matches the
invariants we need without a wrapper type.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Tuple

# Unicode minus shows up in hand-written coefficient strings.
_MINUS = "−"


def parse_rational(text) -> Fraction:
    """Parse "num/den", integer, or decimal strings into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ValueError(
            f"refusing float coefficient {text!r}; pass a string like '1/3'"
        )
    s = str(text).strip().replace(_MINUS, "-").replace(" ", "")
    return Fraction(s)


def format_rational(q: Fraction) -> str:
    """Canonical "num/den" form; bare integer when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def binomial_general(alpha: Fraction, n: int) -> Fraction:
    """C(alpha, n) for rational alpha = u/v: prod(u - k*v, k < n) / (v**n * n!)."""
    if n < 0:
        return Fraction(0)
    alpha = Fraction(alpha)
    u, v = alpha.numerator, alpha.denominator
    num = 1
    for k in range(n):
        num *= u - k * v
    return Fraction(num, v**n * math.factorial(n))


def integer_nth_root(n: int, k: int) -> Optional[int]:
    """Exact k-th root of a nonnegative integer, or None if not a k-th power."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n
    # Newton iteration on integers; start from a float estimate.
    r = max(1, int(round(n ** (1.0 / k))))
    while True:
        rk = r**k
        if rk == n:
            return r
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    for cand in (r - 1, r, r + 1, r + 2):
        if cand >= 1 and cand**k == n:
            return cand
    return None


def rational_power(base: Fraction, expo: Fraction) -> Optional[Fraction]:
    """base**expo as an exact Fraction when that value is rational, else None.

    Only positive bases are attempted for non-integer exponents (negative
    bases give complex values, integer-exponent cases are always rational).
    """
    base = Fraction(base)
    expo = Fraction(expo)
    if base == 0:
        if expo > 0:
            return Fraction(0)
        raise ZeroDivisionError("0 raised to a nonpositive power")
    if expo.denominator == 1:
        return base ** int(expo)
    if base < 0:
        return None
    u, v = expo.numerator, expo.denominator
    a, b = base.numerator, base.denominator
    ra = integer_nth_root(a, v)
    rb = integer_nth_root(b, v)
    if ra is None or rb is None:
        return None
    return Fraction(ra, rb) ** u


def hermite_basis(exponents: Iterable[Tuple[int, int]]) -> Tuple[int, int, int]:
    """``(a, b, c)``: (a, b), (0, c) span the lattice of the pairs ``exponents``.

    The Hermite form, by one extended gcd per pair: (a, b) is the vector of
    the lattice with the least positive first coordinate, and c the gcd of
    the second coordinates of its vectors on the y axis; a = 0 when every
    vector lies on the y axis, c = 0 when none but 0 does.  b is not reduced.
    """
    a, b, c = 0, 0, 0
    for i, j in exponents:
        g, x, y = _extended_gcd(a, i)
        if g == 0:  # (i, j) and every vector so far lie on the y axis
            c = math.gcd(c, j)
            continue
        # (a, b) and (i, j) span what (g, x*b + y*j) and the axis vector
        # (i/g)*(a, b) - (a/g)*(i, j) span.
        c = math.gcd(c, (i // g) * b - (a // g) * j)
        a, b = g, x * b + y * j
    return a, b, c


def _extended_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """``(g, x, y)`` with ``g = gcd(a, b) = x*a + y*b`` and ``g >= 0``."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, (a, b) = a // b, (b, a % b)
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)
