"""Dense truncated bivariate power series over the rationals.

A TruncatedSeries holds exact coefficients on a rectangular box
r <= R, s <= S.  Tables that represent c^e for an irrational scalar power
carry that scalar as a symbolic Prefactor (rational base, rational
exponent) so the stored entries stay rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from mpmath import mp, mpf

from .bivariate import BivariatePolynomial
from .errors import BoxMismatch
from .precision import to_mpf
from .rationals import format_rational, rational_power

Box = Tuple[int, int]


@dataclass(frozen=True)
class Prefactor:
    """Symbolic scalar base**exponent kept exact alongside a series.

    ``base`` is a nonzero rational; ``exponent`` a rational.  The value is
    base**exponent with the principal branch for negative bases.
    """

    base: Fraction = Fraction(1)
    exponent: Fraction = Fraction(1)

    def is_one(self) -> bool:
        return self.base == 1 or self.exponent == 0

    def rational_value(self) -> Fraction | None:
        """Exact value when rational, else None."""
        return rational_power(self.base, self.exponent)

    def value(self):
        """Numeric value: mpf, or the mpc |base|**e * exp(i*pi*e) for a negative base."""
        e = to_mpf(self.exponent)
        magnitude = mp.exp(e * mp.log(abs(to_mpf(self.base))))
        return magnitude if self.base > 0 else magnitude * mp.expjpi(e)

    def log10_abs(self) -> mpf:
        return to_mpf(self.exponent) * mp.log(abs(to_mpf(self.base)), 10)

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        return f"({format_rational(self.base)})^({format_rational(self.exponent)})"


class TruncatedSeries:
    """Exact coefficients of a power series on a box (R, S)."""

    __slots__ = ("box", "coeffs")

    def __init__(self, box: Box, coeffs: List[List[Fraction]] | None = None):
        R, S = int(box[0]), int(box[1])
        if R < 0 or S < 0:
            raise ValueError("box must be nonnegative")
        self.box = (R, S)
        if coeffs is None:
            self.coeffs = [[Fraction(0)] * (S + 1) for _ in range(R + 1)]
        else:
            if len(coeffs) != R + 1 or any(len(row) != S + 1 for row in coeffs):
                raise ValueError("coefficient array does not match box")
            self.coeffs = [
                [c if type(c) is Fraction else Fraction(c) for c in row] for row in coeffs
            ]

    @classmethod
    def one(cls, box: Box) -> "TruncatedSeries":
        s = cls(box)
        s.coeffs[0][0] = Fraction(1)
        return s

    @classmethod
    def from_polynomial(cls, p: BivariatePolynomial, box: Box) -> "TruncatedSeries":
        s = cls(box)
        R, S = box
        for (i, j), c in p.terms.items():
            if i <= R and j <= S:
                s.coeffs[i][j] = c
        return s

    def __getitem__(self, rs: Tuple[int, int]) -> Fraction:
        r, s = rs
        return self.coeffs[r][s]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.box == other.box and self.coeffs == other.coeffs


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Exact Cauchy product truncated to the common box.

    Both inputs must share the same box.
    """
    if a.box != b.box:
        raise BoxMismatch(f"box mismatch: {a.box} vs {b.box}")
    R, S = a.box
    out = TruncatedSeries(a.box)
    # Skip zero rows of `a` to keep the quartic loop tolerable on real inputs.
    for i in range(R + 1):
        row = a.coeffs[i]
        for j in range(S + 1):
            c = row[j]
            if c == 0:
                continue
            brow = b.coeffs
            for r in range(i, R + 1):
                bc = brow[r - i]
                orow = out.coeffs[r]
                for s in range(j, S + 1):
                    v = bc[s - j]
                    if v != 0:
                        orow[s] += c * v
    return out


def poly_times_series(p: BivariatePolynomial, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated product polynomial * series, exploiting the sparse polynomial.

    Each output entry is summed on one integer numerator and denominator.
    """
    R, S = b.box
    terms = [(i, j, c.numerator, c.denominator) for (i, j), c in p.terms.items()]

    def entry(r: int, s: int) -> Fraction:
        num, den = 0, 1
        for i, j, cn, cd in terms:
            if i <= r and j <= s:
                v = b.coeffs[r - i][s - j]
                n, d = cn * v.numerator, cd * v.denominator
                num, den = (num + n, den) if d == den else (num * d + n * den, den * d)
        return Fraction(num, den)

    return TruncatedSeries(b.box, [[entry(r, s) for s in range(S + 1)] for r in range(R + 1)])
