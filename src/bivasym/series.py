"""Dense truncated bivariate power series over the rationals.

A TruncatedSeries holds exact coefficients on a rectangular box
r <= R, s <= S as integer numerators over one scale per total degree r + s;
an entry is reduced to a Fraction only when it is read.  Tables that
represent c^e for an irrational scalar power carry that scalar as a
symbolic Prefactor (rational base, rational exponent) so the stored entries
stay rational.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from mpmath import mp, mpf

from .bivariate import BivariatePolynomial
from .errors import BoxMismatch
from .precision import rational_mpf, to_mpf
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


def _checked_box(box: Box, rows) -> Box:
    R, S = int(box[0]), int(box[1])
    if R < 0 or S < 0:
        raise ValueError("box must be nonnegative")
    if rows is not None and (len(rows) != R + 1 or any(len(row) != S + 1 for row in rows)):
        raise ValueError("coefficient array does not match box")
    return R, S


class ScaledRow(Sequence):
    """Row r of a scaled series: entry s is nums[s] / scales[r + s], reduced when read.

    ``==`` compares entry by entry with lists and other rows.
    ``oracle.coefficients_at`` returns its targets as one row, with r = 0
    and one scale per target.
    """

    __slots__ = ("nums", "scales", "r")

    def __init__(self, nums: List[int], scales: List[int], r: int):
        self.nums = nums
        self.scales = scales
        self.r = r

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, s):
        """Entry s as a reduced Fraction; a slice gives the list of its entries."""
        if isinstance(s, slice):
            return [self[k] for k in range(len(self.nums))[s]]
        s = range(len(self.nums))[s]
        return Fraction(self.nums[s], self.scales[self.r + s])

    def value(self, s: int) -> mpf:
        """Entry s rounded once at current precision, with no Fraction and no gcd."""
        return rational_mpf(self.nums[s], self.scales[self.r + s])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, ScaledRow)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class TruncatedSeries:
    """Exact coefficients of a power series on a box (R, S).

    ``coeffs`` is a list of ``ScaledRow``s of integer numerators, and
    ``coeffs[r][s]`` builds the Fraction of an entry each time it is read,
    with no cache.
    """

    __slots__ = ("box", "coeffs")

    def __init__(self, box: Box, rows: List[List[Fraction]]):
        """Series of rational rows, put over the lcm of their denominators (w = 1)."""
        den = math.lcm(*(c.denominator for row in rows for c in row))
        nums = [[c.numerator * (den // c.denominator) for c in row] for row in rows]
        self._store(box, nums, [den] * (int(box[0]) + int(box[1]) + 1))

    @classmethod
    def scaled(cls, box: Box, nums: List[List[int]], scales: List[int]) -> "TruncatedSeries":
        """Series with entry (r, s) equal to nums[r][s] / scales[r + s].

        ``scales`` holds R + S + 1 positive ints in geometric progression,
        scales[k] = scales[0] * w**k for an integer w; ``nums`` is kept, not
        copied.
        """
        s = cls.__new__(cls)
        s._store(box, nums, scales)
        return s

    def _store(self, box: Box, nums: List[List[int]], scales: List[int]) -> None:
        R, S = self.box = _checked_box(box, nums)
        if len(scales) != R + S + 1:
            raise ValueError("need one scale per total degree")
        self.coeffs = [ScaledRow(row, scales, r) for r, row in enumerate(nums)]

    @classmethod
    def one(cls, box: Box) -> "TruncatedSeries":
        return cls.from_polynomial(BivariatePolynomial.constant(1), box)

    @classmethod
    def from_polynomial(cls, p: BivariatePolynomial, box: Box) -> "TruncatedSeries":
        R, S = box
        return cls(box, [[p.terms.get((r, s), 0) for s in range(S + 1)] for r in range(R + 1)])

    def __getitem__(self, rs: Tuple[int, int]) -> Fraction:
        r, s = rs
        return self.coeffs[r][s]

    def __eq__(self, other) -> bool:
        """Entry by entry, cross-multiplied over the two scales: no entry is reduced."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        sa, sb = self.coeffs[0].scales, other.coeffs[0].scales
        return self.box == other.box and all(
            x * sb[r + s] == y * sa[r + s]
            for r, (a, b) in enumerate(zip(self.coeffs, other.coeffs))
            for s, (x, y) in enumerate(zip(a.nums, b.nums))
        )


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Exact Cauchy product truncated to the common box.

    Both inputs must share the same box.  The nonzero entries of ``a`` form
    a polynomial, and ``poly_times_series`` multiplies it into ``b`` on
    integers.
    """
    if a.box != b.box:
        raise BoxMismatch(f"box mismatch: {a.box} vs {b.box}")
    terms = {(i, j): c for i, row in enumerate(a.coeffs) for j, c in enumerate(row) if c != 0}
    return poly_times_series(BivariatePolynomial(terms), b)


def poly_times_series(p: BivariatePolynomial, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated product polynomial * series, on integers.

    With b's entries n[r][s] / scales[r + s], scales[k] = scales[0] * w**k
    and L the lcm of the denominators of p, the product's entry (r, s) is
    sum c_ij * L * w**(i+j) * n[r-i][s-j] over the scale L * scales[r + s].
    A constant term whose integer factor is 1 copies b's rows.
    """
    R, S = b.box
    nums, scales = [row.nums for row in b.coeffs], b.coeffs[0].scales
    w = scales[1] // scales[0] if len(scales) > 1 else 1
    L = math.lcm(*(c.denominator for c in p.terms.values()))
    factors = {
        (i, j): c.numerator * (L // c.denominator) * w ** (i + j) for (i, j), c in p.terms.items()
    }
    if factors.get((0, 0)) == 1:
        del factors[0, 0]
        out = [list(row) for row in nums]
    else:
        out = [[0] * (S + 1) for _ in range(R + 1)]
    for (i, j), m in factors.items():
        for r in range(i, R + 1):
            orow, src = out[r], nums[r - i]
            for s in range(j, S + 1):
                orow[s] += m * src[s - j]
    return TruncatedSeries.scaled(b.box, out, [L * k for k in scales])
