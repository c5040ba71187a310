"""Dense truncated bivariate power series over the rationals.

A TruncatedSeries holds exact coefficients on a rectangular box
r <= R, s <= S, in one of two forms: rows of Fractions, or integer
numerators over one scale per total degree r + s (``TruncatedSeries.scaled``),
whose entries are reduced to a Fraction only when they are read.  Tables
that represent c^e for an irrational scalar power carry that scalar as a
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
    """

    __slots__ = ("nums", "scales", "r")

    def __init__(self, nums: List[int], scales: List[int], r: int):
        self.nums = nums
        self.scales = scales
        self.r = r

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, s: int) -> Fraction:
        s = range(len(self.nums))[s]
        return Fraction(self.nums[s], self.scales[self.r + s])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, ScaledRow)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class TruncatedSeries:
    """Exact coefficients of a power series on a box (R, S).

    ``coeffs`` is a list of rows and ``coeffs[r][s]`` a Fraction in both
    storage forms.  The default form keeps lists of Fractions; ``scaled``
    keeps ``ScaledRow``s of integer numerators, which build the Fraction of
    an entry each time it is read, with no cache.
    """

    __slots__ = ("box", "coeffs")

    def __init__(self, box: Box, coeffs: List[List[Fraction]] | None = None):
        R, S = self.box = _checked_box(box, coeffs)
        if coeffs is None:
            self.coeffs = [[Fraction(0)] * (S + 1) for _ in range(R + 1)]
        else:
            self.coeffs = [
                [c if type(c) is Fraction else Fraction(c) for c in row] for row in coeffs
            ]

    @classmethod
    def scaled(cls, box: Box, nums: List[List[int]], scales: List[int]) -> "TruncatedSeries":
        """Series with entry (r, s) equal to nums[r][s] / scales[r + s].

        ``scales`` holds R + S + 1 positive ints in geometric progression,
        scales[k] = scales[0] * w**k for an integer w; ``nums`` is kept, not
        copied.
        """
        s = cls.__new__(cls)
        R, S = s.box = _checked_box(box, nums)
        if len(scales) != R + S + 1:
            raise ValueError("need one scale per total degree")
        s.coeffs = [ScaledRow(row, scales, r) for r, row in enumerate(nums)]
        return s

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

    Both inputs must share the same box; each entry of a scaled input is
    read once.
    """
    if a.box != b.box:
        raise BoxMismatch(f"box mismatch: {a.box} vs {b.box}")
    R, S = a.box
    arows, brows = ([list(row) for row in x.coeffs] for x in (a, b))
    out = TruncatedSeries(a.box)
    # Skip zero rows of `a` to keep the quartic loop tolerable on real inputs.
    for i in range(R + 1):
        row = arows[i]
        for j in range(S + 1):
            c = row[j]
            if c == 0:
                continue
            for r in range(i, R + 1):
                bc = brows[r - i]
                orow = out.coeffs[r]
                for s in range(j, S + 1):
                    v = bc[s - j]
                    if v != 0:
                        orow[s] += c * v
    return out


def poly_times_series(p: BivariatePolynomial, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated product polynomial * series, on integers; returns a scaled series.

    With b's entries n[r][s] / scales[r + s], scales[k] = scales[0] * w**k
    and L the lcm of the denominators of p, the product's entry (r, s) is
    sum c_ij * L * w**(i+j) * n[r-i][s-j] over the scale L * scales[r + s].
    A series of Fractions is first put over the lcm of its denominators
    (w = 1).
    """
    R, S = b.box
    if isinstance(b.coeffs[0], ScaledRow):
        nums, scales = [row.nums for row in b.coeffs], b.coeffs[0].scales
    else:
        den = math.lcm(*(c.denominator for row in b.coeffs for c in row))
        nums = [[c.numerator * (den // c.denominator) for c in row] for row in b.coeffs]
        scales = [den] * (R + S + 1)
    w = scales[1] // scales[0] if len(scales) > 1 else 1
    L = math.lcm(*(c.denominator for c in p.terms.values()))
    out = [[0] * (S + 1) for _ in range(R + 1)]
    for (i, j), c in p.terms.items():
        m = c.numerator * (L // c.denominator) * w ** (i + j)
        for r in range(i, R + 1):
            orow, src = out[r], nums[r - i]
            for s in range(j, S + 1):
                orow[s] += m * src[s - j]
    return TruncatedSeries.scaled(b.box, out, [L * k for k in scales])
