"""The exponent lattice of H and its characters.

L is the lattice spanned by the exponents (i, j) of H's nonconstant
monomials.  When L has rank 2, its index k in Z^2 is the gcd of the 2x2
minors of those exponents, and the characters of Z^2/L are the k pairs
chi = (zeta^s, zeta^t) of powers of zeta = exp(2 pi i/k) with s*i + t*j
= 0 mod k on every exponent.  H(zeta^s x, zeta^t y) = H(x, y), so chi
maps each solution of the critical system { H = 0, r0*y*H_y = s0*x*H_x }
to one on the same torus and leaves every ray curve H(t*x, t*y)
unchanged (Pemantle and Wilson, *Analytic Combinatorics in Several
Variables*, CUP 2013).  A rank below 2, or k = 1, gives the trivial
group: the identity alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from mpmath import mp, mpc, mpf

from .bivariate import BivariatePolynomial
from .rationals import hermite_basis


@dataclass(frozen=True)
class Characters:
    """The characters of Z^2/L: each ``(s, t)`` mod ``index`` in ``exponents``, identity first."""

    index: int
    exponents: Tuple[Tuple[int, int], ...]

    def values(self) -> List[Tuple[mpc, mpc]]:
        """Each ``(zeta^s, zeta^t)`` at working precision, in ``exponents`` order."""
        k = self.index
        return [(root_of_unity(s, k), root_of_unity(t, k)) for s, t in self.exponents]


def root_of_unity(s: int, k: int) -> mpc:
    """``exp(2 pi i s/k)``; exact when ``4 s / k`` is an integer."""
    return _root_of_unity(s, k, mp.prec)


@lru_cache(maxsize=256)
def _root_of_unity(s: int, k: int, prec: int) -> mpc:
    """``root_of_unity`` at ``prec`` bits, made once: a solve asks for the same few."""
    turn = mpf(2 * s) / k
    return mpc(mp.cospi(turn), mp.sinpi(turn))


def characters(H: BivariatePolynomial) -> Characters:
    """The characters of Z^2/L for the exponent lattice L of H's nonconstant monomials.

    L is put in Hermite form, the basis (a, b), (0, c)
    (``rationals.hermite_basis``; the constant term adds nothing).  Then
    k = a*c, and (zeta_1, zeta_2) is a character exactly when zeta_2^c = 1
    and zeta_1^a = zeta_2^(-b): with zeta_2 = zeta^(a*u), u < c, and
    zeta_1 = zeta^(m*c - b*u), m < a.
    """
    a, b, c = hermite_basis(H.terms)
    k = a * c
    if k <= 1:
        return Characters(1, ((0, 0),))
    return Characters(
        k,
        tuple(sorted(((m * c - b * u) % k, a * u % k) for m in range(a) for u in range(c))),
    )

