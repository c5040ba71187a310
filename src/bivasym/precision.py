"""Global floating-precision configuration.

All floating computation in the package runs on mpmath's global context.
The precision (in bits of significand) is a single package-wide setting so
that every tolerance downstream is stated against one precision.  Default
is a 128-bit significand.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest

DEFAULT_PRECISION = 128
MIN_PRECISION = 24

mp.prec = DEFAULT_PRECISION


def set_precision(bits: int) -> None:
    """Set the significand width, in bits, for all floating work."""
    if bits < MIN_PRECISION:
        raise ValueError(f"precision too low: {bits} bits")
    mp.prec = bits


def get_precision() -> int:
    return mp.prec


@contextmanager
def working_precision(bits: int):
    """Temporarily switch the global precision."""
    old = mp.prec
    set_precision(bits)
    try:
        yield
    finally:
        mp.prec = old


@lru_cache(maxsize=256)
def power_of_two(k: int) -> mpf:
    """``2^k`` as an mpf, made once: it is exact, so one value serves every precision."""
    return mpf(2) ** k


def rational_mpf(num: int, den: int) -> mpf:
    """num/den, den > 0, rounded once to nearest at current precision.

    The pair need not be in lowest terms: no gcd is taken, and every pair
    of one rational gives the same bits.  As in mpmath's ``mpf_div``, the
    integer quotient keeps at least 5 bits past the precision, and a
    remainder sets one more bit below them, so rounding the quotient rounds
    num/den.  Neither integer is normalized first: mpmath strips trailing
    zero bits a byte at a time, which on a scale such as 10^(400k) costs
    far more than the division.  An exact quotient is stripped in one step.
    """
    if not num:
        return mpf(0)
    n = -num if num < 0 else num
    extra = max(mp.prec + 5 - n.bit_length() + den.bit_length(), 5)
    quot, rem = divmod(n << extra, den)
    if rem:
        quot, extra = (quot << 1) | 1, extra + 1
    else:
        zeros = (quot & -quot).bit_length() - 1
        quot, extra = quot >> zeros, extra - zeros
    return mp.make_mpf(from_man_exp(-quot if num < 0 else quot, -extra, mp.prec, round_nearest))


def to_mpf(x) -> mpf:
    """Convert an int/Fraction/float/mpf to an mpf at current precision.

    A Fraction is rounded once (``rational_mpf``), not as the quotient of
    its rounded numerator and denominator.
    """
    if isinstance(x, Fraction):
        return rational_mpf(x.numerator, x.denominator)
    return mpf(x)


def to_mpc(x) -> mpc:
    """Convert a real or complex scalar to an mpc at current precision."""
    if isinstance(x, mpc) and max(x._mpc_[0][3], x._mpc_[1][3]) <= mp.prec:
        return x  # already at working precision: mpc(x) would equal it
    if isinstance(x, Fraction):
        return mpc(to_mpf(x))
    if isinstance(x, complex):
        return mpc(x.real, x.imag)
    return mpc(x)
