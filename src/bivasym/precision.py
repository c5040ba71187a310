"""Global floating-precision configuration.

All floating computation in the package runs on mpmath's global context.
The precision (in bits of significand) is a single package-wide setting so
that every tolerance downstream is stated against one precision.  Default
is a 128-bit significand.  ``round_ratio`` rounds an exact ratio of ints
once: table entries, Fractions and exact polynomial values all pass it.
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


def round_ratio(v: int, exp: int, den: int) -> tuple:
    """The mpf tuple of ``v * 2^exp / den``, den > 0, rounded once to ``mp.prec``, to nearest.

    No gcd is taken: every pair of one rational gives the same bits.  Off
    a power of two, the quotient keeps at least ``prec + 3`` bits and a
    sticky bit for a nonzero remainder, so the one rounding is correct.
    Neither integer is normalized first: mpmath strips trailing zero bits
    a byte at a time, which on a scale such as 10^(400k) costs far more
    than the division.
    """
    k = den.bit_length() - 1
    if den != 1 << k:
        m = -v if v < 0 else v
        shift = max(0, mp.prec + 4 + k - m.bit_length())
        q, r = divmod(m << shift, den)
        m = (q << 1) | (r > 0)
        v, exp, k = (-m if v < 0 else m), exp - shift - 1, 0
    return from_man_exp(v, exp - k, mp.prec, round_nearest)


def rational_mpf(num: int, den: int) -> mpf:
    """num/den, den > 0, rounded once to nearest at current precision (``round_ratio``)."""
    return mp.make_mpf(round_ratio(num, 0, den))


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
