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


def to_mpf(x) -> mpf:
    """Convert an int/Fraction/float/mpf to an mpf at current precision."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
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
