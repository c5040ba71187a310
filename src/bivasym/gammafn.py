"""Real gamma function at the working precision of mpmath.

The log form carries the sign separately, so estimates stay in log space
where Gamma(b) itself would be astronomically large or small.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .errors import GammaPole
from .precision import to_mpf


def gamma_real(b) -> mpf:
    """Gamma(b) for real b; raises GammaPole at nonpositive integers."""
    b = to_mpf(b)
    if b <= 0 and b == mp.floor(b):
        raise GammaPole("gamma pole")
    return mp.gamma(b)


def gamma_log(b) -> tuple[int, mpf]:
    """(sign, log|Gamma(b)|) at working precision."""
    g = gamma_real(b)
    return (1 if g > 0 else -1), mp.log(abs(g))
