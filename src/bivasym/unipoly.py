"""Univariate polynomial kernels on integers, for exact rational polynomials.

Polynomials are ascending coefficient lists of Fractions; every exact step
on them runs on ints, the package's one exact-polynomial route.  The gcd
and square-free part run a primitive remainder sequence (each
pseudo-remainder divided by its content), and ``bareiss_minors`` gives
the resultant's determinants by Bareiss's fraction-free elimination.

Every value at a working-precision point is computed here too, exactly:
``exact_form`` puts the coefficients over one denominator as Gaussian
ints, ``dyadic`` reads the point's parts as ``(a + b*i) / 2^s`` from their
``_mpf_`` tuples, ``horner_exact`` runs Horner on ints, and
``round_exact`` rounds the result once by ``precision.round_ratio``
(``values_at`` does all four).  A value is then the correctly rounded
value of the exact polynomial at the point.

A threshold test on such a value is settled in doubles first.
``double_values`` runs Horner in complex doubles and returns the value,
the magnitude sum ``sum |c_k| |z|^k`` and a rigorous bound on the error of
both (Higham, Accuracy and Stability of Numerical Algorithms, 5.1),
counting the rounding of the coefficients (``double_coefficients``) and
of the point (``double_point``) to doubles.  ``certified_above`` decides
a test only when the bound, widened by the working precision's own
rounding, leaves one answer; otherwise the caller runs the exact test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from mpmath import mp
from mpmath.libmp import fzero, round_nearest, to_float

from .errors import EvaluationOverflow
from .precision import round_ratio

UPoly = List[Fraction]

# ``(re, im, den)``: ascending coefficients (re[k] + i*im[k]) / den on ints;
# im is None when every coefficient is real.
ExactForm = Tuple[List[int], Optional[List[int]], int]

# Bits of a point's smaller part more than 2*prec + _GAP_BITS below the top
# of its larger part are rounded off, so the ints do not grow with the gap;
# a value then moves by about 2^-(2*prec + _GAP_BITS) of its scale.
_GAP_BITS = 1024

# A double's unit roundoff, and the least positive normal double.
_UNIT = 2.0**-53
_NORMAL = 2.0**-1022


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


def eval_at(p: Sequence[Fraction], x: Fraction) -> Fraction:
    """``p(x)`` by Horner; on int coefficients and an int ``x`` it stays on ints."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def exact_form(coeffs: Sequence) -> ExactForm:
    """The ascending ``coeffs`` (ints, Fractions, floats, complex, mpf or mpc), exactly.

    An mpf or mpc is taken as ``dyadic`` reads it.
    """
    parts = [_exact_parts(c) for c in coeffs]
    den = math.lcm(*(v.denominator for pair in parts for v in pair))
    re = [v.numerator * (den // v.denominator) for v, _ in parts]
    im = [v.numerator * (den // v.denominator) for _, v in parts]
    return re, (im if any(im) else None), den


def _exact_parts(c) -> Tuple[Fraction, Fraction]:
    if hasattr(c, "_mpf_") or hasattr(c, "_mpc_"):
        a, b, s = dyadic(c)
        return Fraction(a, 1 << s), Fraction(b, 1 << s)
    if isinstance(c, complex):
        return Fraction(c.real), Fraction(c.imag)
    return Fraction(c), Fraction(0)


def dyadic(z) -> Tuple[int, int, int]:
    """``(a, b, s)`` with the mpf or mpc ``z`` equal to ``(a + b*i) / 2^s``, s >= 0.

    The parts are read exactly from their ``_mpf_`` tuples, except that the
    bits of a part more than ``2*prec + _GAP_BITS`` below the other part's
    top are rounded off, so the ints do not grow with the gap between the
    parts.  Raises EvaluationOverflow on a part that is not finite.
    """
    parts = z._mpc_ if hasattr(z, "_mpc_") else (z._mpf_, fzero)
    if any(not man and exp for _, man, exp, _ in parts):  # inf or nan
        raise EvaluationOverflow("evaluation overflow")
    (a, ea), (b, eb) = ((-man if sign else man, exp) for sign, man, exp, _ in parts)
    if not a:
        ea = eb
    elif not b:
        eb = ea
    top = max(ea + a.bit_length(), eb + b.bit_length())
    e = max(min(ea, eb), top - 2 * mp.prec - _GAP_BITS)
    a, b = _times_power_of_two(a, ea - e), _times_power_of_two(b, eb - e)
    return (a << e, b << e, 0) if e > 0 else (a, b, -e)


def _times_power_of_two(m: int, k: int) -> int:
    """``m * 2^k``, rounded to an int (half up) when k < 0."""
    return m << k if k >= 0 else (m + (1 << (-k - 1))) >> -k


def horner_exact(re: Sequence[int], im: Optional[Sequence[int]], a: int, b: int, s: int):
    """``sum_k c_k (a + b*i)^k 2^(s*(d - k))`` on Gaussian ints, ``c_k = re[k] + i*im[k]``.

    With ``z = (a + b*i) / 2^s`` and ``d = len(re) - 1`` that is ``2^(s*d)``
    times the polynomial at z, exactly, as ``(real, imaginary)``; ``im``
    None stands for real coefficients.
    """
    d = len(re) - 1
    ur, ui = re[d], (im[d] if im else 0)
    shift = 0
    for k in range(d - 1, -1, -1):
        shift += s
        if b:
            ur, ui = ur * a - ui * b, ur * b + ui * a
        else:
            ur, ui = ur * a, ui * a
        if re[k]:
            ur += re[k] << shift
        if im and im[k]:
            ui += im[k] << shift
    return ur, ui


def round_exact(re: int, im: int, exp: int, den: int):
    """The mpc ``(re + i*im) * 2^exp / den``, each part rounded once by ``precision.round_ratio``."""
    return mp.make_mpc((round_ratio(re, exp, den), round_ratio(im, exp, den)))


def values_at(forms: Sequence[ExactForm], z) -> list:
    """Each form's polynomial at the mpf or mpc ``z``, rounded once to ``mp.prec``, as mpc."""
    a, b, s = dyadic(z)
    out = []
    for re, im, den in forms:
        ur, ui = horner_exact(re, im, a, b, s)
        out.append(round_exact(ur, ui, -s * (len(re) - 1), den))
    return out


def _double(v: int, den: int) -> Optional[float]:
    """``v / den`` rounded to a double, or None when nonzero and not a finite normal double."""
    try:
        d = v / den
    except OverflowError:
        return None
    return d if not v or _NORMAL <= abs(d) < math.inf else None


def double_coefficients(form: ExactForm) -> Optional[list]:
    """The ascending coefficients of ``form`` rounded to doubles, complex when ``im`` is given.

    None when a nonzero part has no finite normal double.
    """
    re, im, den = form
    out = []
    for k, v in enumerate(re):
        a, b = _double(v, den), (_double(im[k], den) if im else 0.0)
        if a is None or b is None:
            return None
        out.append(complex(a, b) if im else a)
    return out


def double_point(z) -> Optional[complex]:
    """The mpf or mpc ``z`` rounded to a complex double, part by part, to nearest.

    None when a nonzero part is not a finite normal double.
    """
    parts = z._mpc_ if hasattr(z, "_mpc_") else (z._mpf_, fzero)
    for _, man, exp, bc in parts:
        if (man and not -1021 <= exp + bc <= 1023) or (not man and exp):
            return None
    return complex(to_float(parts[0], rnd=round_nearest), to_float(parts[1], rnd=round_nearest))


def double_values(columns: Sequence[Sequence], x: complex, y: complex = 0j):
    """``(v, m, e)``: ``sum_j y^j sum_i columns[j][i] x^i`` in doubles, with a bound on its error.

    Each column is evaluated in x by Horner, then the column values by
    Horner in y; a univariate polynomial is one column.  ``v`` is the
    complex-double value, ``m`` the magnitude sum ``sum |c_ij| |x|^i |y|^j``
    in doubles, and ``e`` bounds both ``|v - P|`` and ``|m - M|``, where P
    is the exact polynomial whose coefficients round to ``columns`` (as
    ``double_coefficients`` rounds them) at a point whose parts round to
    x and y, and M its magnitude sum there.

    With n = d_x + d_y and u = 2^-53, a complex Horner step perturbs each
    term by at most (1 + u)^4 (the product by sqrt(2) gamma_2, the sum by
    u), and the rounding of the coefficients and of the point by (1 +
    u)^(n + 1), so |v - P| <= gamma_{5n+2} M, and |m - M| <= gamma_{4n+2} M,
    with gamma_k = k u / (1 - k u).  ``e`` is gamma_{10n+10} m, which
    covers both since M <= m / (1 - gamma_{4n+2}).  A product that
    underflows adds at most 2^-1072 per step, times the powers of |x| and
    |y| that follow it, so ``e`` adds (n + 1)^2 2^-1068 max(1, |x|)^d_x
    max(1, |y|)^d_y.  ``e`` is inf or nan when a double overflowed.
    """
    ax, ay = abs(x), abs(y)
    v, m = 0j, 0.0
    for col in reversed(columns):
        cv, cm = 0j, 0.0
        for c in reversed(col):
            cv = cv * x + c
            cm = cm * ax + abs(c)
        v = v * y + cv
        m = m * ay + cm
    dx, dy = max(len(col) for col in columns) - 1, len(columns) - 1
    n = dx + dy
    try:
        tail = (n + 1) ** 2 * 2.0**-1068 * max(1.0, ax) ** dx * max(1.0, ay) ** dy
    except OverflowError:
        tail = math.inf
    k = (10 * n + 10) * _UNIT
    return v, m, k / (1 - k) * m + tail


def certified_above(a: float, a_err: float, b: float, b_err: float, n: int) -> Optional[bool]:
    """Whether ``A > B`` for every A within ``a_err`` of ``a`` and B within ``b_err`` of ``b``.

    Each side is widened by (n + 16) 2^-prec + 2^-48 relative as well, so a
    decided answer is also the exact test's: that test rounds A and B to
    ``mp.prec``, B's scale at a modulus rounded once and raised to powers
    up to ``n``, and the double test's own products and moduli move by
    less than 2^-48.  None, for the exact test to decide, when the answer
    depends on where A and B lie, when a bound is not finite, or when B's
    lower end is not a normal double.
    """
    slack = (n + 16) * 2.0**-mp.prec + 2.0**-48
    b_lo, b_hi = (b - b_err) * (1 - slack), (b + b_err) * (1 + slack)
    if not (a < math.inf and a_err < math.inf and _NORMAL <= b_lo and b_hi < math.inf):
        return None
    if (a - a_err) * (1 - slack) > b_hi:
        return True
    if (a + a_err) * (1 + slack) < b_lo:
        return False
    return None


def derivative(p: Sequence[Fraction]) -> UPoly:
    if len(p) <= 1:
        return [Fraction(0)]
    return trim([Fraction(c) * i for i, c in enumerate(p)][1:])


def _int_primitive(a: List[int]) -> List[int]:
    """``a`` over the gcd of its coefficients, leading coefficient positive."""
    content = math.gcd(*a)
    if content == 0:
        return [0]
    return [v // content for v in a] if a[-1] > 0 else [-v // content for v in a]


def _primitive_part(p: Sequence[Fraction]) -> Tuple[Fraction, List[int]]:
    """``(c, P)`` with ``p = c * P`` and P as ``_int_primitive`` gives it; c = 0 for p = 0."""
    p = trim(p)
    den = math.lcm(*(c.denominator for c in p))
    P = _int_primitive([int(c * den) for c in p])
    return (p[-1] / P[-1] if P[-1] else Fraction(0)), P


def _int_prem(a: List[int], b: List[int]) -> List[int]:
    """A remainder of ``lc(b)^k * a`` by ``b`` over the integers, some k >= 0."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    while len(r) - 1 >= db and any(r):
        top, shift = r.pop(), len(r) - db
        r = [lb * v for v in r]
        for i, v in enumerate(b[:-1]):
            r[shift + i] -= top * v
        while len(r) > 1 and r[-1] == 0:
            r.pop()
    return r or [0]


def _int_gcd(a: List[int], b: List[int]) -> List[int]:
    """Primitive gcd of two trimmed integer polynomials by a primitive remainder sequence."""
    a, b = _int_primitive(a), _int_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b != [0]:
        a, b = b, _int_primitive(_int_prem(a, b))
    return a


def _int_divexact(a: List[int], b: List[int]) -> List[int]:
    """``a / b`` for trimmed integer polynomials that divide over the integers."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    q = [0] * max(1, len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        q[k], rem = divmod(r[k + db], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        for i, v in enumerate(b):
            r[k + i] -= q[k] * v
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


def gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> UPoly:
    """Monic GCD, by a primitive remainder sequence on integer coefficients."""
    g = _int_gcd(_primitive_part(a)[1], _primitive_part(b)[1])
    if g == [0]:
        return [Fraction(0)]
    return [Fraction(c, g[-1]) for c in g]


def squarefree_part(p: Sequence[Fraction]) -> UPoly:
    """``p`` divided by the monic gcd(p, p'): the same roots, each once.

    On integers: ``p = c * P``, ``G`` the primitive gcd of P and P', and the
    result ``c * lc(G) * (P / G)``, so it equals the rational quotient.
    Raises ArithmeticError should ``G`` not divide ``P``.
    """
    c, P = _primitive_part(p)
    G = _int_gcd(P, [i * v for i, v in enumerate(P)][1:] or [0])
    scale = c * G[-1]
    return [scale * v for v in _int_divexact(P, G)]


def bareiss_minors(matrix: Sequence[Sequence[int]]) -> List[int]:
    """Minors of an r x c integer matrix (0 <= r <= c) by Bareiss elimination.

    Entry ``t`` of the result is the determinant of the first r - 1 columns
    together with column r - 1 + t: a square matrix gives ``[det]``, the
    empty one ``[1]``.  Each step's 2x2 cross-multiplication is divided
    exactly by the previous pivot (Bareiss, Math. Comp. 22, 1968), so
    entries stay minors of the input and no fraction is formed.  A zero
    pivot swaps in a lower row; when there is none, the first r - 1 columns
    are dependent and every minor is 0.
    """
    if not matrix:
        return [1]
    n, width = len(matrix), len(matrix[0])
    m = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return [0] * (width - n + 1)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk, row_k = m[k][k], m[k]
        for row in m[k + 1 :]:
            a = row[k]
            for j in range(k + 1, width):
                row[j] = (pk * row[j] - a * row_k[j]) // prev
        prev = pk
    return [sign * v for v in m[n - 1][n - 1 :]]
