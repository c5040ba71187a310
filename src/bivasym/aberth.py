"""Simultaneous (Aberth–Ehrlich) polynomial root finding in high precision.

Roots are iterated all at once from starting points on the circles of
the Newton polygon of the coefficient moduli (Bini 1996).  When the
coefficients and start points have complex128 values, one vectorised
complex128 iteration first gets within 2^-40 of the roots cheaply.  A
finishing loop at working precision then starts from its iterates, or,
when double precision cannot be trusted, from the start points computed
at working precision.  Its p and p' are the exact polynomial's values at
the iterate, computed on integers and rounded once to working precision
(``unipoly.values_at``), and its step p/(p' - p*s), Aberth's
w/(1 - w*s) with w = p/p' in one division, and the convergence test run
at working precision: that is where a root's bits come from.  The pair
sum s = sum_{j != i} 1/(z_i - z_j) only rescales a step whose size goes
to 0, so it is taken in doubles, from double copies of the iterates
refreshed after every step (MPSolve raises precision only where the
evaluation of p needs it; Bini and Robol 2014).  A root keeps the
working-precision sum when its double is below ``_FLOAT_TINY``, when the
double sum is not finite, or when a double difference |z_i - z_j| <=
``_CLUSTER`` * (|z_i| + |z_j|): so few bits of that difference survive
that the sum would spoil the step.

The finishing loop stops after a sweep whose steps are all within
2^-(prec-12) of their roots, or, when every root took a double pair sum,
after a sweep whose steps bound the error they leave below 2^-(prec + 8).
Aberth's step leaves root i the error e_i^2 d_i / (1 + e_i d_i), where
d_i is the pair sum over the other roots themselves less s_i; relative
to z_i that is about r_i^2 g_i max(max_j r_j, n 2^-52), with r_j the
steps relative to their roots, g_i = sum_{j != i} |z_i| (|z_i| + |z_j|)
/ |z_i - z_j|^2, and n 2^-52 the double pair sum's own rounding, which
makes the rate quadratic, not cubic, once the steps fall below 2^-53.
The estimate holds while each iterate is nearer its root than its
neighbours; an iterate that is not has g_j r_j^2 >= 1/4 and r_j >=
2^-13, which fails the bound at any precision.  A sweep with a
working-precision sum leaves only the first rule.

The residual acceptance asks whether |p(z)| exceeds 2^-24 of the scale
sum |c_k| |z|^k, a 24-bit question, so it is settled in doubles:
``unipoly.double_values`` gives p and the scale at the double of z with
a rigorous bound on their error, and ``unipoly.certified_above`` decides
when the bound leaves one answer.  Where it straddles the threshold, or
a coefficient or z has no finite normal double, p and the scale are taken
exactly, as the steps' p is, and compared at working precision; either
way the verdict is the exact test's.  Only exactly-zero leading
coefficients are dropped: whether a computed one is noise is the
caller's to judge, against its own scale.  Everything is deterministic:
fixed starting angles, fixed iteration caps, no randomness.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np
from mpmath import mp, mpc, mpf

from .errors import RootFindingError
from .precision import power_of_two, to_mpc
from .unipoly import (
    ExactForm,
    certified_above,
    double_coefficients,
    double_point,
    double_values,
    exact_form,
    values_at,
)

# Fixed angular offset for the starting circles, breaking root symmetries.
_START_OFFSET = 0.376991118430775

# A nonzero value below this modulus is lost in complex128 (subnormal or 0).
_FLOAT_TINY = 2.0**-1000

# The complex128 stage stops when each step is at most 2**-40 of its root.
_STAGE_TOL = 2.0**-40

# A double pair difference |z_i - z_j| at most this times |z_i| + |z_j|
# has too few bits left: that root's pair sum is taken at working precision.
_CLUSTER = 2.0**-12

# A finishing sweep with no clustered root is the last when the error it
# left, bounded from its steps, is below 2**-(prec + _LAST_SWEEP_BITS).
_LAST_SWEEP_BITS = 8

# Iteration cap of the complex128 stage and of the finishing loop.
_MAX_ITER = 160

# A root is accepted when |p(z)| is within 2**-24 of the coefficient scale at z.
_RESIDUAL_BITS = 24


def _pair_sum(z: Sequence[mpc], i: int, zi: mpc) -> mpc:
    """``sum_{j != i} 1/(zi - z_j)`` at working precision."""
    s = mpc(0)
    for j, zj in enumerate(z):
        if j != i:
            d = zi - zj
            if d == 0:
                d = (abs(zi) + 1) * power_of_two(4 - mp.prec)
            s += 1 / d
    return s


def _float_pair_sum(
    zd: Sequence[complex], i: int, zi: complex
) -> Optional[Tuple[complex, float]]:
    """``(s, g)`` in doubles, or None when ``zi`` is clustered or tiny.

    ``s = sum_{j != i} 1/(zi - zd_j)`` and ``g = sum_{j != i} |zi|
    (|zi| + |zd_j|) / |zi - zd_j|^2``, the factor by which an error in the
    other iterates, relative to their moduli, spoils ``zi``'s next step.
    Clustered: some ``|zi - zd_j| <= _CLUSTER * (|zi| + |zd_j|)``, where a
    double difference has lost the bits the sum needs.  Tiny: ``|zi| <
    _FLOAT_TINY``, where the double has lost them.  None also when the
    sum is not finite.
    """
    s, g = 0j, 0.0
    azi = abs(zi)
    if azi < _FLOAT_TINY:
        return None
    for j, zj in enumerate(zd):
        if j != i:
            d = zi - zj
            ad, span = abs(d), azi + abs(zj)
            if ad <= _CLUSTER * span:
                return None
            s += 1 / d
            g += (azi / ad) * (span / ad)
    return (s, g) if cmath.isfinite(s) else None


def _aberth_iterate(forms: Sequence[ExactForm], z: List[mpc], tol: mpf) -> List[mpc]:
    """Aberth sweeps, one root at a time, until the roots have their bits.

    ``forms`` holds the polynomial and its derivative (``_with_derivative``).
    Each pair sum is taken in doubles from ``zd``, the double copies of the
    iterates, unless ``_float_pair_sum`` declines; then it is taken at
    working precision.  A sweep is the last when every step is within
    ``tol`` of its root, or when every root took a double pair sum and
    ``max_i g_i r_i^2 * max(max_j r_j, n 2^-52)``, with the ``g_i`` of
    ``_float_pair_sum`` and the steps ``r_i`` relative to their roots, is
    at most ``2^-(prec + _LAST_SWEEP_BITS)``: that bounds the error the
    sweep left.  A sweep with a working-precision sum keeps only the
    ``tol`` rule.
    """
    n = len(z)
    zd = [complex(v) for v in z]
    # The last-sweep test runs in log2: the bound on the error a sweep
    # leaves, and the double pair sum's own rounding.
    bound, rounding = -(mp.prec + _LAST_SWEEP_BITS), math.log2(n) - 52
    for _ in range(_MAX_ITER):
        converged = last = True
        spoil, reach = -math.inf, rounding
        for i in range(n):
            zi = z[i]
            p, dp = values_at(forms, zi)
            if not p:
                continue
            if not dp:
                # Nudge off an exact critical point; deterministic direction.
                zi = zi + (abs(zi) + 1) * power_of_two(-mp.prec // 2)
                p, dp = values_at(forms, zi)
                last = False
                if not dp:
                    continue
            pair = _float_pair_sum(zd, i, complex(zi))
            # g = 0: a working-precision sum, whose sweep is not the last.
            s, g = pair or (_pair_sum(z, i, zi), 0.0)
            # The step p/p' / (1 - (p/p')*s) with one division.
            denom = dp - p * mpc(s)
            delta = p / (denom if denom else dp)
            z[i] = zi - delta
            zd[i] = complex(z[i])
            # Relative, so a tiny root gets as many bits as a large one; an
            # iterate at exact zero has converged only on a zero step.
            step, size = abs(delta), abs(z[i])
            if step > tol * size:
                converged = False
            if last and size and g:
                r = _log2(step) - _log2(size)
                spoil, reach = max(spoil, math.log2(g) + 2 * r), max(reach, r)
            else:
                last = False
        if converged or (last and spoil + reach <= bound):
            break
    return z


def _log2(x: mpf) -> float:
    """``log2(x)`` of a positive mpf, at any exponent."""
    man, exp = x.man_exp
    return math.log2(man) + exp


def _complex128(values: Sequence[mpc]) -> Optional[np.ndarray]:
    """``values`` in complex128, or None when one overflows or a nonzero one underflows."""
    out = np.array([complex(v) for v in values])
    if not np.isfinite(out).all():
        return None
    if any(v != 0 and abs(w) < _FLOAT_TINY for v, w in zip(values, out)):
        return None
    return out


def _float_stage(coeffs: Sequence[mpc]) -> Optional[List[mpc]]:
    """The first stage in complex128: all roots updated at once per sweep.

    It starts from ``_float_start_points``.  Returns None when a
    coefficient or start point has no finite complex128 value, or a nonzero
    one falls below ``_FLOAT_TINY``, when an iterate becomes non-finite, or
    when ``_MAX_ITER`` sweeps do not reach the stopping tolerance; the
    finishing loop then starts from ``_start_points`` instead.
    """
    c = _complex128(coeffs)
    z = None if c is None else _float_start_points(c)
    if z is None or not np.isfinite(z).all() or (np.abs(z) < _FLOAT_TINY).any():
        return None
    others = ~np.eye(len(z), dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_MAX_ITER):
            p, dp = np.full_like(z, c[-1]), np.zeros_like(z)
            for ck in c[-2::-1]:
                dp = dp * z + p
                p = p * z + ck
            diff = np.where(others, z[:, None] - z[None, :], np.inf)
            w = p / dp
            delta = w / (1 - w * (1 / diff).sum(axis=1))
            z = z - delta
            if not np.isfinite(z).all():
                return None
            if (np.abs(delta) <= _STAGE_TOL * np.abs(z)).all():
                return [mpc(v) for v in z]
    return None


def _with_derivative(form: ExactForm) -> List[ExactForm]:
    """``[form, its derivative's form]``."""
    re, im, den = form
    re1, im1 = ([k * v for k, v in enumerate(part)][1:] for part in (re, im or re))
    return [form, (re1, im and im1, den)]


def aberth_roots(coefficients: Sequence) -> List[mpc]:
    """All complex roots (with multiplicity) of an ascending-coefficient poly.

    Coefficients may be Fractions, ints, floats, or complex; they are taken
    exactly into the working precision; exactly-zero leading ones are
    dropped.  Raises RootFindingError (carrying partial results) when a
    residual check fails after the iteration cap.
    """
    exact = list(coefficients)
    while len(exact) > 1 and exact[-1] == 0:
        exact.pop()
    # Factor out roots at the origin exactly.
    zero_roots = 0
    while len(exact) > 1 and exact[0] == 0:
        exact.pop(0)
        zero_roots += 1
    coeffs = [to_mpc(c) for c in exact]
    n = len(coeffs) - 1
    roots: List[mpc] = [mpc(0)] * zero_roots
    if n == 0:
        return roots
    if n == 1:
        roots.append(-coeffs[0] / coeffs[1])
        return roots
    if n == 2:
        roots.extend(_quadratic(coeffs))
        return roots

    forms = _with_derivative(exact_form(exact))

    # Near the roots in complex128, else from the start points at working
    # precision; then finish at working precision.
    z = _float_stage(coeffs) or _start_points(coeffs)
    z = _aberth_iterate(forms, z, power_of_two(12 - mp.prec))

    # Residual acceptance: |p(z)| relative to the coefficient scale at z.
    doubles = double_coefficients(forms[0])
    bad = [zi for zi in z if _residual_fails(exact, forms[0], doubles, zi)]
    if bad:
        raise RootFindingError(
            f"root iteration failed to converge for {len(bad)} of {n} roots",
            partial=roots + z,
        )
    roots.extend(z)
    return roots


def _residual_fails(exact: Sequence, form: ExactForm, doubles, zi: mpc) -> bool:
    """True when |p(zi)| exceeds ``2^-_RESIDUAL_BITS`` of the scale ``sum |c_k| |zi|^k``.

    ``form`` is p's exact form and ``exact`` its coefficients.  Settled
    by ``_residual_fails_in_doubles`` where it can be, else on the exact
    values rounded to working precision.
    """
    verdict = _residual_fails_in_doubles(doubles, zi)
    if verdict is not None:
        return verdict
    (p,) = values_at([form], zi)
    (scale,) = values_at([exact_form([abs(c) for c in exact])], abs(zi))
    return abs(p) > power_of_two(-_RESIDUAL_BITS) * scale.real


def _residual_fails_in_doubles(doubles, zi: mpc) -> Optional[bool]:
    """``_residual_fails``'s verdict from p in doubles, or None where its bound leaves it open.

    ``doubles`` holds p's ``double_coefficients``; None also when they or
    ``zi`` have no finite normal double.
    """
    zd = None if doubles is None else double_point(zi)
    if zd is None:
        return None
    p, scale, err = double_values([doubles], zd)
    loose = 2.0**-_RESIDUAL_BITS
    return certified_above(abs(p), err, loose * scale, loose * err, len(doubles) - 1)


def _hull_edges(log_moduli) -> List[tuple]:
    """``(i, j, log radius)`` for each edge of the upper convex hull of ``(i, log|c_i|)``.

    ``log_moduli`` lists the ``(i, log|c_i|)`` of the nonzero coefficients,
    i ascending; the edge from i to j has radius ``(|c_i|/|c_j|)^(1/(j-i))``.
    """
    hull: List[tuple] = []
    for i, log_c in log_moduli:
        while len(hull) >= 2:
            (i0, l0), (i1, l1) = hull[-2], hull[-1]
            if (l1 - l0) * (i - i0) > (log_c - l0) * (i1 - i0):
                break  # the last vertex lies strictly above the new chord
            hull.pop()
        hull.append((i, log_c))
    return [(i, j, (log_i - log_j) / (j - i)) for (i, log_i), (j, log_j) in zip(hull, hull[1:])]


def _start_points(coeffs: Sequence[mpc]) -> List[mpc]:
    """Bini's starting points: on the circles of the Newton polygon.

    Each edge of the upper convex hull of the points (i, log|c_i|), from i
    to j, gives j - i points evenly spread on the circle of radius
    (|c_i|/|c_j|)^(1/(j-i)), turned by 2*pi*i/n plus a fixed offset.  The
    roots of a polynomial whose moduli span many decades then start near
    their own moduli.  Taken at working precision for the finishing loop
    when the complex128 stage declines.
    """
    n = len(coeffs) - 1
    start = []
    for i, j, log_r in _hull_edges([(i, mp.log(abs(c))) for i, c in enumerate(coeffs) if c]):
        radius = mp.exp(log_r)
        turn = 2 * mp.pi * i / n + _START_OFFSET
        start.extend(radius * mp.exp(mpc(0, 2 * mp.pi * k / (j - i) + turn)) for k in range(j - i))
    return start


def _float_start_points(c: np.ndarray) -> Optional[np.ndarray]:
    """``_start_points`` in doubles from the complex128 coefficients ``c``.

    None when a radius overflows a double.
    """
    n = len(c) - 1
    start = []
    for i, j, log_r in _hull_edges([(i, math.log(abs(v))) for i, v in enumerate(c) if v]):
        try:
            radius = math.exp(log_r)
        except OverflowError:
            return None
        turn = 2 * math.pi * i / n + _START_OFFSET
        start.extend(cmath.rect(radius, 2 * math.pi * k / (j - i) + turn) for k in range(j - i))
    return np.array(start)


def _quadratic(coeffs: Sequence[mpc]) -> List[mpc]:
    c, b, a = coeffs[0], coeffs[1], coeffs[2]
    disc = mp.sqrt(b * b - 4 * a * c)
    # Pick the sign that avoids cancellation in -b -+ disc.
    if abs(-b + disc) >= abs(-b - disc):
        big = (-b + disc) / (2 * a)
    else:
        big = (-b - disc) / (2 * a)
    if big == 0:
        return [mpc(0), mpc(0)]
    other = c / (a * big)
    return [big, other]


def roots_of_rational_poly(poly: Sequence[Fraction]) -> List[mpc]:
    """Roots of an exact-coefficient polynomial at ambient precision."""
    return aberth_roots([Fraction(c) for c in poly])
