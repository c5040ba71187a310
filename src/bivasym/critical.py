"""Critical points of H in a direction: solve, polish, classify.

The critical system { H = 0, r0*y*H_y = s0*x*H_x } is reduced to one
variable by an exact Sylvester resultant, and all roots of its square-free
part x^m R(x^d), d the gcd of its exponents less the least one, are found
by simultaneous iteration on R and d-th roots.  The partner of a root ``w`` is
read off the first subresultant ``S1 = sigma1(x)*y + sigma0(x)`` of the
system: when ``sigma1(w) != 0`` the two polynomials share exactly one root
above ``w``, namely ``q = -sigma0(w)/sigma1(w)`` (González-Vega and
El Kahoui, J. Complexity 12, 1996; the rational representation of
Melczer and Salvy, ISSAC 2016).  The partners are found by root-solving
the specialized system instead when ``sigma1(w)`` vanishes (two points
share the x, or both leading coefficients in y vanish there), when a
y-degree of 0 leaves S1 undefined, or when ``q`` fails the 1e-4 residual
filter.  That root solve first drops each top y-coefficient of ``F(w, .)``
that vanishes.  One test, ``_vanishes_at``, decides both: a value at ``w``
vanishes when it is at most ``2^-(prec/2)`` of its own coefficient scale
at ``|w|``, a scale taken exactly and rounded once.  Every candidate is
Newton-polished on the full 2x2 system with its exact Jacobian.  Points
come out by torus, in the order of each torus's first (|p|, |q|), and by
arg p, then arg q, on one torus.  The orbit rule: conjugation and the
characters chi = (zeta^s, zeta^t) of H's exponent lattice
(``lattice.characters``) leave the critical system unchanged, so one
partner per orbit is polished, and every other point is an exact image
(chi_1 p, chi_2 q) of it, or the conjugate of one, tagged with the
polished point and whether it was conjugated.  ``same_point`` alone
decides whether two points coincide (``apart`` settles it in doubles
first where their difference is plain), and ``same_torus`` whether they
share a torus.  Minimality is probed numerically on the
one circle |y| = |q| plus the roots of H(0, y); verdicts carry a concrete
witness when violated.  The probe root-solves the circle's first
``FIRST_SLICES`` slices alone and stops there when they hold a witness.
Every zero test judges a value against its own magnitude at the point
(``negligible``), and every match a coordinate or modulus against its
own (``_excess``), so no verdict depends on the units of x and y.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np
from mpmath import mp, mpc, mpf

from .aberth import aberth_roots, roots_of_rational_poly
from .bivariate import BivariatePolynomial, polyval
from .errors import ConfigError, NonIsolatedCriticalSet, RootFindingError
from .lattice import Characters, characters, root_of_unity
from .precision import power_of_two, to_mpc, to_mpf
from .problem import Direction
from .resultant import first_subresultant, resultant_eliminating, shares_positive_dimensional_zero
from .unipoly import (
    ExactForm,
    certified_above,
    double_point,
    exact_form,
    values_at,
)
from .unipoly import degree as upoly_degree
from .unipoly import squarefree_part as upoly_squarefree_part

PROBABLY_STRICTLY_MINIMAL = "probably_strictly_minimal"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
UNTESTED = "untested"


# Fixed numeric thresholds, each relative to the scale it is compared with.
RESIDUAL_TOL = 1e-12  # polished system residual accepted as a solution
START_TOL = 1e-4  # unpolished residual a partner candidate needs to be polished
MERGE_TOL = 1e-10  # a coordinate or modulus this close to its own modulus, or a weight, matches
IDENTITY_TOL = 1e-10  # H_y/H_x = p/(lambda*q) check in the local data
MARGIN_TOL = 1e-6  # probe margin needed for probably_strictly_minimal
BOUNDARY_TOL = 1e-9  # an x-root this close to the |p| circle touches it
SMOOTH_TOL = 1e-6  # a value below this times its magnitude sum at the point is zero
# Probe circle slices root-solved before the others: most circle witnesses
# of violated points lie in slices 0..7.
FIRST_SLICES = 8


@dataclass(frozen=True)
class ProbeGrid:
    """Sample count of the minimality probe: ``angles`` slices of one circle."""

    angles: int = 256
    radii: int = 1


# Slices 0..N/2 of the unit circle, the y-values of the probe over |q|.
_HALF_CIRCLE = np.exp(2j * np.pi * np.arange(ProbeGrid.angles // 2 + 1) / ProbeGrid.angles)


@dataclass
class CriticalPoint:
    """One polished solution of the critical system with its verdicts.

    The point keeps |p|, |q|, arg p and arg q at working precision and
    (|p|, |q|) and (p, q) in doubles (``abs_pq``, ``arg_pq``, ``moduli``,
    ``doubles``), each taken once when first asked for, for the bits of p
    and q and the ``mp.prec`` they were taken at; a new p, q or precision
    takes them afresh.  ``orbit`` is the solve's tag ``(source,
    conjugated)``: the point is the image of the polished point ``source``
    under a character, conjugated when ``conjugated``, or either way when
    it is None.  The kept values and the tag are not part of equality or
    ``repr``.
    """

    p: mpc
    q: mpc
    residual_h: float = 0.0
    residual_dir: float = 0.0
    smooth: bool = False
    minimality: str = UNTESTED
    witness: Optional[Tuple[complex, complex]] = None
    margin: Optional[float] = None  # least |x|/|p| - 1 the probe saw, up to a witness
    torus_class: Optional[int] = None
    orbit: Optional[tuple] = field(default=None, compare=False, repr=False)
    _kept: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def _keep(self, name: str, make):
        """``make()``, taken once for the bits of p and q and ``mp.prec``."""
        key = (mp.prec, self.p._mpc_, self.q._mpc_)
        if self._kept is None or self._kept[0] != key:
            self._kept = (key, {})
        kept = self._kept[1]
        if name not in kept:
            kept[name] = make()
        return kept[name]

    @property
    def abs_pq(self) -> Tuple[mpf, mpf]:
        """``(|p|, |q|)`` at working precision."""
        return self._keep("abs", lambda: (abs(self.p), abs(self.q)))

    @property
    def arg_pq(self) -> Tuple[mpf, mpf]:
        """``(arg p, arg q)`` at working precision."""
        return self._keep("arg", lambda: (mp.arg(self.p), mp.arg(self.q)))

    @property
    def moduli(self) -> Tuple[float, float]:
        """``(|p|, |q|)`` in doubles, as ``same_torus`` compares them."""
        return self._keep("moduli", lambda: tuple(float(v) for v in self.abs_pq))

    @property
    def doubles(self) -> Tuple[complex, complex]:
        """``(p, q)`` in doubles, as ``apart`` compares them."""
        return self._keep("doubles", lambda: (complex(self.p), complex(self.q)))

    def conjugate_of(self, other: "CriticalPoint") -> bool:
        return same_point(self, (mp.conj(other.p), mp.conj(other.q)))


def _excess(u, v, size=None):
    """``|u - v| - MERGE_TOL * |u|``: ``v`` matches ``u`` when this is at most 0.

    The one match rule for coordinates and moduli.  ``size`` is ``|u|``
    where the caller has it.  It is nan when ``u`` is not finite.
    """
    return abs(u - v) - MERGE_TOL * (abs(u) if size is None else size)


def same_point(a, b: Tuple[mpc, mpc]) -> bool:
    """True when each coordinate of ``b`` matches ``a``'s (``_excess``).

    ``b`` is a ``(p, q)`` pair and ``a`` one too, or a CriticalPoint, whose
    kept moduli are used.  They are taken at working precision, where a
    point past the double range keeps them.
    """
    sizes, a = (a.abs_pq, (a.p, a.q)) if isinstance(a, CriticalPoint) else ((None, None), a)
    return all(_excess(u, v, size) <= 0 for u, v, size in zip(a, b, sizes))


def apart(a: Tuple[complex, complex], b: Tuple[complex, complex]) -> bool:
    """True when the doubles of two points settle that ``same_point`` fails.

    ``a`` and ``b`` are ``(p, q)`` in doubles: some coordinate's excess is
    above what rounding to doubles can move.  Not finite doubles settle
    nothing.
    """
    return any(_excess(u, v) > 1e-15 * (abs(u) + abs(v)) + 1e-300 for u, v in zip(a, b))


def same_torus(a: Tuple[float, float], b: Tuple[float, float]) -> bool:
    """True when each modulus of ``b`` matches ``a``'s (``_excess``).

    ``a`` and ``b`` are ``(|p|, |q|)`` pairs.  A modulus past the double
    range reads inf, and such an ``a`` shares its torus with no point.
    """
    return all(_excess(u, v, u) <= 0 for u, v in zip(a, b))


@dataclass
class TorusClass:
    """Critical points on one torus (``same_torus``) with its first point's moduli."""

    index: int
    points: List[CriticalPoint]
    modulus_p: float
    modulus_q: float
    weight: float
    dominant: bool = False


def critical_system(
    H: BivariatePolynomial, direction: Direction
) -> Tuple[BivariatePolynomial, BivariatePolynomial]:
    """The exact polynomial pair (H, r0*y*H_y - s0*x*H_x)."""
    if H.is_constant():
        raise ConfigError("H must be nonconstant")
    r0, s0 = direction.r0, direction.s0
    dir_poly = BivariatePolynomial({(i, j): (r0 * j - s0 * i) * c for (i, j), c in H.terms.items()})
    if not dir_poly:
        # H is a function of x^r0 * y^s0 alone: its whole zero curve is critical.
        raise NonIsolatedCriticalSet("non-isolated critical set")
    return H, dir_poly


def eliminant(H: BivariatePolynomial, direction: Direction) -> List[Fraction]:
    """Resultant in x of the critical system, y eliminated, as computed.

    Raises NonIsolatedCriticalSet when the system polynomials share a
    factor.  Roots at the origin are kept: a solution can have p = 0 even
    when H(0,0) != 0, as (0, 1) for H = x + (1 - y)^2 in direction 1:1.
    """
    return _system_eliminant(*critical_system(H, direction))


def _system_eliminant(f: BivariatePolynomial, g: BivariatePolynomial) -> List[Fraction]:
    """``eliminant`` of the critical system ``(f, g)``."""
    res = resultant_eliminating(f, g)
    if shares_positive_dimensional_zero(f, g, res):
        raise NonIsolatedCriticalSet("non-isolated critical set")
    return res


def noise_floor() -> mpf:
    """Relative size at or below which a computed part is noise: 2^-(prec-8)."""
    return power_of_two(8 - mp.prec)


def snap_noise(z) -> mpc:
    """``z`` with each part at most ``noise_floor() * |z|`` set to exact zero.

    A real point then sorts by ``arg p`` as exactly 0 or pi, whatever the
    sign of the noise its polish left in the imaginary part.
    """
    z = mpc(z)
    floor = noise_floor() * abs(z)
    return mpc(0 if abs(z.real) <= floor else z.real, 0 if abs(z.imag) <= floor else z.imag)


def _relative_residual(poly: BivariatePolynomial, p: mpc, q: mpc, moduli=None) -> mpf:
    """``|poly(p, q)|`` over its magnitude scale; ``moduli``, when given, is ``(|p|, |q|)``."""
    scale = poly.eval_magnitude_scale(*(moduli or (p, q)))
    if scale == 0:
        return to_mpf(0)
    return abs(poly.eval(p, q)) / scale


def _snapped_point(F1, F2, p: mpc, q: mpc):
    """``(p, q, residual_h, residual_dir)``: the point snapped by ``snap_noise``, its residuals."""
    p, q = snap_noise(p), snap_noise(q)
    moduli = abs(p), abs(q)
    return p, q, _relative_residual(F1, p, q, moduli), _relative_residual(F2, p, q, moduli)


def _newton_polish(F1: BivariatePolynomial, F2: BivariatePolynomial, start):
    """Damped Newton on the 2x2 system from ``start``, at most 60 steps.

    ``start`` and the result are ``_snapped_point`` tuples; a step is
    taken when its snapped point lowers the larger of the two residuals.
    """
    J = [
        [F1.partial("x"), F1.partial("y")],
        [F2.partial("x"), F2.partial("y")],
    ]
    target = power_of_two(16 - mp.prec)
    best = start
    for _ in range(60):
        p, q, cur = best[0], best[1], max(best[2:])
        if cur <= target:
            break
        f1, f2 = F1.eval(p, q), F2.eval(p, q)
        a, b = J[0][0].eval(p, q), J[0][1].eval(p, q)
        c, d = J[1][0].eval(p, q), J[1][1].eval(p, q)
        det = a * d - b * c
        if abs(det) == 0:
            break
        dx = (f1 * d - f2 * b) / det
        dy = (a * f2 - c * f1) / det
        step = mpf(1)
        for _ in range(30):
            cand = _snapped_point(F1, F2, p - step * dx, q - step * dy)
            if max(cand[2:]) < cur:
                best = cand
                break
            step /= 2
        else:
            break
    return best


def solve_critical(H: BivariatePolynomial, direction: Direction) -> List[CriticalPoint]:
    """All isolated solutions of the critical system, polished and deduplicated.

    H is real, so the eliminant's roots come in conjugate pairs
    (``_conjugate_twins``), and the characters chi of its exponent lattice
    move them in orbits (``_eliminant_roots``).  Above the first root ``u``
    of an orbit under both, one partner is polished per orbit under the
    characters that fix x (``_partners``) and, where conj(u) = chi_1 u,
    under (p, q) -> conj(chi_1 p, chi_2 q) (``_partner_mates``).  It gives
    its images (chi_1 p, chi_2 q) and their conjugates, with its residuals,
    smoothness and orbit tag (``_image``); where its conjugate is one of
    its images, roots below the axis take only conjugates, others images.

    Raises NonIsolatedCriticalSet when the system polynomials share a
    factor, and RootFindingError (with partial results) when the
    simultaneous iteration fails to converge.
    """
    F1, F2 = critical_system(H, direction)
    res = _system_eliminant(F1, F2)
    if upoly_degree(res) < 1:
        return []
    group = characters(H)
    # Each distinct root once: Aberth converges only linearly on a repeated
    # root, and the partners of a shared x come from _recover_partner.
    first_roots, moves = _eliminant_roots(upoly_squarefree_part(res), group)
    s1 = first_subresultant(F1, F2)
    sigmas = None if s1 is None else [exact_form(v) for v in (*s1, [abs(c) for c in s1[1]])]
    twins = _conjugate_twins(first_roots)
    mates = {**twins, **{j: k for k, j in twins.items()}}  # each paired root's conjugate
    fixing = sum(s == 0 for s, _ in group.exponents)

    done, points = set(), []
    for k, w in enumerate(first_roots):
        if k in twins or k in done:
            continue
        cosets = moves(k)
        targets = [(image, chi) for image, chis in cosets.items() for chi in chis]
        done |= {j for image in cosets for j in (image, mates.get(image))}
        closed = any(mates.get(image) in cosets for image in cosets)
        starts = _partners(F1, F2, w, sigmas, fixing)
        swap = cosets.get(mates.get(k, k), [None])[0]  # chi with chi_1 u = conj(u)
        paired, fixed = _partner_mates(starts, swap, fixing) if closed else ({}, set())
        for i, start in enumerate(starts):
            if i in paired:  # its points are the conjugate images of its mate's
                continue
            p, q, res_h, res_dir = _newton_polish(F1, F2, start)
            if max(res_h, res_dir) > RESIDUAL_TOL:
                continue
            pt = CriticalPoint(p, q, float(res_h), float(res_dir), smooth=is_smooth(H, (p, q)))
            pt.orbit = (pt, None if closed and (len(starts) == 1 or i in fixed) else False)
            both = i in paired.values()
            for image, chi in targets:
                mate = mates.get(image)
                if both or not (image in twins and mate in cosets):
                    points.append(_image(pt, chi))
                if both or (mate is not None and (mate not in cosets or mate in twins)):
                    points.append(_image(pt, chi, conjugate=True))
    return _merge_duplicates(points)


def _image(pt: CriticalPoint, chi, conjugate: bool = False) -> CriticalPoint:
    """``pt``, or ``(chi_1 p, chi_2 q)``, conjugated when asked, with its residuals and smoothness.

    ``pt`` is a polished point, and ``chi`` None for the identity, which
    returns ``pt`` itself unless it is conjugated.  The image's tag is
    ``(pt, conjugate)``, or ``(pt, None)`` when ``pt``'s is.
    """
    if chi is None and not conjugate:
        return pt
    p, q = (pt.p, pt.q) if chi is None else (snap_noise(pt.p * chi[0]), snap_noise(pt.q * chi[1]))
    if conjugate:
        p, q = mp.conj(p), mp.conj(q)
    orbit = (pt, None if pt.orbit[1] is None else conjugate)
    return CriticalPoint(p, q, pt.residual_h, pt.residual_dir, smooth=pt.smooth, orbit=orbit)


def _power_roots(poly: Sequence, solve, fixing: int = 1):
    """``(roots, m, d)``: roots of ``poly = z^m R(z^d)``, by ``solve`` on ``R`` when ``d > 1``.

    ``d`` is the gcd of the exponents less the least one, ``m``, read
    exactly from the coefficients.  Each root ``u`` of ``R`` gives the
    roots ``u^(1/d) exp(2 pi i j/d)``, ``j < d/fixing``, after the ``m``
    zero roots: one per orbit under ``z -> exp(2 pi i/fixing) z``,
    ``fixing`` a divisor of ``d``.  When ``d <= 1``, ``solve(poly)``.
    """
    exponents = [e for e, c in enumerate(poly) if c]
    m = exponents[0]
    d = math.gcd(*(e - m for e in exponents))
    if d <= 1:
        return solve(poly), m, d
    turns = [root_of_unity(j, d) for j in range(d // fixing)]
    return [mpc(0)] * m + [mp.root(u, d) * turn for u in solve(poly[m::d]) for turn in turns], m, d


def _eliminant_roots(poly: Sequence[Fraction], group: Characters):
    """``(roots, moves)``: the roots of the square-free eliminant and the characters' moves.

    The roots come from ``_power_roots`` with ``poly = x^m R(x^d)``: they
    are closed under each character's ``chi_1 = exp(2 pi i s/k)``, so ``d``
    is a multiple of its order and it moves ``j`` on by ``s d/k``.
    ``moves(k)`` maps each image of root ``k``, itself first, to the
    values ``(zeta^s, zeta^t)`` of the characters that move ``k`` there,
    in ``group`` order, the identity as None; a zero root, or any root
    when ``d`` is 1, has those that fix x alone.
    """
    roots, m, d = _power_roots(poly, roots_of_rational_poly)
    cosets = {}
    for (s, _), chi in zip(group.exponents, [None] + group.values()[1:]):
        cosets.setdefault(s, []).append(chi)

    def moves(k: int):
        if d <= 1 or k < m:
            return {k: cosets[0]}
        j = (k - m) % d
        return {k - j + (j + s * d // group.index) % d: chis for s, chis in cosets.items()}

    return roots, moves


def _conjugate_twins(roots: Sequence[mpc]) -> dict:
    """``{k: j}``: root ``k`` lies below the real axis and ``roots[j]`` is its twin above it.

    Decided in doubles: ``w = roots[k]`` does not match its real part
    (``_excess``), ``roots[j]`` is the one root with a positive imaginary
    part that matches ``conj(w)``, and ``w`` is the one such root for
    ``roots[j]``.  A root whose double is not finite has no twin.
    """
    z = [complex(w) for w in roots]
    near = {}
    for k, w in enumerate(z):
        if w.imag < 0 and _excess(w, w.real) > 0:
            near[k] = [j for j, u in enumerate(z) if u.imag > 0 and _excess(w.conjugate(), u) <= 0]
    claims = [js[0] for js in near.values() if len(js) == 1]
    return {k: js[0] for k, js in near.items() if len(js) == 1 and claims.count(js[0]) == 1}


def _partner_mates(starts, swap, fixing: int):
    """``(paired, fixed)``: the partner starts that q -> conj(chi_2 q) swaps or fixes.

    ``swap``, a character chi (None for the identity), maps the root to
    its conjugate, and the starts are one per orbit under the ``fixing``
    characters that fix x.  On ``v = q^fixing h``, ``h^2 = chi_2^fixing``,
    the map is conjugation: ``_conjugate_twins`` pairs the starts, and a
    ``v`` matching its real part is fixed.  One power of two divides the
    partners first: ``q^fixing`` stays in range, and no relative test moves.
    """
    h = cmath.sqrt(complex(1 if swap is None else swap[1]) ** fixing)
    unit = power_of_two(-max((mp.mag(start[1]) for start in starts if start[1]), default=0))
    v = [complex(q * unit) ** fixing * h for _, q, *_ in starts]
    return _conjugate_twins(v), {i for i, z in enumerate(v) if _excess(z, z.real) <= 0}


def _partners(F1, F2, w: mpc, sigmas, fixing: int = 1):
    """Start points (``_snapped_point`` tuples) for the eliminant root p = ``w``.

    ``sigmas`` holds the exact forms of sigma0, sigma1 and sigma1's
    moduli, or is None when S1 is undefined.  The one partner
    ``-sigma0(w)/sigma1(w)`` is used unless ``sigma1(w)`` vanishes
    (``_vanishes_at``) or the point fails the ``START_TOL`` residual
    filter; ``_recover_partner`` then gives them.
    """
    aw = abs(w)
    if sigmas is not None:
        sigma0, sigma1 = values_at(sigmas[:2], w)
        if not _vanishes_at(sigma1, sigmas[2], aw):
            start = _snapped_point(F1, F2, w, -sigma0 / sigma1)
            if max(start[2:]) <= START_TOL:
                return [start]
    return _recover_partner(F1, F2, w, aw, fixing)


def _vanishes_at(value: mpc, moduli: ExactForm, aw: mpf) -> bool:
    """True when ``|value| <= 2^-(prec/2) * sum m_k |w|^k``.

    ``value`` is a polynomial at ``w``, ``aw`` is ``|w|`` at working
    precision, taken once per root, and ``moduli`` the exact form of the
    moduli ``m_k`` of the polynomial's ascending coefficients: each value
    is judged against its own scale.  The scale is computed exactly and
    rounded once to working precision.  A scale in certified doubles saved
    no time here: it settled about half the calls at 512 bits, and none
    from 2046 bits on, where 2^-(prec/2) is not a normal double.
    """
    (scale,) = values_at([moduli], aw)
    return abs(value) <= power_of_two(-(mp.prec // 2)) * scale.real


def _recover_partner(F1, F2, w: mpc, aw: mpf, fixing: int = 1):
    """Start points (``_snapped_point`` tuples) above ``w`` by root-solving in y.

    The partners are the roots of whichever system polynomial still
    depends on y at x = ``w`` once each top y-coefficient that vanishes
    there (``_vanishes_at`` on its exact row, at ``aw = |w|``) is dropped;
    those with a residual above ``START_TOL`` are dropped.  Both are
    polynomials in ``y^fixing``, ``fixing`` the number of characters that
    fix x, and ``_power_roots`` gives one partner per orbit under those.
    """
    for poly in (F1, F2):
        coeffs, moduli = poly.specialize_x(w), poly.moduli_in_y()
        while len(coeffs) > 1 and _vanishes_at(coeffs[-1], moduli[len(coeffs) - 1], aw):
            coeffs.pop()
        if len(coeffs) == 1:
            continue
        try:
            partners, _, _ = _power_roots(coeffs, aberth_roots, fixing)
        except RootFindingError:
            continue
        starts = [_snapped_point(F1, F2, w, q) for q in partners]
        return [start for start in starts if max(start[2:]) <= START_TOL]
    return []


def _merge_duplicates(points: List[CriticalPoint]) -> List[CriticalPoint]:
    """``points`` with near-duplicates merged (the copy of least residual kept, with its tag).

    A stable sort orders them by the moduli of their torus's first point in
    merged order (``same_torus``), then by ``arg p`` and ``arg q``: on one
    torus the order rests on the arguments, not on the last bit of a
    polished modulus or on the order the points were found in.
    """
    kept: List[CriticalPoint] = []
    doubles: List[Tuple[complex, complex]] = []
    for pt in points:
        d = pt.doubles
        near = [k for k, other in enumerate(doubles) if not apart(d, other)]
        k = next((k for k in near if same_point(pt, (kept[k].p, kept[k].q))), None)
        if k is None:
            kept.append(pt)
            doubles.append(d)
        elif max(pt.residual_h, pt.residual_dir) < max(kept[k].residual_h, kept[k].residual_dir):
            kept[k], doubles[k] = pt, d
    homes, tori = _tori(kept)
    torus = {id(pt): tori[k] for pt, k in zip(kept, homes)}
    kept.sort(key=lambda c: (torus[id(c)], *(float(a) for a in c.arg_pq)))
    return kept


def _tori(points: Sequence[CriticalPoint]) -> Tuple[List[int], List[Tuple[float, float]]]:
    """``(homes, tori)``: the tori of ``points`` in order of their first point.

    ``tori`` holds each torus's first point's moduli, and ``homes[k]`` the
    index of the first torus that point k is on (``same_torus``).  A point
    on no earlier torus starts one, as does every point with a modulus past
    the double range.
    """
    homes: List[int] = []
    tori: List[Tuple[float, float]] = []
    for pt in points:
        m = pt.moduli
        home = next((k for k, t in enumerate(tori) if same_torus(t, m)), None)
        if home is None:
            home = len(tori)
            tori.append(m)
        homes.append(home)
    return homes, tori


def negligible(poly: BivariatePolynomial, value, x, y) -> bool:
    """True when ``value``, poly at (x, y), is at most SMOOTH_TOL of its magnitude sum there."""
    return abs(value) <= SMOOTH_TOL * poly.eval_magnitude_scale(x, y)


def is_smooth(H: BivariatePolynomial, pt) -> bool:
    """True when H_x or H_y is not ``negligible`` at the point.

    Each partial is judged against its own magnitude sum at the point, so
    rescaling H, x or y changes no verdict.  Settled in doubles where they
    can (``_smooth_in_doubles``), else on exact values rounded once.
    """
    p, q = to_mpc(pt[0]), to_mpc(pt[1])
    verdict = _smooth_in_doubles(H, p, q)
    if verdict is not None:
        return verdict
    return not all(negligible(H.partial(v), H.partial(v).eval(p, q), p, q) for v in "xy")


def _smooth_in_doubles(H: BivariatePolynomial, p: mpc, q: mpc) -> Optional[bool]:
    """``is_smooth``'s verdict from H_x and H_y in doubles, or None where they leave it open.

    ``certified_above`` compares each partial's modulus with ``SMOOTH_TOL``
    times its magnitude sum, both from ``eval_double`` with one bound:
    smooth once one partial is certainly above, not smooth once both are
    certainly not.  None also when p, q or a coefficient has no finite
    normal double, or a partial is the zero polynomial.
    """
    pd, qd = double_point(p), double_point(q)
    if pd is None or qd is None:
        return None
    verdicts = []
    for partial in (H.partial("x"), H.partial("y")):
        got = partial.eval_double(pd, qd)
        if got is None:
            return None
        value, total, err = got
        degree = max((i + j for i, j in partial.terms), default=0)
        above = certified_above(abs(value), err, SMOOTH_TOL * total, SMOOTH_TOL * err, degree)
        if above:
            return True
        verdicts.append(above)
    return False if verdicts == [False, False] else None


# ----------------------------------------------------------------------
# Minimality probe
# ----------------------------------------------------------------------


def minimality_probe(
    H: BivariatePolynomial,
    pt: CriticalPoint,
    *,
    peers: Sequence[CriticalPoint] = (),
) -> CriticalPoint:
    """Numerically probe strict minimality of ``pt`` on the closed polydisk.

    Write H = sum_i h_i(y) x^i.  Where h_0 = H(0, .) does not vanish, the
    reciprocals of the x-roots of H(., y) are the eigenvalues of a
    companion matrix analytic in y, so the log of their spectral radius is
    subharmonic (Vesentini, "On the subharmonicity of the spectral
    radius", Boll. UMI, 1968), and the least x-root modulus over |y| <= |q|
    is reached on |y| = |q|.  A zero y0 of H(0, .) with |y0| <= |q| is
    itself the point (0, y0) of the zero set inside the polydisk.  So
    (p, q) is minimal exactly when (a) H(0, .) has no root in |y| <= |q|
    and (b) no x-root on the circle |y| = |q| lies within |p|.

    Check (a) root-solves H(0, .): a root with |y0| <= |q|(1 +
    BOUNDARY_TOL) reports ``violated`` with the witness (0, y0), the first
    such root in ``np.roots`` order, and margin -1.  Otherwise check (b)
    samples ``N = ProbeGrid().angles`` slices of the circle.  H has real
    coefficients, so H(conj x, conj y) = conj H(x, y): only slices
    0..N/2 are root-solved, and slice N - k takes the exact conjugates of
    slice k's y and roots, in the same order, and its flags.  The
    mirrored y differs from exp(2 pi i (N - k)/N) |q| by rounding alone,
    and check (b) reads the slices as before: a root strictly
    inside |p| reports ``violated``, and so does a root on the |p| circle
    that is not one of the known same-torus critical points (within 1e-7
    |p| in x and 1e-7 |q| in y).  The witness is the first such event in
    (angle, root) order, an identically zero slice counting as x = 0; an
    x^i coefficient is zero at 1e-13 of its magnitude on the circle, one
    of H(0, .) only when exact.  Slices 0..FIRST_SLICES-1 are solved
    first, in one ``_radius_roots`` call, and an event there precedes every
    later slice, mirrored ones too, so the probe stops; otherwise one more
    call solves slices FIRST_SLICES..N/2.  The verdict, witness and
    ``margin`` are written onto ``pt``, which is returned.  The margin is
    the least |x|/|p| - 1 over every slice's checked roots; a violated
    point's covers the slices up to and including its witness's (-1 when
    that slice is identically zero).
    """
    mod_p, mod_q = pt.moduli
    if mod_p == 0 or mod_q == 0:
        pt.minimality = INCONCLUSIVE
        return pt
    known = np.array([c.doubles for c in (pt, *peers)])

    # Rows: y-degree; columns: x-degree, so polyval gives x-coefficients per y.
    y_major = H.float_coeffs().T

    # Check (a): the roots of H(0, .), the one coefficient column x^0.
    roots, valid, _ = _radius_roots(y_major[:, :1].T, 0.0)
    for y0 in roots[0][valid[0]]:
        if np.hypot(y0.real, y0.imag) <= mod_q * (1 + BOUNDARY_TOL):
            pt.minimality = VIOLATED
            pt.witness = (0j, complex(y0))
            pt.margin = -1.0
            return pt

    # Check (b): the circle |y| = |q|, slices in angle order.  H is real,
    # so slice N - k is the conjugate of slice k: slices 0..N/2 are solved,
    # 0..FIRST_SLICES-1 first and the rest only when those hold no event.
    ys = mod_q * _HALF_CIRCLE
    head = ys[:FIRST_SLICES]
    magnitudes = polyval(mod_q, np.abs(y_major))  # of each x^i coefficient on the circle
    roots, valid, zero = _radius_roots(polyval(head, y_major).T, magnitudes)
    least, hit, inside = _circle_events(head, roots, valid, zero, known, pt.moduli)
    if not hit.any():
        tail = _radius_roots(polyval(ys[FIRST_SLICES:], y_major).T, magnitudes)
        roots, valid, zero = (np.concatenate(pair) for pair in zip((roots, valid, zero), tail))
        mirror = np.arange(ProbeGrid.angles - len(ys), 0, -1)
        ys, roots = (np.concatenate([v, v[mirror].conj()]) for v in (ys, roots))
        valid, zero = (np.concatenate([v, v[mirror]]) for v in (valid, zero))
        rest = [v[FIRST_SLICES:] for v in (ys, roots, valid, zero)]
        more = _circle_events(*rest, known, pt.moduli)
        least, hit, inside = (np.concatenate(pair) for pair in zip((least, hit, inside), more))
    if hit.any():
        a = int(np.argmax(hit))
        # A slice lying wholly in the zero set has the root x = 0.
        x_val = 0j if zero[a] else complex(roots[a, np.argmax(inside[a])])
        pt.minimality, pt.witness = VIOLATED, (x_val, complex(ys[a]))
        pt.margin = -1.0 if zero[a] else float(least[: a + 1].min()) / mod_p - 1.0
        return pt
    pt.margin = float(least.min()) / mod_p - 1.0
    pt.minimality = PROBABLY_STRICTLY_MINIMAL if pt.margin > MARGIN_TOL else INCONCLUSIVE
    pt.witness = None
    return pt


def _circle_events(ys, roots, valid, zero, known, moduli):
    """``(least, hit, inside)`` of the circle slices at ``ys``, solved by ``_radius_roots``.

    ``moduli`` is ``(|p|, |q|)``.  A root is checked unless it lies within
    1e-7 |p| in x and 1e-7 |q| in y of a ``known`` point, a row (p, q).
    ``least`` is each slice's least |x| over its checked roots (inf when it
    has none), and ``inside`` flags the checked roots inside the polydisk
    or on its |p| circle.  A slice is ``hit`` when it has such a root or is
    identically zero.  x / |p| - 1 does not decrease with x, so the least
    |x| gives the least |x|/|p| - 1 exactly.
    """
    # hypot rounds as abs() of a numpy scalar; np.abs on arrays may not.
    ax = np.hypot(roots.real, roots.imag)
    checked = valid.copy()
    mod_p, mod_q = moduli
    dy = ys[:, None] - known[:, 1]
    for a, k in zip(*np.nonzero(np.hypot(dy.real, dy.imag) <= 1e-7 * mod_q)):
        dx = roots[a] - known[k, 0]
        checked[a] &= ~(np.hypot(dx.real, dx.imag) <= 1e-7 * mod_p)
    least = np.where(checked, ax, math.inf).min(axis=1, initial=math.inf)
    inside = checked & (ax <= mod_p * (1 + BOUNDARY_TOL))
    return least, zero | inside.any(axis=1), inside


def _radius_roots(cmat: np.ndarray, magnitudes):
    """x-roots of each slice in ``cmat``, each slice in ``np.roots`` order.

    ``cmat`` holds one slice per row, coefficients from x^0 up: the
    probe's circle of y-values, or the one row of H(0, y) with y in the
    place of x.  Each slice is cut after its last coefficient above 1e-13
    of its magnitude on the circle, ``magnitudes[i]`` (or one scalar); a
    slice with none is identically zero.  Slices of one effective degree
    and one count of exact zero low coefficients share one stacked
    companion-matrix ``eigvals`` call, built as ``np.roots`` builds it,
    with the x = 0 roots after the others; a linear slice has the root
    -c0/c1.  Returns ``(roots, valid, zero)``: slice ``a`` has the roots
    ``roots[a][valid[a]]`` and is identically zero when ``zero[a]``.
    """
    count, m = cmat.shape
    # Effective length: one past the last coefficient that is not zero,
    # moduli by hypot as abs() gives them on a numpy scalar.
    above = np.hypot(cmat.real, cmat.imag) > 1e-13 * magnitudes
    n = m - np.argmax(above[:, ::-1], axis=1)
    zero = ~above.any(axis=1)
    n[zero] = 1
    low_zeros = np.argmax(cmat != 0, axis=1)
    roots = np.zeros((count, m - 1), dtype=complex)
    valid = np.arange(m - 1) < (n - 1)[:, None]
    groups = set(zip(n.tolist(), low_zeros.tolist()))
    for length, tz in groups:
        rows = slice(None) if len(groups) == 1 else (n == length) & (low_zeros == tz)
        d = length - 1 - tz
        if length == 2:  # never when H does not depend on x
            roots[rows, 0] = -cmat[rows, 0] / cmat[rows, 1]
        elif length > 2 and d > 0:
            high_first = cmat[rows, tz:length][:, ::-1]
            companion = np.zeros((len(high_first), d, d), dtype=complex)
            companion[:, 0, :] = -high_first[:, 1:] / high_first[:, :1]
            companion.reshape(len(high_first), -1)[:, d :: d + 1] = 1  # the subdiagonal
            roots[rows, :d] = np.linalg.eigvals(companion)
    return roots, valid, zero


def group_by_torus(
    points: Sequence[CriticalPoint],
    direction: Optional[Direction] = None,
) -> List[TorusClass]:
    """Partition points by (|p|, |q|) and mark the dominant class.

    Dominance uses the direction-weighted product order: the class
    minimizing r0*log|p| + s0*log|q| dominates (1:1 when no direction is
    given).  A class on an axis (p = 0 or q = 0) has no torus to estimate
    from: its weight is +inf, it sorts last and never dominates.
    """
    r0 = direction.r0 if direction else 1
    s0 = direction.s0 if direction else 1
    homes, tori = _tori(points)
    classes = [
        TorusClass(
            index=k,
            points=[],
            modulus_p=mp_,
            modulus_q=mq,
            weight=r0 * math.log(mp_) + s0 * math.log(mq) if mp_ > 0 and mq > 0 else math.inf,
        )
        for k, (mp_, mq) in enumerate(tori)
    ]
    for pt, home in zip(points, homes):
        classes[home].points.append(pt)
    classes.sort(key=lambda c: (c.weight, c.modulus_p, c.modulus_q))
    for i, cl in enumerate(classes):
        cl.index = i
        for pt in cl.points:
            pt.torus_class = i
    if classes and classes[0].weight < math.inf:
        classes[0].dominant = True
    return classes


def dominant_class(classes: List[TorusClass]) -> TorusClass:
    """The unique dominant torus class.

    Distinct classes of ``group_by_torus`` lie on distinct tori
    (``same_torus``), and the single-torus estimate cannot combine them, so
    a direction-weight tie with the first class, within ``MERGE_TOL``
    (rescaling shifts every weight alike), is refused with a diagnostic.
    """
    if not classes:
        raise ConfigError("no critical points to classify")
    best = classes[0]
    for other in classes[1:]:
        if abs(other.weight - best.weight) <= MERGE_TOL:
            raise ConfigError(
                "two torus classes share the dominant direction weight "
                f"({best.modulus_p:.6g},{best.modulus_q:.6g}) vs "
                f"({other.modulus_p:.6g},{other.modulus_q:.6g}); "
                "cannot combine distinct tori in one estimate"
            )
    return best

