"""Saddle-point asymptotics of [x^r y^s] G*H**(-beta).

Per critical point the estimate needs the gradient ratio and curvature of
the zero set, the second derivative of the saddle phase, a branch value
of (-H_x*p)**(-beta) on a chosen ray, and the signed count of branch-cut
crossings along H(t*p, t*q).  The general path sums contributions over
one torus class in log space.  The orbit rule: the characters chi of the
exponent lattice of H (``lattice.characters``) map a point (p, q) of the
class to (chi_1 p, chi_2 q) and leave w = -p*H_x, q^2*M and the curve
H(t*p, t*q) unchanged, so the local data and the winding number are taken
once per character orbit, at the first point of each orbit tag the solve
gave (``CriticalPoint.orbit``), and each point adds its own |p|, |q|,
arg p, arg q and G(p, q).  The sum is returned as a real value when
``snap_noise`` leaves it no imaginary part, as at a single real positive
point of a real H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from mpmath import mp, mpc, mpf

from .bivariate import BivariatePolynomial
from .critical import IDENTITY_TOL, SMOOTH_TOL, CriticalPoint, same_torus, snap_noise, snap_real
from .critical import apart, negligible
from .errors import BranchTrackingError, ConfigError, HypothesisFailure
from .gammafn import gamma_log
from .precision import to_mpc, to_mpf
from .problem import Direction

TWO_PI = 2.0 * math.pi


@dataclass
class LocalData:
    """Derivative data of H at one critical point.

    ``grad_ratio`` is H_y/H_x; ``curvature`` the second-order coefficient
    of the zero-set parametrization; ``phase_hessian`` the second
    derivative of the logarithmic phase at the saddle.  ``hx`` and ``hy``
    are H_x and H_y at the point, and ``w = -p*H_x`` the base of the branch
    value ``w**(-beta)``.  ``checks`` maps precondition names to pass/fail.
    """

    point: CriticalPoint
    grad_ratio: mpc
    curvature: mpc
    phase_hessian: mpc
    hx: mpc
    hy: mpc
    w: mpc
    checks: dict = field(default_factory=dict)

    def failed_checks(self) -> List[str]:
        return [name for name, ok in self.checks.items() if not ok]


def _wrap(angle) -> float:
    """``angle`` as a float in [0, 2*pi).

    Float ``%`` rounds a tiny negative angle up to exactly 2*pi, which
    would collapse every gap between excluded directions to zero.
    """
    a = float(angle) % TWO_PI
    return 0.0 if a >= TWO_PI else a


@dataclass(frozen=True)
class BranchRay:
    """Branch-cut ray from the origin at ``angle`` in [0, 2*pi)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", _wrap(self.angle))


@dataclass
class AsymptoticEstimate:
    """Estimate value with per-point provenance."""

    value: mpc
    log10_modulus: mpf
    argument: float
    r: int
    s: int
    formula: str
    contributions: List[dict] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


def local_data(
    H: BivariatePolynomial,
    pt: CriticalPoint,
    direction: Direction,
) -> LocalData:
    """Evaluate the local derivative data of H at a polished critical point.

    All partial derivatives are taken exactly and only then evaluated.
    Raises HypothesisFailure when H_x is ``negligible`` at the point (the
    saddle geometry needs the zero set to be a graph over y there), then
    when p or q is 0 (M divides by both); the phase Hessian M counts as zero
    by the dimensionless ``|q^2 M|``.
    """
    p, q = pt.p, pt.q
    hx = H.partial("x").eval(p, q)
    hy = H.partial("y").eval(p, q)
    abs_p, abs_q = pt.abs_pq
    if negligible(H.partial("x"), hx, abs_p, abs_q):
        raise HypothesisFailure("hx_nonzero", "non-smooth in x; estimate inapplicable")
    for name, modulus in (("p_nonzero", abs_p), ("q_nonzero", abs_q)):
        if not modulus > 0:
            raise HypothesisFailure(name, "critical point on an axis; estimate inapplicable")
    hxx = H.partial("x").partial("x").eval(p, q)
    hxy = H.partial("x").partial("y").eval(p, q)
    hyy = H.partial("y").partial("y").eval(p, q)
    lam = to_mpf(direction.ratio)

    ratio = hy / hx
    curv = (ratio * ratio * hxx - 2 * ratio * hxy + hyy) / (2 * hx)
    m = -2 * curv / p - ratio * ratio / (p * p) - 1 / (lam * q * q)
    q2m = q * q * m

    checks = {
        "phase_hessian_nonzero": abs(q2m) > SMOOTH_TOL**2,
        # A real part at rounding noise is no sign (``snap_noise``, as in the report).
        "saddle_real_part_positive": snap_noise(-q2m).real > 0,
        # Against |ratio| alone: a zero ratio would pass only at p = 0, refused above.
        "grad_ratio_identity": bool(abs(ratio - p / (lam * q)) <= to_mpf(IDENTITY_TOL) * abs(ratio)),
    }
    return LocalData(
        point=pt,
        grad_ratio=ratio,
        curvature=curv,
        phase_hessian=m,
        hx=hx,
        hy=hy,
        w=-p * hx,
        checks=checks,
    )


# ----------------------------------------------------------------------
# Branch bookkeeping
# ----------------------------------------------------------------------


def choose_branch_ray(H: BivariatePolynomial, points: Sequence[CriticalPoint]) -> BranchRay:
    """A cut ray avoiding every -p_i*H_x(p_i,q_i) and the anchor H(0,0).

    The chooser bisects the largest angular gap between excluded
    directions, breaking ties toward the negative real axis.  With n
    points that gap is at least 2*pi/(n+1), so the ray always clears
    every excluded direction.
    """
    hx_poly = H.partial("x")
    w_args = []
    for pt in points:
        w = -pt.p * hx_poly.eval(pt.p, pt.q)
        if abs(w) == 0:
            raise HypothesisFailure("hx_nonzero", "cannot place branch ray: -p*H_x = 0")
        w_args.append(mp.arg(w))
    return _ray_clear_of(H, w_args)


def _ray_clear_of(H: BivariatePolynomial, w_args) -> BranchRay:
    """``choose_branch_ray``'s ray, from the arguments of the points' ``w = -p*H_x``."""
    excluded = [_wrap(mp.arg(to_mpc(H.constant_term())))] + [_wrap(a) for a in w_args]
    angles = sorted(set(excluded))
    best_angle, best_margin = None, -1.0
    for k, a in enumerate(angles):
        b = angles[(k + 1) % len(angles)]
        gap = (b - a) % TWO_PI
        if len(angles) == 1:
            gap = TWO_PI
        mid = (a + gap / 2.0) % TWO_PI
        half = gap / 2.0
        better = half > best_margin + 1e-15
        tie = abs(half - best_margin) <= 1e-15
        if better or (tie and _dist_to_pi(mid) < _dist_to_pi(best_angle)):
            best_angle, best_margin = mid, half
    return BranchRay(best_angle)


def _dist_to_pi(angle: Optional[float]) -> float:
    if angle is None:
        return math.inf
    d = abs(angle - math.pi) % TWO_PI
    return min(d, TWO_PI - d)


def branch_argument(theta, ray: BranchRay, anchor_arg) -> mpf:
    """The argument ``theta`` of a value on the branch cut along ``ray`` anchored at ``anchor_arg``.

    The branch assigns arguments in the open 2*pi interval with endpoints
    on the ray that contains the anchor argument; values on the cut are an
    error.  ``theta`` is any argument of the value, as ``mp.arg`` gives it.
    """
    a0 = to_mpf(anchor_arg)
    ray_a = to_mpf(ray.angle)
    # Interval start: the ray representative just below the anchor.
    k = mp.floor((a0 - ray_a) / (2 * mp.pi))
    lo = ray_a + 2 * mp.pi * k
    if a0 == lo:
        raise BranchTrackingError("anchor argument lies on the branch cut")
    j = mp.floor((theta - lo) / (2 * mp.pi))
    rep = theta - 2 * mp.pi * j
    if rep == lo:
        raise BranchTrackingError("value lies on the branch cut")
    return rep


def _power_on_branch(log_abs_w, theta, b) -> mpc:
    """``w**(-b)`` from ``log|w|`` and ``w``'s argument ``theta`` on the branch."""
    return mp.exp(-b * mpc(log_abs_w, theta))


def winding_number(
    H: BivariatePolynomial,
    ld: LocalData,
    ray: BranchRay,
) -> int:
    """Signed crossings of the cut ray by the curve H(t*p, t*q), 0 <= t < 1.

    ``ld`` is ``local_data`` at (p, q).  Up to t = 1 - 1e-6 the argument is
    ``H.ray_argument``'s, from the roots of H(t*p, t*q); the remaining tail
    is linear to first order with direction -(p*H_x + q*H_y), which at a
    critical point matches -p*H_x up to a positive real factor.  H_x and
    H_y are ``ld.hx`` and ``ld.hy``.
    """
    pt = ld.point
    theta_start, theta_end = H.ray_argument(pt.p, pt.q, 1.0 - 1e-6)
    # Analytic tail: argument converges to the linearized direction.
    tail = -(pt.p * ld.hx + pt.q * ld.hy)
    if abs(tail) == 0:
        raise HypothesisFailure("hx_nonzero", "degenerate tail direction")
    step = float(mp.arg(to_mpc(tail))) - (theta_end % TWO_PI)
    step = (step + math.pi) % TWO_PI - math.pi
    theta_final = theta_end + step

    alpha = ray.angle
    return int(
        math.floor((theta_final - alpha) / TWO_PI)
        - math.floor((theta_start - alpha) / TWO_PI)
    )


# ----------------------------------------------------------------------
# Estimates
# ----------------------------------------------------------------------


def _check_beta(beta) -> mpf:
    b = to_mpf(beta)
    if b <= 0 and mp.floor(b) == b:
        raise HypothesisFailure(
            "beta_not_nonpositive_integer", "exponent is a nonpositive integer"
        )
    return b


def _checked_local_data(H, pt, direction) -> LocalData:
    """``local_data`` at ``pt``, raising HypothesisFailure on its first failed check."""
    ld = local_data(H, pt, direction)
    failed = ld.failed_checks()
    if failed:
        raise HypothesisFailure(failed[0], f"critical point fails {failed}")
    return ld


def _log10_modulus(value) -> mpf:
    return mp.ninf if value == 0 else mp.log(abs(value), 10)


def estimate_general(
    H: BivariatePolynomial,
    G: Optional[BivariatePolynomial],
    beta,
    points: Sequence[CriticalPoint],
    r: int,
    s: int,
    direction: Direction,
) -> AsymptoticEstimate:
    """Sum of saddle contributions over one torus class of critical points.

    Complex powers p**(-r), q**(-s) are carried in log space (modulus via
    logarithms, argument separately), so targets far beyond double range
    are fine.  The points of one orbit tag (``CriticalPoint.orbit``: one
    polished point, conjugated or not) are character images of each other
    and share the local data and winding number of the first of them; a
    point without a tag, such as one built by hand, is its own orbit.
    The value is real when ``snap_noise`` leaves it no imaginary part, as
    at a single real positive point of a real H.  Raises HypothesisFailure
    naming the first violated precondition.
    """
    if not points:
        raise ConfigError("no critical points supplied")
    b = _check_beta(beta)
    _require_same_torus(points)
    tags = [id(pt) if pt.orbit is None else (id(pt.orbit[0]), pt.orbit[1]) for pt in points]
    firsts = {tag: points[tags.index(tag)] for tag in dict.fromkeys(tags)}
    locals_ = {tag: _checked_local_data(H, pt, direction) for tag, pt in firsts.items()}

    # Each orbit's w = -p*H_x with log|w| and arg w, taken once: the ray,
    # the branch argument and the branch value read them.
    log_abs_ws = [mp.log(abs(ld.w)) for ld in locals_.values()]
    w_args = [mp.arg(ld.w) for ld in locals_.values()]
    ray = _ray_clear_of(H, w_args)
    anchor = mp.arg(to_mpc(H.constant_term()))

    sign_gamma, ln_abs_gamma = gamma_log(b)
    ln_r = mp.log(to_mpf(r))

    shared = {}
    for (tag, ld), log_abs_w, w_arg in zip(locals_.items(), log_abs_ws, w_args):
        theta_w = branch_argument(w_arg, ray, anchor)
        omega = winding_number(H, ld, ray)
        q2m = -2 * mp.pi * ld.point.q * ld.point.q * ld.phase_hessian
        shared[tag] = (
            (b * log_abs_w, mp.log(abs(q2m)) / 2),
            (b * (theta_w + 2 * mp.pi * omega), mp.arg(q2m) / 2),
            omega,
            _power_on_branch(log_abs_w, theta_w, b),
        )

    logmods, args, contribs = [], [], []
    for pt, tag in zip(points, tags):
        (branch_log, hessian_log), (branch_turn, hessian_turn), omega, branch_value = shared[tag]
        gval = G.eval(pt.p, pt.q) if G is not None else to_mpc(1)
        abs_p, abs_q = pt.abs_pq
        arg_p, arg_q = pt.arg_pq
        logmod = (
            (b - mpf(3) / 2) * ln_r
            - to_mpf(r) * mp.log(abs_p)
            - to_mpf(s) * mp.log(abs_q)
            - branch_log
            - ln_abs_gamma
            - hessian_log
        )
        arg = -to_mpf(r) * arg_p - to_mpf(s) * arg_q - branch_turn - hessian_turn
        if sign_gamma < 0:
            arg = arg + mp.pi
        if abs(gval) == 0:
            logmod, arg = mp.ninf, to_mpf(0)
        else:
            logmod = logmod + mp.log(abs(gval))
            arg = arg + mp.arg(gval)
        logmods.append(logmod)
        args.append(arg)
        contribs.append(
            {
                "log10_modulus": logmod / mp.log(10),
                "argument": arg,
                "winding": omega,
                "branch_value": branch_value,
                "point": (pt.p, pt.q),
            }
        )

    peak = max(lm for lm in logmods)
    acc = to_mpc(0)
    if peak != mp.ninf:
        for lm, a in zip(logmods, args):
            if lm != mp.ninf:
                acc += mp.exp(mpc(lm - peak, a))
        acc *= mp.exp(peak)
    # Conjugate contributions cancel only to the working precision.
    value = snap_real(acc)

    warnings = []
    drift = abs(r * direction.s0 - s * direction.r0)
    if drift > math.sqrt(max(r, s)):
        warnings.append(
            f"target ({r},{s}) drifts from direction {direction} "
            f"by {drift}; estimate uses the solve direction"
        )
    # Every coefficient carries the phase of H(0,0)^(-beta), so the value
    # turned back by it is real.  Judged against the largest contribution:
    # where they cancel, the value is itself rounding noise.
    if peak != mp.ninf and _conjugate_closed(points):
        residue = (value * mp.expj(b * anchor)).imag
        if abs(residue) > 1e-8 * mp.exp(peak):
            warnings.append(
                "conjugate-cancellation failed: imaginary part "
                f"{mp.nstr(residue, 5)} survives; square-root branch suspect"
            )

    return AsymptoticEstimate(
        value=value,
        log10_modulus=_log10_modulus(value),
        argument=float(mp.arg(value)) if abs(value) > 0 else 0.0,
        r=r,
        s=s,
        formula="general",
        contributions=contribs,
        warnings=warnings,
    )


def estimate_real_positive(H, G, beta, pt, r, s, direction) -> AsymptoticEstimate:
    """``estimate_general`` at the one point ``pt``.  A name only: the package exports it and
    ``bench/tracing.py`` wraps ``pipeline.estimate_real_positive``; it goes with that wrap."""
    return estimate_general(H, G, beta, [pt], r, s, direction)


def _require_same_torus(points: Sequence[CriticalPoint]) -> None:
    first = points[0].moduli
    if not all(same_torus(first, pt.moduli) for pt in points[1:]):
        raise ConfigError("critical points are not on one torus")


def _conjugate_closed(points: Sequence[CriticalPoint]) -> bool:
    """True when each point's conjugate is one of ``points`` (``conjugate_of``)."""
    doubles = [pt.doubles for pt in points]
    conjugates = [(p.conjugate(), q.conjugate()) for p, q in doubles]
    return all(
        any(not apart(d, c) and pt.conjugate_of(other) for other, c in zip(points, conjugates))
        for pt, d in zip(points, doubles)
    )

