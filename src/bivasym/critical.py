"""Critical points of H in a direction: solve, polish, classify.

The critical system { H = 0, r0*y*H_y = s0*x*H_x } is reduced to one
variable by an exact Sylvester resultant, all roots of the eliminant are
found by simultaneous iteration, partners are recovered from the
specialized system, and every candidate is Newton-polished on the full
2x2 system with its exact Jacobian.  Minimality is probed numerically on
a polydisk grid; verdicts carry a concrete witness when violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np
from mpmath import mp, mpc, mpf
from numpy.polynomial.polynomial import polyval

from .aberth import aberth_roots, roots_of_rational_poly
from .bivariate import BivariatePolynomial
from .errors import ConfigError, NonIsolatedCriticalSet, RootFindingError
from .precision import to_mpc, to_mpf
from .resultant import resultant_eliminating
from .unipoly import degree as upoly_degree
from .unipoly import is_zero as upoly_is_zero
from .unipoly import trim as upoly_trim

PROBABLY_STRICTLY_MINIMAL = "probably_strictly_minimal"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
UNTESTED = "untested"


@dataclass(frozen=True)
class Direction:
    """Ratio direction r0:s0 (both >= 1, lowest terms); lambda = r0/s0."""

    r0: int
    s0: int

    def __post_init__(self):
        if self.r0 < 1 or self.s0 < 1:
            raise ConfigError("direction components must be >= 1")
        g = math.gcd(self.r0, self.s0)
        object.__setattr__(self, "r0", self.r0 // g)
        object.__setattr__(self, "s0", self.s0 // g)

    @classmethod
    def from_string(cls, text: str) -> "Direction":
        try:
            r0, s0 = text.split(":")
            return cls(int(r0), int(s0))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad direction {text!r}; expected 'r0:s0'") from exc

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.r0, self.s0)

    def __str__(self) -> str:
        return f"{self.r0}:{self.s0}"


# Fixed numeric thresholds, each relative to the scale it is compared with.
RESIDUAL_TOL = 1e-12  # polished system residual accepted as a solution
MERGE_TOL = 1e-10  # coordinates, moduli or weights this close count as equal
IDENTITY_TOL = 1e-10  # H_y/H_x = p/(lambda*q) check in the local data
MARGIN_TOL = 1e-6  # probe margin needed for probably_strictly_minimal
BOUNDARY_TOL = 1e-9  # an x-root this close to the |p| circle touches it
SMOOTH_TOL = 1e-6  # gradient below this times the coefficient scale is singular


@dataclass(frozen=True)
class ProbeGrid:
    """Sampling resolution of the minimality probe, which uses the defaults."""

    angles: int = 256
    radii: int = 32

    def __post_init__(self):
        if self.angles < 256 or self.radii < 32:
            raise ConfigError("probe grid below minimum resolution (256 angles, 32 radii)")


@dataclass
class CriticalPoint:
    """One polished solution of the critical system with its verdicts."""

    p: mpc
    q: mpc
    residual_h: float = 0.0
    residual_dir: float = 0.0
    smooth: bool = False
    minimality: str = UNTESTED
    witness: Optional[Tuple[complex, complex]] = None
    margin: Optional[float] = None  # least |x|/|p| - 1 the probe saw
    torus_class: Optional[int] = None

    def conjugate_of(self, other: "CriticalPoint") -> bool:
        return (
            abs(self.p - mp.conj(other.p)) <= MERGE_TOL * (1 + abs(self.p))
            and abs(self.q - mp.conj(other.q)) <= MERGE_TOL * (1 + abs(self.q))
        )


@dataclass
class TorusClass:
    """Critical points sharing (|p|, |q|) within tolerance."""

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
    x, y = BivariatePolynomial.x(), BivariatePolynomial.y()
    dir_poly = direction.r0 * (y * H.partial("y")) - direction.s0 * (x * H.partial("x"))
    if not dir_poly:
        # H is a function of x^r0 * y^s0 alone: its whole zero curve is critical.
        raise NonIsolatedCriticalSet("non-isolated critical set")
    return H, dir_poly


def eliminant(
    H: BivariatePolynomial, direction: Direction, eliminate: str = "y"
) -> List[Fraction]:
    """Resultant of the critical system with trivial monomial factors removed.

    Roots at the origin of the raw resultant never extend to solutions of
    the system when H(0,0) != 0, so the x^k factor is stripped.
    """
    f, g = critical_system(H, direction)
    res = resultant_eliminating(f, g, eliminate)
    if upoly_is_zero(res):
        raise NonIsolatedCriticalSet("non-isolated critical set")
    while len(res) > 1 and res[0] == 0:
        res.pop(0)
    return upoly_trim(res)


def _relative_residual(poly: BivariatePolynomial, p: mpc, q: mpc) -> mpf:
    scale = poly.eval_magnitude_scale(p, q)
    if scale == 0:
        return to_mpf(0)
    return abs(poly.eval(p, q)) / scale


def _newton_polish(
    F1: BivariatePolynomial,
    F2: BivariatePolynomial,
    p: mpc,
    q: mpc,
):
    """Damped Newton on the 2x2 system using the exact Jacobian (60 steps at most)."""
    J = [
        [F1.partial("x"), F1.partial("y")],
        [F2.partial("x"), F2.partial("y")],
    ]
    target = mpf(2) ** (-(mp.prec - 16))

    def resid(a: mpc, b: mpc) -> mpf:
        return max(_relative_residual(F1, a, b), _relative_residual(F2, a, b))

    cur = resid(p, q)
    for _ in range(60):
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
        improved = False
        for _ in range(30):
            np_, nq = p - step * dx, q - step * dy
            nr = resid(np_, nq)
            if nr < cur:
                p, q, cur = np_, nq, nr
                improved = True
                break
            step /= 2
        if not improved:
            break
    return p, q, cur


def solve_critical(
    H: BivariatePolynomial,
    direction: Direction,
    eliminate: str = "y",
) -> List[CriticalPoint]:
    """All isolated solutions of the critical system, polished and deduplicated.

    Raises NonIsolatedCriticalSet when the system polynomials share a
    factor, and RootFindingError (with partial results) when the
    simultaneous iteration fails to converge.
    """
    F1, F2 = critical_system(H, direction)
    res = resultant_eliminating(F1, F2, eliminate)
    other = "x" if eliminate == "y" else "y"
    # A common factor makes the eliminant in x or in y vanish identically.
    if upoly_is_zero(res) or upoly_is_zero(resultant_eliminating(F1, F2, other)):
        raise NonIsolatedCriticalSet("non-isolated critical set")
    if upoly_degree(res) < 1:
        return []
    first_roots = roots_of_rational_poly(res)

    swap = eliminate == "x"
    points: List[CriticalPoint] = []
    for w in first_roots:
        for cand in _recover_partner(F1, F2, w, swap):
            p0, q0 = cand
            if max(_relative_residual(F1, p0, q0), _relative_residual(F2, p0, q0)) > 1e-4:
                continue
            p1, q1, r = _newton_polish(F1, F2, p0, q0)
            if r > RESIDUAL_TOL:
                continue
            points.append(
                CriticalPoint(
                    p=p1,
                    q=q1,
                    residual_h=float(_relative_residual(F1, p1, q1)),
                    residual_dir=float(_relative_residual(F2, p1, q1)),
                )
            )

    merged = _merge_duplicates(points)
    for pt in merged:
        pt.smooth = is_smooth(H, (pt.p, pt.q))
    return merged


def _recover_partner(F1, F2, w: mpc, swap: bool):
    """Candidate (p, q) pairs for one eliminant root.

    ``w`` is an x-value when y was eliminated (swap=False), else a y-value.
    Partner values come from whichever system polynomial still depends on
    the remaining variable at the specialized point.
    """
    specialize = (lambda poly: poly.specialize_x(w)) if not swap else (
        lambda poly: poly.specialize_y(w)
    )
    out = []
    for poly in (F1, F2):
        coeffs = specialize(poly)
        scale = max((abs(c) for c in coeffs), default=mpf(0))
        if scale == 0 or len(coeffs) == 1:
            continue
        floor = scale * mpf(2) ** (-(mp.prec // 2))
        trimmed = list(coeffs)
        while len(trimmed) > 1 and abs(trimmed[-1]) <= floor:
            trimmed.pop()
        if len(trimmed) == 1:
            continue
        try:
            partners = aberth_roots(trimmed)
        except RootFindingError:
            continue
        for v in partners:
            out.append((v, w) if swap else (w, v))
        break
    return out


def _merge_duplicates(points: List[CriticalPoint]) -> List[CriticalPoint]:
    kept: List[CriticalPoint] = []
    for pt in points:
        scale = 1 + float(max(abs(pt.p), abs(pt.q)))
        dup = None
        for other in kept:
            if (
                abs(pt.p - other.p) <= MERGE_TOL * scale
                and abs(pt.q - other.q) <= MERGE_TOL * scale
            ):
                dup = other
                break
        if dup is None:
            kept.append(pt)
        elif max(pt.residual_h, pt.residual_dir) < max(dup.residual_h, dup.residual_dir):
            dup.p, dup.q = pt.p, pt.q
            dup.residual_h, dup.residual_dir = pt.residual_h, pt.residual_dir
    kept.sort(key=lambda c: (float(abs(c.p)), float(abs(c.q)), float(mp.arg(c.p))))
    return kept


def is_smooth(H: BivariatePolynomial, pt) -> bool:
    """True when the gradient of H does not vanish at the point.

    The gradient magnitude is compared against ``SMOOTH_TOL`` times the
    coefficient scale of H, so the verdict is invariant under rescaling H.
    """
    p, q = to_mpc(pt[0]), to_mpc(pt[1])
    gx = abs(H.partial("x").eval(p, q))
    gy = abs(H.partial("y").eval(p, q))
    scale = to_mpf(H.coefficient_scale())
    if scale == 0:
        return False
    return bool(max(gx, gy) > SMOOTH_TOL * scale)


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

    For every sampled y with |y| <= |q| the x-roots of H(. , y) are
    checked against |p|: a root strictly inside reports ``violated`` with
    a witness; a root on the |p| circle that is not one of the known
    same-torus critical points does too.  The grid is scanned one radius
    at a time, all of its angles together, and stops at the first radius
    that shows a violation.  The witness is the first event in
    (angle, root) order, an identically zero slice counting as the root
    x = 0.  The verdict, witness and ``margin`` (the least |x|/|p| - 1
    over the roots checked) are written onto ``pt``, which is returned.
    """
    mod_p = float(abs(pt.p))
    mod_q = float(abs(pt.q))
    if mod_p == 0 or mod_q == 0:
        pt.minimality = INCONCLUSIVE
        return pt
    known = [(complex(c.p), complex(c.q)) for c in (pt, *peers)]
    match_tol = 1e-7 * max(1.0, mod_p, mod_q)

    # Rows: y-degree; columns: x-degree, so polyval gives x-coefficients per y.
    y_major = H.float_coeffs().T
    zero_top = 1e-14 * max(float(H.coefficient_scale()), 1.0)

    grid = ProbeGrid()
    min_margin = math.inf
    phis = 2.0 * np.pi * np.arange(grid.angles) / grid.angles
    for k in range(1, grid.radii + 1):
        ys = k / grid.radii * mod_q * np.exp(1j * phis)
        # One slice per row, x-coefficients from degree 0 up.
        roots, valid, zero = _radius_roots(polyval(ys, y_major).T, zero_top)
        # hypot rounds as abs() of a numpy scalar; np.abs on arrays may not.
        ax = np.hypot(roots.real, roots.imag)
        checked = valid.copy()
        for kp, kq in known:
            dx, dy = roots - kp, ys - kq
            near_y = np.hypot(dy.real, dy.imag) <= match_tol
            checked &= ~((np.hypot(dx.real, dx.imag) <= match_tol) & near_y[:, None])
        if checked.any():
            min_margin = min(min_margin, float((ax[checked] / mod_p - 1.0).min()))
        # Inside the polydisk, or on the |p| circle without being a known
        # same-torus point: either way strictness fails.
        inside = checked & (ax <= mod_p * (1 + BOUNDARY_TOL))
        hit = zero | inside.any(axis=1)
        if hit.any():
            if zero.any():
                # A slice lying wholly in the zero set has the root x = 0.
                min_margin = -1.0
            a = int(np.argmax(hit))
            x_val = 0j if zero[a] else complex(roots[a, np.argmax(inside[a])])
            pt.minimality = VIOLATED
            pt.witness = (x_val, complex(ys[a]))
            pt.margin = min_margin
            return pt
    pt.minimality = PROBABLY_STRICTLY_MINIMAL if min_margin > MARGIN_TOL else INCONCLUSIVE
    pt.witness = None
    pt.margin = min_margin
    return pt


def _radius_roots(cmat: np.ndarray, zero_top: float):
    """x-roots of every slice of one radius, each slice in ``np.roots`` order.

    ``cmat`` holds one slice per row, coefficients from x^0 up.  Each slice
    is cut at its last coefficient above 1e-13 times its largest; a slice
    whose largest is at most ``zero_top`` is identically zero.  Slices of
    one effective degree and one count of exact zero low coefficients share
    one stacked companion-matrix ``eigvals`` call, built as ``np.roots``
    builds it, with the x = 0 roots after the others.  Returns ``(roots,
    valid, zero)``: slice ``a`` has the roots ``roots[a][valid[a]]`` and is
    identically zero when ``zero[a]``.
    """
    count, m = cmat.shape
    top = np.abs(cmat).max(axis=1)
    zero = top <= zero_top
    # Effective length: one past the last coefficient above the floor,
    # moduli by hypot as abs() gives them on a numpy scalar.
    above = np.hypot(cmat.real, cmat.imag) > 1e-13 * top[:, None]
    n = m - np.argmax(above[:, ::-1], axis=1)
    n[zero] = 1
    low_zeros = np.argmax(cmat != 0, axis=1)
    roots = np.zeros((count, m - 1), dtype=complex)
    valid = np.arange(m - 1) < (n - 1)[:, None]
    linear = n == 2
    if linear.any():  # never when H does not depend on x
        roots[linear, 0] = -cmat[linear, 0] / cmat[linear, 1]
    wide = n > 2
    for length, tz in set(zip(n[wide].tolist(), low_zeros[wide].tolist())):
        rows = np.flatnonzero((n == length) & (low_zeros == tz))
        d = length - 1 - tz
        if d == 0:
            continue
        high_first = cmat[rows, tz:length][:, ::-1]
        companion = np.zeros((len(rows), d, d), dtype=complex)
        companion[:, 0, :] = -high_first[:, 1:] / high_first[:, :1]
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1
        roots[rows, :d] = np.linalg.eigvals(companion)
    return roots, valid, zero


def group_by_torus(
    points: Sequence[CriticalPoint],
    direction: Optional[Direction] = None,
) -> List[TorusClass]:
    """Partition points by (|p|, |q|) and mark the dominant class.

    Dominance uses the direction-weighted product order: the class
    minimizing r0*log|p| + s0*log|q| dominates (1:1 when no direction is
    given).
    """
    r0 = direction.r0 if direction else 1
    s0 = direction.s0 if direction else 1
    classes: List[TorusClass] = []
    for pt in points:
        mp_, mq = float(abs(pt.p)), float(abs(pt.q))
        home = None
        for cl in classes:
            close = MERGE_TOL * (1 + max(cl.modulus_p, cl.modulus_q))
            if abs(mp_ - cl.modulus_p) <= close and abs(mq - cl.modulus_q) <= close:
                home = cl
                break
        if home is None:
            classes.append(
                TorusClass(
                    index=len(classes),
                    points=[pt],
                    modulus_p=mp_,
                    modulus_q=mq,
                    weight=r0 * math.log(mp_) + s0 * math.log(mq) if mp_ > 0 and mq > 0 else -math.inf,
                )
            )
        else:
            home.points.append(pt)
    classes.sort(key=lambda c: (c.weight, c.modulus_p, c.modulus_q))
    for i, cl in enumerate(classes):
        cl.index = i
        for pt in cl.points:
            pt.torus_class = i
    if classes:
        classes[0].dominant = True
    return classes


def dominant_class(classes: List[TorusClass]) -> TorusClass:
    """The unique dominant torus class.

    Distinct classes whose direction weights tie cannot be combined by the
    single-torus estimate, so that situation is refused with a diagnostic.
    """
    if not classes:
        raise ConfigError("no critical points to classify")
    best = classes[0]
    for other in classes[1:]:
        if abs(other.weight - best.weight) <= MERGE_TOL * max(1.0, abs(best.weight)):
            same_moduli = (
                abs(other.modulus_p - best.modulus_p) <= MERGE_TOL * (1 + best.modulus_p)
                and abs(other.modulus_q - best.modulus_q) <= MERGE_TOL * (1 + best.modulus_q)
            )
            if not same_moduli:
                raise ConfigError(
                    "two torus classes share the dominant direction weight "
                    f"({best.modulus_p:.6g},{best.modulus_q:.6g}) vs "
                    f"({other.modulus_p:.6g},{other.modulus_q:.6g}); "
                    "cannot combine distinct tori in one estimate"
                )
    return best


def report_critical_points(points: Sequence[CriticalPoint]) -> dict:
    """JSON-ready report of coordinates (17 digits), residuals, verdicts."""
    out = []
    for pt in points:
        entry = {
            "p": {"re": mp.nstr(pt.p.real, 17), "im": mp.nstr(pt.p.imag, 17)},
            "q": {"re": mp.nstr(pt.q.real, 17), "im": mp.nstr(pt.q.imag, 17)},
            "residual_h": f"{pt.residual_h:.3e}",
            "residual_direction": f"{pt.residual_dir:.3e}",
            "smooth": pt.smooth,
            "minimality": pt.minimality,
            "torus_class": pt.torus_class,
        }
        if pt.witness is not None:
            entry["witness"] = {
                "x": {"re": f"{pt.witness[0].real:.17g}", "im": f"{pt.witness[0].imag:.17g}"},
                "y": {"re": f"{pt.witness[1].real:.17g}", "im": f"{pt.witness[1].imag:.17g}"},
            }
        out.append(entry)
    return {"critical_points": out}
