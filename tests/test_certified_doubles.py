"""Threshold tests settled in certified doubles, against the exact tests they stand in for.

Two tests are settled in doubles where a rigorous error bound allows
(``unipoly.double_values`` with ``unipoly.certified_above``): Aberth's
residual acceptance (``aberth._residual_fails``) and
``critical.is_smooth``.  Elsewhere each runs its exact test: values on
integers, rounded once to working precision.  ``critical._vanishes_at``
always runs its exact test.  The sweep below records every decision of
the solves of the first 64 family polynomials in three directions and of
every problem file, at 64 to 512 bits, recomputes each decision the exact
way, and asserts that the two agree wherever doubles settled it.  The
forced cases sit on a threshold, past the double range, or at a precision
whose threshold is not a normal double, and must take the exact path.
From the repository root, ``python -m tests.test_certified_doubles
--precision BITS`` runs the sweep at that precision and fails on any
verdict that is not the exact one (CI does so at 1024 and 2048 bits).
"""

import argparse
import functools
import itertools
import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from bivasym import BivariatePolynomial, Direction, aberth, critical
from bivasym.errors import BivasymError
from bivasym.precision import to_mpc, working_precision
from bivasym.problem import parse_problem
from bivasym.unipoly import (
    double_coefficients,
    double_point,
    double_values,
    exact_form,
    values_at,
)
from tests.test_acceptance import _random_polynomials

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DIRECTIONS = ("1:1", "2:1", "1:3")


def _exact_residual_fails(exact, form, doubles, zi):
    (p,) = values_at([form], zi)
    (scale,) = values_at([exact_form([abs(c) for c in exact])], abs(zi))
    return abs(p) > mpf(2) ** -aberth._RESIDUAL_BITS * scale.real


def _exact_smooth(H, pt):
    p, q = to_mpc(pt[0]), to_mpc(pt[1])
    return any(
        abs(P.eval(p, q)) > critical.SMOOTH_TOL * P.eval_magnitude_scale(p, q)
        for P in (H.partial("x"), H.partial("y"))
    )


def _exact_vanishes(value, moduli, aw):
    (scale,) = values_at([moduli], aw)
    return abs(value) <= mpf(2) ** -(mp.prec // 2) * scale.real


# (module, decider, its double half, the exact reference)
TESTS = {
    "residual": (aberth, "_residual_fails", "_residual_fails_in_doubles", _exact_residual_fails),
    "smooth": (critical, "is_smooth", "_smooth_in_doubles", _exact_smooth),
}


def _record(monkeypatch):
    """``{test: [(verdict, exact verdict, double verdict, arguments)]}``, one entry per call.

    The double verdict is None where the exact path ran.
    """
    log = {name: [] for name in TESTS}
    for name, (module, decider, half, _) in TESTS.items():
        halves = []

        def in_doubles(*args, _original=getattr(module, half), _halves=halves):
            got = _original(*args)
            _halves.append(got)
            return got

        def decide(*args, _original=getattr(module, decider), _halves=halves, _name=name):
            _halves.clear()
            got = _original(*args)
            (double,) = _halves
            log[_name].append((bool(got), bool(TESTS[_name][3](*args)), double, args))
            return got

        monkeypatch.setattr(module, half, in_doubles)
        monkeypatch.setattr(module, decider, decide)
    return log


@functools.lru_cache(maxsize=None)
def _systems():
    """``(H, direction)``: the first 64 family polynomials in three directions, each problem."""
    family = list(itertools.islice(_random_polynomials(20260810), 64))
    out = [(H, Direction.from_string(d)) for d in DIRECTIONS for H in family]
    for path in sorted(PROBLEMS.glob("*.json")):
        spec = parse_problem(path.read_text())
        out.append((spec.H, spec.direction))
    return out


def _solve_all(bits):
    with working_precision(bits):
        for H, direction in _systems():
            try:
                critical.solve_critical(BivariatePolynomial(dict(H.terms)), direction)
            except BivasymError:
                pass


def sweep(bits):
    """``{test: counts}`` of the decisions of the solves at ``bits`` of precision.

    The counts are the calls, those settled in doubles, the verdicts that
    are not the exact test's, and the settled ones whose double verdict is
    not.
    """
    with pytest.MonkeyPatch.context() as patch:
        log = _record(patch)
        _solve_all(bits)
    counts = {}
    for name, calls in log.items():
        settled = [(double, exact) for _, exact, double, _ in calls if double is not None]
        counts[name] = {
            "calls": len(calls),
            "settled": len(settled),
            "wrong": sum(got != exact for got, exact, *_ in calls),
            "wrong_in_doubles": sum(double != exact for double, exact in settled),
        }
    return counts


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_every_double_verdict_is_the_exact_one(bits):
    for name, c in sweep(bits).items():
        assert c["wrong"] == 0, name
        # Where doubles settle a decision, the exact test agrees with them.
        assert c["wrong_in_doubles"] == 0, name
        # They settle almost every decision.
        assert c["settled"] >= 0.9 * c["calls"], (name, c)


def _wallis_at_the_threshold():
    """``(coefficients, z)``: x^3 - 2x - 5 and a point where |p(z)| is 2^-24 of its scale."""
    coeffs = [F(-5), F(-2), F(0), F(1)]
    root = max(aberth.aberth_roots(coeffs), key=lambda z: z.real)
    form = exact_form(coeffs)
    moduli = exact_form([abs(c) for c in coeffs])
    loose = mpf(2) ** -aberth._RESIDUAL_BITS

    def excess(d):
        (p,) = values_at([form], root + d)
        (scale,) = values_at([moduli], abs(root + d))
        return abs(p) - loose * scale.real

    lo, hi = mpf(0), mpf(2) ** -20
    for _ in range(mp.prec):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excess(mid) <= 0 else (lo, mid)
    return coeffs, root + hi


def test_residual_at_the_threshold_takes_the_exact_path():
    # A point just past the acceptance threshold: the double bound straddles
    # it, so the exact test decides, and it rejects the point.
    coeffs, z = _wallis_at_the_threshold()
    form = exact_form(coeffs)
    doubles = double_coefficients(form)
    assert aberth._residual_fails_in_doubles(doubles, z) is None
    assert aberth._residual_fails(coeffs, form, doubles, z)
    assert _exact_residual_fails(coeffs, form, doubles, z)
    # Well inside and far outside, doubles settle it.
    root = max(aberth.aberth_roots(coeffs), key=lambda r: r.real)
    assert aberth._residual_fails_in_doubles(doubles, root) is False
    assert aberth._residual_fails_in_doubles(doubles, root + mpf(2) ** -10) is True


def test_gradient_within_the_bound_of_the_threshold_takes_the_exact_path():
    # H = x^2 - 2x + y^2 - 2y at (x, 1): H_y = 2y - 2 vanishes, and the terms
    # of H_x = 2x - 2 cancel to SMOOTH_TOL of its magnitude sum 2|x| + 2 at
    # x = 1 + d, d = 2 SMOOTH_TOL/(1 - SMOOTH_TOL).  Within 2^-60 of d the
    # double bound straddles that threshold, and the exact test decides.
    H = BivariatePolynomial({(2, 0): F(1), (1, 0): F(-2), (0, 2): F(1), (0, 1): F(-2)})
    tol = mpf(critical.SMOOTH_TOL)
    d = 2 * tol / (1 - tol)
    q = mpc(1)
    above, below = mpc(1 + d * (1 + mpf(2) ** -60)), mpc(1 + d * (1 - mpf(2) ** -60))
    assert critical._smooth_in_doubles(H, above, q) is None
    assert critical._smooth_in_doubles(H, below, q) is None
    assert critical.is_smooth(H, (above, q)) and _exact_smooth(H, (above, q))
    assert not critical.is_smooth(H, (below, q)) and not _exact_smooth(H, (below, q))
    # Well above and well below it, doubles settle it.
    assert critical._smooth_in_doubles(H, mpc(1.25), q) is True
    assert critical._smooth_in_doubles(H, mpc(1 + 1e-9), q) is False


def test_rounding_of_the_exact_test_takes_the_exact_path():
    # At 24 bits the exact test rounds the scale 2 + 3*2^-23 of 1 + |w| up to
    # 2 + 2^-21 and |value| = 2^-11 (1 + 1.75*2^-23) up to 2^-11 (1 + 2^-22):
    # it finds the value vanishing, although on the unrounded numbers it is
    # above the threshold by 2^-25 relative, and _vanishes_at gives the
    # exact test's verdict.
    moduli = exact_form([F(1), F(1)])
    with working_precision(64):
        aw = 1 + 3 * mpf(2) ** -23
        value = mpc(mpf(2) ** -11 * (1 + mpf(7) / 4 * mpf(2) ** -23))
    assert F(2) ** -11 * (1 + F(7, 4) * F(2) ** -23) > F(2) ** -12 * (2 + 3 * F(2) ** -23)
    with working_precision(24):
        assert _exact_vanishes(value, moduli, aw)
        assert critical._vanishes_at(value, moduli, aw)


def test_points_past_the_double_range_take_the_exact_path(monkeypatch):
    # beyond_double_point's far class has moduli near 6.7e399, with no
    # double, so is_smooth runs its exact test there.  x^3 - x^2 + 10^-400
    # has a coefficient with no normal double, and roots near +-10^-200, so
    # Aberth's acceptance runs its exact test on every root.
    spec = parse_problem((PROBLEMS / "beyond_double_point.json").read_text())
    log = _record(monkeypatch)
    points = critical.solve_critical(spec.H, spec.direction)
    far = [pt for pt in points if math.isinf(pt.moduli[0])]
    assert far
    for pt in far:
        assert double_point(pt.p) is None
        assert critical._smooth_in_doubles(spec.H, pt.p, pt.q) is None
        assert pt.smooth == _exact_smooth(spec.H, (pt.p, pt.q))
    roots = aberth.aberth_roots([F(1, 10**400), F(0), F(-1), F(1)])
    assert len(log["residual"]) == len(roots) == 3
    assert all(double is None for *_, double, _ in log["residual"])
    assert all(got == exact for got, exact, *_ in log["residual"] + log["smooth"])


def test_vanishing_at_2048_bits_takes_the_exact_path(monkeypatch):
    # At 2048 bits the threshold 2^-1024 is below the normal doubles: every
    # _vanishes_at verdict is the exact test's, and solves stay correct.
    calls = []

    def decide(*args, _original=critical._vanishes_at):
        calls.append((_original(*args), _exact_vanishes(*args)))
        return calls[-1][0]

    monkeypatch.setattr(critical, "_vanishes_at", decide)
    with working_precision(2048):
        for H, direction in _systems()[:8]:
            critical.solve_critical(BivariatePolynomial(dict(H.terms)), direction)
        moduli = exact_form([F(1), F(3)])
        assert not critical._vanishes_at(mpc(1), moduli, mpf(2))
        assert critical._vanishes_at(mpc(mpf(2) ** -1100), moduli, mpf(2))
    assert calls
    assert all(got == exact for got, exact in calls)


def test_double_values_bound_the_exact_error():
    # On random polynomials and points the double value and magnitude sum are
    # within the bound of the exact ones.
    import random

    rng = random.Random(7)
    with working_precision(256):
        for _ in range(200):
            n = rng.randint(0, 12)
            coeffs = [F(rng.randint(-10**6, 10**6), rng.randint(1, 999)) for _ in range(n + 1)]
            z = mpc(mpf(rng.uniform(-3, 3)) / 7, mpf(rng.uniform(-3, 3)) / 11)
            form = exact_form(coeffs)
            value, scale, err = double_values([double_coefficients(form)], double_point(z))
            (want,) = values_at([form], z)
            (want_scale,) = values_at([exact_form([abs(c) for c in coeffs])], abs(z))
            assert abs(want - mpc(value)) <= err
            assert abs(want_scale.real - scale) <= err
            assert err <= (10 * n + 11) * 2.0**-53 * scale + 1e-300


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--precision", type=int, default=128, help="significand bits")
    args = parser.parse_args(argv)
    counts = sweep(args.precision)
    print(json.dumps({"precision": args.precision, "counts": counts}))
    return 0 if all(c["wrong"] == c["wrong_in_doubles"] == 0 for c in counts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
