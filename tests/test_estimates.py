import math
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from bivasym import (
    BivariatePolynomial,
    BranchRay,
    CriticalPoint,
    Direction,
    choose_branch_ray,
    coeff_recurrence,
    coefficients_at,
    estimate_general,
    local_data,
    parse_problem,
    solve_critical,
    winding_number,
    working_precision,
)
from bivasym import estimates
from bivasym.cli import report_critical_points, report_estimate
from bivasym.errors import ConfigError, HypothesisFailure
from bivasym.oracle import exact_value
from bivasym.precision import to_mpc
from bivasym.pipeline import estimate_target, run_solve
from bivasym.problem import ProblemSpec
from tests.conftest import WINDING_POINT
from tests.reference import principal_on_ray

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _point(H, direction, p, q):
    pts = solve_critical(H, direction)
    return min(pts, key=lambda c: abs(complex(c.p) - p) + abs(complex(c.q) - q))


# ----------------------------------------------------------------------
# Local data
# ----------------------------------------------------------------------


def test_local_data_multinomial(multinomial_h, diag_direction):
    pt = _point(multinomial_h, diag_direction, 0.5, 0.5)
    ld = local_data(multinomial_h, pt, diag_direction)
    assert abs(ld.grad_ratio - 1) < 1e-12
    assert abs(ld.curvature) < 1e-12
    assert abs(ld.phase_hessian + 8) < 1e-12
    assert not ld.failed_checks()


def test_local_data_color_swap(color_swap_h, color_swap_direction):
    pt = _point(color_swap_h, color_swap_direction, 0.25, 1.0)
    ld = local_data(color_swap_h, pt, color_swap_direction)
    assert abs(ld.grad_ratio - F(1, 8)) < 1e-12
    assert abs(ld.curvature + F(3, 64)) < 1e-12
    assert abs(ld.phase_hessian + F(3, 8)) < 1e-12
    assert abs(ld.hx + 4) < 1e-12
    assert not ld.failed_checks()


def test_grad_ratio_matches_direction_form(color_swap_h, color_swap_direction):
    for pt in solve_critical(color_swap_h, color_swap_direction):
        if not pt.smooth:
            continue
        ld = local_data(color_swap_h, pt, color_swap_direction)
        lam = mpf(2)
        assert abs(ld.grad_ratio - pt.p / (lam * pt.q)) <= 1e-10 * abs(ld.grad_ratio)


def test_grad_ratio_identity_has_no_absolute_floor(diag_direction):
    # H = 1 - 10^22 x - 10^-23 y has H_y/H_x = 10^-45 everywhere, and its 1:1
    # critical point is (p, q) = (5e-23, 5e22).  Off the curve at (2p, q),
    # p/(lambda q) = 2e-45 misses the ratio by half of it, which a floor of
    # 1e-30 under |ratio| would hide.
    H = BivariatePolynomial.from_items([(0, 0, "1"), (1, 0, "-1e22"), (0, 1, "-1e-23")])
    p, q = mpf("5e-23"), mpf("5e22")
    assert local_data(H, CriticalPoint(p=mpc(p), q=mpc(q)), diag_direction).checks["grad_ratio_identity"]
    off = local_data(H, CriticalPoint(p=mpc(2 * p), q=mpc(q)), diag_direction)
    assert not off.checks["grad_ratio_identity"]


def test_local_data_rejects_vanishing_hx(diag_direction):
    # H = 1 - y - x^2: at the 1:1 critical point... construct directly a
    # point with H_x = 0: H = 1 - y, any x; gradient in x vanishes.
    H = BivariatePolynomial.from_items([(0, 0, "1"), (0, 1, "-1")])
    pt = CriticalPoint(p=mpc(0.5), q=mpc(1.0))
    with pytest.raises(HypothesisFailure):
        local_data(H, pt, diag_direction)


def test_local_data_refuses_an_axis_point():
    # axis_point's H = 1 + x - 2y + y^2 has the smooth 1:1 critical point
    # (0, 1); M divides by p, so the refusal comes before the division.
    spec = parse_problem((PROBLEMS / "axis_point.json").read_text())
    pt = _point(spec.H, spec.direction, 0, 1)
    assert pt.p == 0 and abs(pt.q - 1) < mpf(10) ** -30
    with pytest.raises(HypothesisFailure) as info:
        local_data(spec.H, pt, spec.direction)
    assert info.value.name == "p_nonzero"
    with pytest.raises(HypothesisFailure) as info:
        estimate_general(spec.H, spec.G, spec.beta, [pt], 40, 40, spec.direction)
    assert info.value.name == "p_nonzero"
    # q = 0 is refused the same way: H = 1 + y - x, any direction.
    H = BivariatePolynomial.from_items([(0, 0, "1"), (0, 1, "1"), (1, 0, "-1")])
    with pytest.raises(HypothesisFailure) as info:
        local_data(H, CriticalPoint(p=mpc(1), q=mpc(0)), spec.direction)
    assert info.value.name == "q_nonzero"


# ----------------------------------------------------------------------
# Branch rays
# ----------------------------------------------------------------------


def test_ray_multinomial(multinomial_h, diag_direction):
    pt = _point(multinomial_h, diag_direction, 0.5, 0.5)
    ray = choose_branch_ray(multinomial_h, [pt])
    assert abs(ray.angle - math.pi) < 1e-12


def test_ray_color_swap(color_swap_h, color_swap_direction):
    pt = _point(color_swap_h, color_swap_direction, 0.25, 1.0)
    ray = choose_branch_ray(color_swap_h, [pt])
    assert abs(ray.angle - math.pi) < 1e-12


def test_ray_avoids_all_excluded_directions():
    # Excluded point at angle pi (from -p*Hx) plus the anchor H(0,0) > 0 at
    # angle 0; the best ray sits at +-pi/2.  Oracle: enumerate 4096 angles.
    H = BivariatePolynomial.from_items([(0, 0, "1"), (1, 0, "1")])  # 1 + x
    pt = CriticalPoint(p=mpc(1.0), q=mpc(1.0))  # -p*Hx = -1, angle pi
    ray = choose_branch_ray(H, [pt])
    excluded = [0.0, math.pi]

    def margin(angle):
        dists = []
        for e in excluded:
            d = abs(angle - e) % (2 * math.pi)
            dists.append(min(d, 2 * math.pi - d))
        return min(dists)

    grid = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    best = max(margin(a) for a in grid)
    assert margin(ray.angle) >= best - 1e-3
    assert margin(ray.angle) >= math.pi / 2 - 1e-9


def test_ray_angle_wraps_below_two_pi():
    # Float % maps a tiny negative angle to exactly 2*pi.
    assert 0 <= BranchRay(-1e-101).angle < 2 * math.pi


def test_branch_wrap_problem_matches_recurrence():
    # One -p*H_x has argument about -1.6e-116; before the wrap fix every
    # gap between excluded directions came out 0 and no ray was found.
    spec = parse_problem((PROBLEMS / "branch_wrap.json").read_text())
    outcome = run_solve(spec)
    assert outcome.has_usable_point()
    est = estimate_target(spec, outcome, 40, 40)
    exact = coeff_recurrence(spec.H, spec.G, spec.beta, (40, 40)).value(40, 40)
    assert abs(est.value / exact - 1) < 0.02


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_far_point_problem_matches_recurrence(bits):
    # H = 1 - x - y + x^2/10^40 has a second critical point at
    # (2e40/3, -2e40/9), which the solve once dropped at 64 and 128 bits.
    # It is not dominant, so the estimate is that of (1/2, 1/2).
    spec = parse_problem((PROBLEMS / "far_point.json").read_text())
    with working_precision(bits):
        outcome = run_solve(spec)
        est = estimate_target(spec, outcome, 40, 40)
    near, far = outcome.classes
    assert near.dominant and (near.modulus_p, near.modulus_q) == (0.5, 0.5)
    assert abs(far.modulus_p / (2e40 / 3) - 1) < 1e-12
    assert abs(far.modulus_q / (2e40 / 9) - 1) < 1e-12
    exact = coeff_recurrence(spec.H, spec.G, spec.beta, (40, 40)).value(40, 40)
    assert abs(est.value / exact - 1) < 0.01


@pytest.mark.parametrize(
    "name, ratio", [("scaled_multinomial", 1.0046984115), ("large_coefficients", 0.9984190465)]
)
def test_rescaled_multinomials_match_the_recurrence(name, ratio):
    # 1 - x/10^7 - y/10^7, and 1 - 10^7 x - 10^7 y with G = x, are 1 - x - y
    # in other units: the critical point moves to 5e6 or 5e-8 and [x^40 y^40]
    # to about 10^-539 or 10^574.  Both were refused while the gradient and
    # G were judged against coefficient scales, not their own magnitudes.
    spec = parse_problem((PROBLEMS / f"{name}.json").read_text())
    est = estimate_target(spec, run_solve(spec), 40, 40)
    (exact,), prefactor = coefficients_at(spec.H, spec.G, spec.beta, [(40, 40)])
    assert abs(est.value / exact_value(exact, prefactor) / ratio - 1) < 1e-10


# ----------------------------------------------------------------------
# Winding numbers
# ----------------------------------------------------------------------


def test_winding_zero_multinomial(multinomial_h, diag_direction):
    pt = _point(multinomial_h, diag_direction, 0.5, 0.5)
    ray = choose_branch_ray(multinomial_h, [pt])
    assert winding_number(multinomial_h, local_data(multinomial_h, pt, diag_direction), ray) == 0


def test_winding_zero_color_swap(color_swap_h, color_swap_direction):
    pt = _point(color_swap_h, color_swap_direction, 0.25, 1.0)
    ray = choose_branch_ray(color_swap_h, [pt])
    ld = local_data(color_swap_h, pt, color_swap_direction)
    assert winding_number(color_swap_h, ld, ray) == 0


def _dense_winding_oracle(H, p, q, alpha, samples=1_000_000):
    """Independent crossing count from brute-force sampling."""
    t = np.linspace(0.0, 1.0 - 1e-6, samples)
    vals = np.zeros(samples, dtype=complex)
    for (i, j), c in H.sorted_terms():
        vals += float(c) * (t * p) ** i * (t * q) ** j
    args = np.unwrap(np.angle(vals))
    hx = complex(H.partial("x").eval(p, q))
    hy = complex(H.partial("y").eval(p, q))
    tail = -(p * hx + q * hy)
    step = (np.angle(tail) - args[-1] + np.pi) % (2 * np.pi) - np.pi
    theta_final = args[-1] + step
    return math.floor((theta_final - alpha) / (2 * np.pi)) - math.floor(
        (args[0] - alpha) / (2 * np.pi)
    )


def test_winding_one_synthetic(winding_synthetic, diag_direction):
    p, q = WINDING_POINT
    pt = CriticalPoint(p=mpc(p), q=mpc(q))
    ray = choose_branch_ray(winding_synthetic, [pt])
    got = winding_number(winding_synthetic, local_data(winding_synthetic, pt, diag_direction), ray)
    assert got == 1
    oracle = _dense_winding_oracle(winding_synthetic, p, q, ray.angle)
    assert got == oracle


def test_winding_synthetic_across_rays(winding_synthetic, diag_direction):
    p, q = WINDING_POINT
    ld = local_data(winding_synthetic, CriticalPoint(p=mpc(p), q=mpc(q)), diag_direction)
    for deg in (100, 150, 200, 250, 300):
        ray = BranchRay(math.radians(deg))
        got = winding_number(winding_synthetic, ld, ray)
        assert got == _dense_winding_oracle(winding_synthetic, p, q, ray.angle)


def test_branch_ray_independence_invariant(winding_synthetic, diag_direction):
    # The product {(-Hx p)^(-beta)}_P * exp(-2*pi*i*beta*omega) must not
    # depend on the admissible ray.
    p, q = WINDING_POINT
    pt = CriticalPoint(p=mpc(p), q=mpc(q))
    beta = mpf(1) / 2
    anchor = mp.arg(winding_synthetic.eval(0, 0))
    ld = local_data(winding_synthetic, pt, diag_direction)
    products = []
    for deg in (100, 150, 200, 250, 300):
        ray = BranchRay(math.radians(deg))
        omega = winding_number(winding_synthetic, ld, ray)
        branch = principal_on_ray(ld.w, beta, ray, anchor)
        products.append(branch * mp.exp(-mpc(0, 1) * beta * 2 * mp.pi * omega))
    for val in products[1:]:
        assert abs(val - products[0]) <= 1e-10 * abs(products[0])


def test_winding_rejects_vanishing_curve(diag_direction):
    # H = 1 - 2x vanishes at t = 1/2 along p = 1, q = 1.
    H = BivariatePolynomial.from_items([(0, 0, "1"), (1, 0, "-2")])
    pt = CriticalPoint(p=mpc(1.0), q=mpc(1.0))
    from bivasym.errors import BranchTrackingError

    with pytest.raises(BranchTrackingError):
        winding_number(H, local_data(H, pt, diag_direction), BranchRay(math.pi))


@pytest.mark.parametrize(
    "name", ["color_swap", "multinomial_sqrt", "branch_wrap", "lattice_orbits"]
)
def test_estimate_evaluates_each_polynomial_once_per_point(name, monkeypatch):
    # local_data's H_x and H_y are handed to the winding number, so on the
    # dominant class H_x, H_y and the second partials are each evaluated
    # once at the first point of each character orbit (the solve's orbit
    # tag) and nowhere else, G once at each point, and no polynomial twice
    # at one point.
    spec = parse_problem((PROBLEMS / f"{name}.json").read_text())
    points = [pt for pt in run_solve(spec, probe=False).dominant.points if pt.smooth]
    calls = Counter()
    evaluate = BivariatePolynomial.eval

    def counted(poly, x, y):
        calls[id(poly), to_mpc(x)._mpc_, to_mpc(y)._mpc_] += 1
        return evaluate(poly, x, y)

    monkeypatch.setattr(BivariatePolynomial, "eval", counted)
    estimate_general(spec.H, spec.G, spec.beta, points, *spec.targets[0], spec.direction)
    hx, hy = spec.H.partial("x"), spec.H.partial("y")
    partials = [hx, hy, hx.partial("x"), hx.partial("y"), hy.partial("y")]
    tags = [(id(pt.orbit[0]), pt.orbit[1]) for pt in points]
    firsts = [tags.index(tag) for tag in tags]
    for k, pt in enumerate(points):
        once = 1 if firsts[k] == k else 0
        assert [calls[id(poly), pt.p._mpc_, pt.q._mpc_] for poly in partials] == [once] * 5
        if spec.G is not None:
            assert calls[id(spec.G), pt.p._mpc_, pt.q._mpc_] == 1
    assert max(calls.values()) == 1
    assert len(set(firsts)) == {"branch_wrap": 1, "lattice_orbits": 2}.get(name, len(points))


# ----------------------------------------------------------------------
# Estimates
# ----------------------------------------------------------------------


def test_multinomial_estimate_value(multinomial_h, diag_direction):
    pt = _point(multinomial_h, diag_direction, 0.5, 0.5)
    est = estimate_general(multinomial_h, None, F(1, 2), [pt], 100, 100, diag_direction)
    # 2^(2r - 1/2) / (pi r) at r = 100
    expected = mpf(2) ** mpf("199.5") / (100 * mp.pi)
    assert abs(est.value - expected) <= 1e-12 * expected
    assert abs(est.value - mpf("3.61688e57")) < mpf("0.00001e57")
    # Every factor, gamma included, follows the working precision.
    with working_precision(256):
        pt = _point(multinomial_h, diag_direction, 0.5, 0.5)
        est = estimate_general(multinomial_h, None, F(1, 2), [pt], 100, 100, diag_direction)
        expected = mpf(2) ** mpf("199.5") / (100 * mp.pi)
        assert abs(est.value - expected) <= mpf("1e-60") * expected


def _multinomial_log10(r):
    """log10 of 2^(2r - 1/2) / (pi r), the leading term of [x^r y^r](1-x-y)^(-1/2)."""
    return (2 * r - mpf(1) / 2) * mp.log10(2) - mp.log10(mp.pi * r)


def test_real_positive_path_agrees(multinomial_h, diag_direction):
    # At the real positive point (1/2, 1/2) the general sum keeps no
    # imaginary part, so its value comes back real, at argument 0.
    pt = _point(multinomial_h, diag_direction, 0.5, 0.5)
    est = estimate_general(multinomial_h, None, F(1, 2), [pt], 100, 100, diag_direction)
    expected = mpf(10) ** _multinomial_log10(100)
    assert abs(est.value - expected) <= 1e-12 * expected
    assert est.formula == "general"
    assert isinstance(est.value, mpf) and est.argument == 0.0
    (c,) = est.contributions
    assert c["argument"] == 0.0 and mpc(c["branch_value"]).imag == 0
    # A negative G turns the value and its one contribution to argument pi.
    G = BivariatePolynomial.constant(-1)
    neg = estimate_general(multinomial_h, G, F(1, 2), [pt], 100, 100, diag_direction)
    assert isinstance(neg.value, mpf) and abs(neg.value + est.value) <= 1e-30 * est.value
    assert neg.argument == math.pi and neg.contributions[0]["argument"] == mp.pi
    # The name the package still exports returns the same estimate.
    kept = estimates.estimate_real_positive(
        multinomial_h, None, F(1, 2), pt, 100, 100, diag_direction
    )
    assert kept.value == est.value and kept.formula == "general"


def test_color_swap_estimate(color_swap_h, color_swap_g, color_swap_direction):
    pt = _point(color_swap_h, color_swap_direction, 0.25, 1.0)
    est = estimate_general(
        color_swap_h, color_swap_g, F(1, 2), [pt], 70, 35, color_swap_direction
    )
    # 4^r / (r pi sqrt(3)) at r = 70, numerator correction folded in once.
    expected = mpf(4) ** 70 / (70 * mp.pi * mp.sqrt(3))
    assert abs(est.value - expected) <= 1e-12 * expected
    assert abs(est.value - mpf("3.65924e39")) < mpf("0.00001e39")


def test_central_binomial_reduction(multinomial_h, diag_direction):
    # beta = 1 collapses to [x^r y^r](1-x-y)^(-1) = C(2r, r); the estimate
    # must approach the exact binomial like the Stirling correction 1/(8r).
    pt = _point(multinomial_h, diag_direction, 0.5, 0.5)
    prev_gap = None
    for r in (50, 100, 200, 400):
        est = estimate_general(multinomial_h, None, F(1), [pt], r, r, diag_direction)
        exact = math.comb(2 * r, r)
        gap = abs(float(est.value) / exact - 1)
        assert gap < 1.0 / (7.5 * r)
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap


def test_conjugate_pair_cancellation(diag_direction):
    # 1 - 2x + 6x^2 - ... has a conjugate pair of dominant critical points;
    # for a real H the imaginary parts of the two contributions cancel.
    H = BivariatePolynomial.from_items(
        [(0, 0, "1"), (1, 0, "-1"), (0, 1, "-1"), (2, 0, "2")]
    )
    pts = solve_critical(H, diag_direction)
    pair = [pt for pt in pts if abs(pt.p.imag) > 1e-8]
    assert len(pair) == 2
    est = estimate_general(H, None, F(1, 2), pair, 60, 60, diag_direction)
    assert abs(est.value.imag) <= 1e-8 * abs(est.value)
    assert not est.warnings


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_value_with_the_phase_of_the_origin_gives_no_warning(bits):
    # negative_origin's H(0,0) = -1: every coefficient of H^(-1/2) carries
    # the phase of (-1)^(-1/2) = -i, and so does the estimate
    # (-23601.25i at (10, 10)).  Turned back by that phase it is real.
    spec = parse_problem((PROBLEMS / "negative_origin.json").read_text())
    with working_precision(bits):
        outcome = run_solve(spec)
        exacts, prefactor = coefficients_at(spec.H, spec.G, spec.beta, spec.targets)
        for (r, s), exact in zip(spec.targets, exacts):
            est = estimate_target(spec, outcome, r, s)
            assert not any("conjugate-cancellation" in w for w in est.warnings)
            ratio = est.value / exact_value(exact, prefactor)
            assert ratio.imag == 0 and abs(ratio.real - 1) < 0.02


def test_conjugate_pair_with_a_wrong_winding_warns(diag_direction, monkeypatch):
    # The conjugate pair of test_conjugate_pair_cancellation, with the
    # winding of one point off by one: its contribution turns by 2*pi*beta
    # = pi, and the imaginary parts no longer cancel.
    H = BivariatePolynomial.from_items(
        [(0, 0, "1"), (1, 0, "-1"), (0, 1, "-1"), (2, 0, "2")]
    )
    pair = [pt for pt in solve_critical(H, diag_direction) if abs(pt.p.imag) > 1e-8]
    winding = estimates.winding_number
    calls = []

    def off_by_one_once(H, ld, ray):
        calls.append(ld)
        return winding(H, ld, ray) + (len(calls) == 1)

    monkeypatch.setattr(estimates, "winding_number", off_by_one_once)
    est = estimate_general(H, None, F(1, 2), pair, 60, 60, diag_direction)
    assert len(calls) == 2
    assert any("conjugate-cancellation failed" in w for w in est.warnings)


def test_real_positive_rejections(multinomial_h, diag_direction):
    # (-1/2, 1/2) is not a critical point of 1 - x - y at 1:1: H_y/H_x = 1
    # but p/(lam*q) = -1, so the local data refuse it.
    pt = CriticalPoint(p=mpc(-0.5), q=mpc(0.5))
    with pytest.raises(HypothesisFailure) as info:
        estimate_general(multinomial_h, None, F(1, 2), [pt], 10, 10, diag_direction)
    assert info.value.name == "grad_ratio_identity"


def test_real_positive_uses_the_report_noise_rule(multinomial_h, diag_direction):
    # At 64 bits an imaginary part of 1e-14 on p = 0.5 is far above the
    # noise floor 2^-56 that the report applies: it is printed, so p is not
    # real, and the value keeps an imaginary part.  A decimal tolerance of
    # 10^(6 - dps) once let it through.
    with working_precision(64):
        pt = CriticalPoint(p=mpc(0.5, 1e-14), q=mpc(0.5))
        assert report_critical_points([pt])["critical_points"][0]["p"]["im"] == "1.0e-14"
        est = estimate_general(multinomial_h, None, F(1, 2), [pt], 100, 100, diag_direction)
        assert isinstance(est.value, mpc) and est.value.imag != 0
        assert report_estimate(est)["value"]["im"] != "0.0"
        real_pt = CriticalPoint(p=mpc(0.5), q=mpc(0.5))
        real = estimate_general(multinomial_h, None, F(1, 2), [real_pt], 100, 100, diag_direction)
        assert isinstance(real.value, mpf)


def test_nonpositive_integer_beta_rejected(multinomial_h, diag_direction):
    pt = _point(multinomial_h, diag_direction, 0.5, 0.5)
    for beta in (F(0), F(-3)):
        with pytest.raises(HypothesisFailure):
            estimate_general(multinomial_h, None, beta, [pt], 10, 10, diag_direction)


def test_direction_drift_warning(multinomial_h, diag_direction):
    pt = _point(multinomial_h, diag_direction, 0.5, 0.5)
    est = estimate_general(multinomial_h, None, F(1, 2), [pt], 100, 40, diag_direction)
    assert any("drift" in w for w in est.warnings)
    est2 = estimate_general(multinomial_h, None, F(1, 2), [pt], 100, 98, diag_direction)
    assert not any("drift" in w for w in est2.warnings)


def test_overflow_safety(multinomial_h, diag_direction):
    # |log10| of the estimate beyond 1e6: all intermediates must stay finite.
    pt = _point(multinomial_h, diag_direction, 0.5, 0.5)
    r = 1_670_000
    expected = _multinomial_log10(r)
    assert expected > 1e6
    est = estimate_general(multinomial_h, None, F(1, 2), [pt], r, r, diag_direction)
    assert isinstance(est.value, mpf) and mp.isfinite(est.value)
    assert abs(est.log10_modulus - expected) <= 1e-12


def test_mixed_torus_rejected(diag_direction):
    a = CriticalPoint(p=mpc(0.5), q=mpc(0.5))
    b = CriticalPoint(p=mpc(1.5), q=mpc(0.5))
    H = BivariatePolynomial.from_items([(0, 0, "1"), (1, 0, "-1"), (0, 1, "-1")])
    with pytest.raises(ConfigError):
        estimate_general(H, None, F(1, 2), [a, b], 10, 10, diag_direction)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_contributions_that_cancel_to_noise_give_no_warning(bits):
    # H = 1 - x^2 - y is even in x, so [x^41 y^40] H^(-1/2) = 0: the real
    # points (+-1/sqrt(3), 2/3) contribute opposite terms, the sum is
    # rounding noise, and so is its imaginary part.
    H = BivariatePolynomial({(0, 0): F(1), (2, 0): F(-1), (0, 1): F(-1)})
    with working_precision(bits):
        spec = ProblemSpec(H=H, beta=F(1, 2), direction=Direction(1, 1), targets=[(41, 40)])
        est = estimate_target(spec, run_solve(spec), 41, 40)
        largest = mpf(10) ** max(c["log10_modulus"] for c in est.contributions)
        assert len(est.contributions) == 2
        assert abs(est.value) <= mpf(2) ** (-(bits // 2)) * largest
        assert not any("conjugate-cancellation" in w for w in est.warnings)


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_saddle_real_part_at_noise_is_refused(bits):
    # H = 1 + y^2 - x*y/3 - x*y^3 at 1:3 (family item 24): -q^2*M is purely
    # imaginary at the dominant points, so its computed real part is
    # rounding noise of either sign.  snap_noise reads it as 0, and every
    # precision refuses alike.
    H = BivariatePolynomial.from_items([(0, 0, "1"), (0, 2, "1"), (1, 1, "-1/3"), (1, 3, "-1")])
    with working_precision(bits):
        spec = ProblemSpec(H=H, beta=F(1, 2), direction=Direction(1, 3), targets=[(40, 120)])
        outcome = run_solve(spec)
        with pytest.raises(HypothesisFailure) as err:
            estimate_target(spec, outcome, 40, 120)
        assert err.value.name == "saddle_real_part_positive"
