"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (run pytest with -s to see them all);
tolerances are pinned here, not configurable.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from bivasym import (
    BivariatePolynomial,
    BranchRay,
    CriticalPoint,
    Direction,
    OracleConfig,
    choose_branch_ray,
    closed_form_table,
    coeff_recurrence,
    estimate_general,
    estimate_real_positive,
    local_data,
    minimality_probe,
    solve_critical,
    winding_number,
)
from bivasym.critical import PROBABLY_STRICTLY_MINIMAL, VIOLATED
from bivasym.errors import BivasymError, HypothesisFailure
from bivasym.estimates import principal_on_ray
from bivasym.oracle import quadrature_values
from tests.conftest import WINDING_POINT


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _pt(points, p, q):
    return min(points, key=lambda c: abs(complex(c.p) - p) + abs(complex(c.q) - q))


def test_criterion_1_multinomial_regression(multinomial_h, diag_direction):
    t0 = time.monotonic()
    pts = solve_critical(multinomial_h, diag_direction)
    pt = _pt(pts, 0.5, 0.5)
    ld = local_data(multinomial_h, pt, diag_direction)
    point_ok = abs(pt.p - mpf(1) / 2) < 1e-12 and abs(pt.q - mpf(1) / 2) < 1e-12
    chi_ok = (
        abs(ld.grad_ratio - 1) < 1e-12
        and abs(ld.curvature) < 1e-12
        and abs(ld.phase_hessian + 8) < 1e-12
    )
    est = estimate_real_positive(
        multinomial_h, None, F(1, 2), pt, 100, 100, diag_direction
    )
    est_ok = abs(est.value / mpf("3.61688e57") - 1) < 1e-4
    exact = coeff_recurrence(multinomial_h, None, F(1, 2), (100, 100)).value(100, 100)
    exact_ok = abs(exact / mpf("3.61011e57") - 1) < 1e-4
    elapsed = time.monotonic() - t0
    _report(
        "1 multinomial regression",
        point_ok and chi_ok and est_ok and exact_ok and elapsed < 10,
        f"point={point_ok} chi={chi_ok} est={est_ok} exact={exact_ok} {elapsed:.1f}s",
    )


def test_criterion_2_color_swap_regression(
    color_swap_h, color_swap_g, color_swap_direction
):
    t0 = time.monotonic()
    pts = solve_critical(color_swap_h, color_swap_direction)
    pt = _pt(pts, 0.25, 1.0)
    ld = local_data(color_swap_h, pt, color_swap_direction)
    point_ok = abs(pt.p - F(1, 4)) < 1e-12 and abs(pt.q - 1) < 1e-12
    data_ok = (
        abs(ld.grad_ratio - F(1, 8)) < 1e-12
        and abs(ld.curvature + F(3, 64)) < 1e-12
        and abs(ld.hx + 4) < 1e-12
        and abs(ld.phase_hessian + F(3, 8)) < 1e-12
    )
    est = estimate_real_positive(
        color_swap_h, color_swap_g, F(1, 2), pt, 70, 35, color_swap_direction
    )
    exact = coeff_recurrence(color_swap_h, color_swap_g, F(1, 2), (70, 35)).value(70, 35)
    ratio = float(est.value / exact)
    ratio_ok = abs(ratio - 1.017) <= 0.001
    elapsed = time.monotonic() - t0
    _report(
        "2 color-swap regression",
        point_ok and data_ok and ratio_ok and elapsed < 60,
        f"point={point_ok} data={data_ok} ratio={ratio:.4f} {elapsed:.1f}s",
    )


def test_criterion_3_cross_oracle(
    multinomial_h, color_swap_h, color_swap_g
):
    t0 = time.monotonic()
    # Exact equality of recurrence and closed form on the full (30,30) box.
    rec = coeff_recurrence(multinomial_h, None, F(1, 2), (30, 30))
    cf = closed_form_table(multinomial_h, F(1, 2), (30, 30))
    equal_ok = rec.series == cf.series and rec.prefactor == cf.prefactor

    # Quadrature vs recurrence at the default 512x512 grid, r,s <= 10.
    def quad_check(H, G, radii):
        cfg = OracleConfig(
            box=(10, 10),
            beta=F(1, 2),
            quadrature_radii=radii,
            quadrature_grid=(512, 512),
        )
        quad = quadrature_values(H, G, F(1, 2), cfg)
        exact = coeff_recurrence(H, G, F(1, 2), (10, 10))
        worst = 0.0
        box_scale = max(
            abs(float(exact.value(r, s))) for r in range(11) for s in range(11)
        )
        for r in range(11):
            for s in range(11):
                e = float(exact.value(r, s))
                q = complex(quad.values[r, s])
                if e != 0:
                    worst = max(worst, abs(q - e) / abs(e))
                else:
                    # Zero entries: the quadrature residue must vanish at the
                    # estimator's own resolution relative to the box scale.
                    assert abs(q) <= max(10 * quad.entry_error(r, s), 1e-8 * box_scale)
        return worst

    worst1 = quad_check(multinomial_h, None, (0.3, 0.3))
    worst2 = quad_check(color_swap_h, color_swap_g, (0.2, 0.8))
    quad_ok = worst1 < 1e-8 and worst2 < 1e-8
    elapsed = time.monotonic() - t0
    _report(
        "3 cross-oracle consistency",
        equal_ok and quad_ok and elapsed < 120,
        f"exact-equal={equal_ok} quad-worst={max(worst1, worst2):.2e} {elapsed:.1f}s",
    )


def _random_polynomials(seed: int):
    rng = random.Random(seed)
    while True:
        terms = {(0, 0): F(1)}
        for _ in range(rng.randint(2, 5)):
            i = rng.randint(0, 4)
            j = rng.randint(0, 4 - i)
            if (i, j) == (0, 0):
                continue
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            if c:
                terms[(i, j)] = c
        if len(terms) > 1:
            yield BivariatePolynomial(terms)


# H = c + a*x + b*y as (c, a, b); the critical point is real positive for
# the first two, which the real-positive entry point then accepts.
LINEAR_H = [(1, -1, -1), (2, -1, -3), (1, 1, -2), (3, -2, 1), (1, 2, 3)]


def _linear_leading_term(c, a, b, beta, r, s):
    """Leading term of [x^r y^s] (c + a*x + b*y)^(-beta).

    The exact coefficient is c^(-beta) Gamma(n+beta)/(Gamma(beta) r! s!)
    (-a/c)^r (-b/c)^s with n = r + s.  Its Stirling form is the
    Flajolet-Odlyzko n^(beta-1)/Gamma(beta) shape times the multinomial
    n^n/(r^r s^s) sqrt(n/(2 pi r s)).
    """
    c, a, b, beta = mpf(c), mpf(a), mpf(b), mpf(beta.numerator) / beta.denominator
    n = r + s
    return (
        c ** (-beta)
        * (-a / c) ** r
        * (-b / c) ** s
        * mpf(n) ** (beta - 1)
        / mp.gamma(beta)
        * mpf(n) ** n
        / (mpf(r) ** r * mpf(s) ** s)
        * mp.sqrt(n / (2 * mp.pi * r * s))
    )


def test_criterion_4_formula_identity(color_swap_h, color_swap_g, color_swap_direction):
    direction = Direction(1, 1)
    lam = mpf(1)
    gen = _random_polynomials(20260810)
    checked = 0
    attempts = 0
    identity_ok = True
    while checked < 50 and attempts < 600:
        attempts += 1
        H = next(gen)
        try:
            pts = solve_critical(H, direction)
        except BivasymError:
            continue
        smooth = [pt for pt in pts if pt.smooth]
        if not smooth:
            continue
        hx, hy = H.partial("x"), H.partial("y")
        used = False
        for pt in smooth:
            ratio = hy.eval(pt.p, pt.q) / hx.eval(pt.p, pt.q) if abs(
                hx.eval(pt.p, pt.q)
            ) > 1e-9 else None
            if ratio is None:
                continue
            used = True
            expected = pt.p / (lam * pt.q)
            if abs(ratio - expected) > 1e-10 * max(abs(ratio), mpf(1e-20)):
                identity_ok = False
        if used:
            checked += 1

    # Both entry points against closed-form leading terms: the linear family
    # (zero curvature) and color-swap's 4^r/(r pi sqrt(3)) (nonzero).
    compared = {"general": 0, "real-positive": 0}
    worst = 0.0

    def compare(est, expected):
        nonlocal worst
        compared[est.formula] += 1
        worst = max(worst, float(abs(est.value - expected) / abs(expected)))

    for c, a, b in LINEAR_H:
        H = BivariatePolynomial({(0, 0): F(c), (1, 0): F(a), (0, 1): F(b)})
        for d in (Direction(1, 1), Direction(2, 1), Direction(1, 3), Direction(3, 2)):
            (pt,) = solve_critical(H, d)
            r, s = 60 * d.r0, 60 * d.s0
            for beta in (F(1, 3), F(1, 2), F(1), F(5, 2)):
                expected = _linear_leading_term(c, a, b, beta, r, s)
                compare(estimate_general(H, None, beta, [pt], r, s, d), expected)
                try:
                    fast = estimate_real_positive(H, None, beta, pt, r, s, d)
                except HypothesisFailure:
                    continue
                compare(fast, expected)
    pt = _pt(solve_critical(color_swap_h, color_swap_direction), 0.25, 1.0)
    expected = mpf(4) ** 70 / (70 * mp.pi * mp.sqrt(3))
    args = (color_swap_h, color_swap_g, F(1, 2))
    compare(estimate_general(*args, [pt], 70, 35, color_swap_direction), expected)
    compare(estimate_real_positive(*args, pt, 70, 35, color_swap_direction), expected)
    _report(
        "4 formula identity and closed-form leading terms",
        checked == 50 and identity_ok and compared == {"general": 81, "real-positive": 33}
        and worst <= 1e-12,
        f"checked={checked} identity={identity_ok} compared={compared} worst={worst:.1e}",
    )


def test_criterion_5_convergence(multinomial_h, diag_direction):
    pts = solve_critical(multinomial_h, diag_direction)
    pt = _pt(pts, 0.5, 0.5)
    gaps = []
    for r in (25, 50, 100, 200):
        est = estimate_real_positive(
            multinomial_h, None, F(1, 2), pt, r, r, diag_direction
        )
        exact = coeff_recurrence(multinomial_h, None, F(1, 2), (r, r)).value(r, r)
        gaps.append(abs(float(est.value / exact) - 1))
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    at_100 = gaps[2] < 0.0025
    _report(
        "5 convergence toward exact",
        monotone and at_100,
        "gaps=" + ",".join(f"{g:.2e}" for g in gaps),
    )


def test_criterion_6_winding(
    multinomial_h, color_swap_h, winding_synthetic, diag_direction, color_swap_direction
):
    pt1 = _pt(solve_critical(multinomial_h, diag_direction), 0.5, 0.5)
    ray1 = choose_branch_ray(multinomial_h, [pt1])
    w1 = winding_number(multinomial_h, local_data(multinomial_h, pt1, diag_direction), ray1)

    pt2 = _pt(solve_critical(color_swap_h, color_swap_direction), 0.25, 1.0)
    ray2 = choose_branch_ray(color_swap_h, [pt2])
    w2 = winding_number(color_swap_h, local_data(color_swap_h, pt2, color_swap_direction), ray2)

    p, q = WINDING_POINT
    pts = CriticalPoint(p=mpc(p), q=mpc(q))
    rays = choose_branch_ray(winding_synthetic, [pts])
    ws = winding_number(winding_synthetic, local_data(winding_synthetic, pts, diag_direction), rays)

    # Dense-sampling oracle for the synthetic.
    t = np.linspace(0.0, 1.0 - 1e-6, 1_000_000)
    vals = np.zeros(t.size, dtype=complex)
    for (i, j), c in winding_synthetic.sorted_terms():
        vals += float(c) * (t * p) ** i * (t * q) ** j
    args = np.unwrap(np.angle(vals))
    hx = complex(winding_synthetic.partial("x").eval(pts.p, pts.q))
    hy = complex(winding_synthetic.partial("y").eval(pts.p, pts.q))
    tail = -(p * hx + q * hy)
    theta_final = args[-1] + ((np.angle(tail) - args[-1] + np.pi) % (2 * np.pi) - np.pi)
    dense = math.floor((theta_final - rays.angle) / (2 * np.pi)) - math.floor(
        (args[0] - rays.angle) / (2 * np.pi)
    )

    # Ray independence of {.}_P * exp(-2 pi i beta omega) on all inputs.
    def invariant_spread(H, point, beta, direction):
        anchor = mp.arg(H.eval(0, 0))
        ld = local_data(H, point, direction)
        products = []
        for deg in (100, 160, 220, 280):
            ray = BranchRay(math.radians(deg))
            try:
                om = winding_number(H, ld, ray)
            except BivasymError:
                continue
            branch = principal_on_ray(ld.w, beta, ray, anchor)
            products.append(branch * mp.exp(-mpc(0, 1) * mpf(beta) * 2 * mp.pi * om))
        spread = max(abs(v - products[0]) / abs(products[0]) for v in products[1:])
        return float(spread)

    spreads = [
        invariant_spread(multinomial_h, pt1, mpf(1) / 2, diag_direction),
        invariant_spread(color_swap_h, pt2, mpf(1) / 2, color_swap_direction),
        invariant_spread(winding_synthetic, pts, mpf(1) / 2, diag_direction),
    ]
    _report(
        "6 winding correctness",
        w1 == 0 and w2 == 0 and ws == 1 and dense == 1 and max(spreads) < 1e-10,
        f"w={w1},{w2},{ws} dense={dense} spread={max(spreads):.2e}",
    )


def test_criterion_7_minimality_probe(
    multinomial_h, color_swap_h, diag_direction, color_swap_direction
):
    pt1 = _pt(solve_critical(multinomial_h, diag_direction), 0.5, 0.5)
    v1 = minimality_probe(multinomial_h, pt1).minimality

    pts2 = solve_critical(color_swap_h, color_swap_direction)
    pt2 = _pt(pts2, 0.25, 1.0)
    peers = [o for o in pts2 if o is not pt2 and abs(abs(o.p) - abs(pt2.p)) < 1e-9]
    v2 = minimality_probe(color_swap_h, pt2, peers=peers).minimality

    bad = BivariatePolynomial.from_items(
        [(0, 0, "1"), (1, 0, "-2"), (0, 1, "-2"), (1, 1, "4")]
    )
    cand = CriticalPoint(p=mpc(0.5), q=mpc(0.5))
    verdict = minimality_probe(bad, cand)
    witness_ok = False
    if verdict.minimality == VIOLATED and verdict.witness is not None:
        x_w, y_w = verdict.witness
        witness_ok = (
            abs(complex(bad.eval(x_w, y_w))) < 1e-9
            and abs(x_w) <= 0.5 * (1 + 1e-9)
            and abs(y_w) <= 0.5 * (1 + 1e-9)
            and (abs(x_w - 0.5) > 1e-9 or abs(y_w - 0.5) > 1e-9)
        )
    _report(
        "7 minimality probe soundness",
        v1 == PROBABLY_STRICTLY_MINIMAL
        and v2 == PROBABLY_STRICTLY_MINIMAL
        and witness_ok,
        f"multinomial={v1} color-swap={v2} witness_ok={witness_ok}",
    )
