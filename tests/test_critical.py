import itertools
import math
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from bivasym import (
    BivariatePolynomial,
    CriticalPoint,
    Direction,
    critical_system,
    group_by_torus,
    is_smooth,
    minimality_probe,
    parse_problem,
    solve_critical,
)
from bivasym import critical
from bivasym.critical import (
    PROBABLY_STRICTLY_MINIMAL,
    VIOLATED,
    _merge_duplicates,
    apart,
    same_point,
    same_torus,
    snap_noise,
)
from bivasym.errors import BivasymError, ConfigError, NonIsolatedCriticalSet
from bivasym.estimates import _conjugate_closed, _require_same_torus
from bivasym.precision import working_precision
from tests.test_acceptance import _random_polynomials


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def bp(items):
    return BivariatePolynomial.from_items(items)


def _closest(points, p, q):
    return min(points, key=lambda c: abs(complex(c.p) - p) + abs(complex(c.q) - q))


def test_system_multinomial(multinomial_h, diag_direction):
    f, g = critical_system(multinomial_h, diag_direction)
    assert f == multinomial_h
    # y*(-1) - x*(-1) = x - y
    assert g == bp([(1, 0, "1"), (0, 1, "-1")])


def test_system_rejects_constant():
    with pytest.raises(ConfigError):
        critical_system(BivariatePolynomial.constant(3), Direction(1, 1))


def test_direction_validation():
    with pytest.raises(ConfigError):
        Direction(0, 1)
    with pytest.raises(ConfigError):
        Direction.from_string("1:-2")
    assert Direction(4, 2) == Direction(2, 1)
    assert Direction.from_string("2:1").ratio == F(2)


def test_solve_multinomial(multinomial_h, diag_direction):
    pts = solve_critical(multinomial_h, diag_direction)
    assert len(pts) == 1
    pt = pts[0]
    assert abs(pt.p - mpf(1) / 2) < 1e-12
    assert abs(pt.q - mpf(1) / 2) < 1e-12
    assert pt.smooth
    assert max(pt.residual_h, pt.residual_dir) < 1e-12


def test_solve_color_swap(color_swap_h, color_swap_direction):
    pts = solve_critical(color_swap_h, color_swap_direction)
    assert len(pts) == 3
    pt = _closest(pts, 0.25, 1.0)
    assert abs(pt.p - F(1, 4)) < 1e-12
    assert abs(pt.q - 1) < 1e-12
    assert pt.smooth


def test_solve_residual_invariant(color_swap_h, color_swap_direction):
    for pt in solve_critical(color_swap_h, color_swap_direction):
        assert pt.residual_h < 1e-12
        assert pt.residual_dir < 1e-12


def test_gradient_ratio_identity(color_swap_h, color_swap_direction):
    # H_y/H_x = p/(lambda*q) at every smooth critical point.
    lam = mpf(2)
    hx = color_swap_h.partial("x")
    hy = color_swap_h.partial("y")
    for pt in solve_critical(color_swap_h, color_swap_direction):
        if not pt.smooth:
            continue
        ratio = hy.eval(pt.p, pt.q) / hx.eval(pt.p, pt.q)
        expected = pt.p / (lam * pt.q)
        assert abs(ratio - expected) <= 1e-10 * abs(ratio)


def test_elimination_swap_same_points():
    # Solving H(y, x) in direction s0:r0 eliminates x from the original
    # system instead of y; swapped back, it must find the same points.
    for name, count in (("color_swap", 3), ("branch_wrap", 8)):
        spec = parse_problem((PROBLEMS / f"{name}.json").read_text())
        d = spec.direction
        a = solve_critical(spec.H, d)
        swapped = solve_critical(spec.H.swap_variables(), Direction(d.s0, d.r0))
        b = [(c.q, c.p) for c in swapped]
        assert len(a) == len(b) == count
        for pt in a:
            p, q = min(b, key=lambda c: abs(c[0] - pt.p) + abs(c[1] - pt.q))
            assert abs(pt.p - p) < 1e-10
            assert abs(pt.q - q) < 1e-10


def test_snapped_noise_fixes_the_sort_order():
    # -a + 1e-88j and -a - 1e-88j differ only in rounding noise, yet their
    # arguments are +pi and -pi: unsnapped, the sign decides whether the
    # point sorts before or after its real peer +a.
    a = mpf("1.7671250079474493")
    q = mpc(1)

    def order(noise, snap):
        fix = snap_noise if snap else mpc
        points = [CriticalPoint(p=fix(mpc(-a, noise)), q=q), CriticalPoint(p=fix(mpc(a)), q=q)]
        return [float(pt.p.real) for pt in _merge_duplicates(points)]

    assert order(mpf("1e-88"), snap=False) != order(mpf("-1e-88"), snap=False)
    assert order(mpf("1e-88"), snap=True) == order(mpf("-1e-88"), snap=True) == [float(a), -float(a)]


def test_one_torus_sorts_by_arg_p_not_the_last_bit_of_a_modulus():
    # The two |q| differ by one ulp: sorted on the moduli themselves, the
    # point with arg p = 0 would follow the one with arg p = pi.
    up = CriticalPoint(p=mpc(0.5), q=mpc(math.nextafter(1.5, 2)))
    down = CriticalPoint(p=mpc(-0.5), q=mpc(0, 1.5))
    for points in ([up, down], [down, up]):
        assert [pt.p for pt in _merge_duplicates(points)] == [up.p, down.p]


def test_branch_wrap_points_have_exact_zero_parts():
    spec = parse_problem((PROBLEMS / "branch_wrap.json").read_text())
    pts = solve_critical(spec.H, spec.direction)
    real = [pt for pt in pts if abs(pt.p.imag) < 1e-30 * abs(pt.p)]
    assert len(real) == 2
    for pt in pts:
        for z in (pt.p, pt.q):
            for part in (z.real, z.imag):
                assert part == 0 or abs(part) > 1e-30 * abs(z)
    assert all(pt.p.imag == 0 and pt.q.imag == 0 for pt in real)


def test_scaling_invariance(color_swap_h, color_swap_direction):
    scaled = color_swap_h.scale(F(-7, 3))
    a = solve_critical(color_swap_h, color_swap_direction)
    b = solve_critical(scaled, color_swap_direction)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert abs(pa.p - pb.p) < 1e-10
        assert abs(pa.q - pb.q) < 1e-10
        assert pa.smooth == pb.smooth
    ptb = _closest(b, 0.25, 1.0)
    probe_b = minimality_probe(scaled, ptb, peers=[o for o in b if o is not ptb])
    assert probe_b.minimality == PROBABLY_STRICTLY_MINIMAL


def test_non_isolated_set_raises(multinomial_h, diag_direction):
    with pytest.raises(NonIsolatedCriticalSet):
        solve_critical(multinomial_h * multinomial_h, diag_direction)


def test_smoothness_examples(multinomial_h, color_swap_h):
    assert is_smooth(multinomial_h, (F(1, 2), F(1, 2)))
    assert is_smooth(color_swap_h, (F(1, 4), F(1)))
    squared = multinomial_h * multinomial_h
    assert not is_smooth(squared, (F(1, 2), F(1, 2)))


def test_probe_multinomial(multinomial_h, diag_direction):
    pt = solve_critical(multinomial_h, diag_direction)[0]
    assert minimality_probe(multinomial_h, pt).minimality == PROBABLY_STRICTLY_MINIMAL


def test_probe_color_swap(color_swap_h, color_swap_direction):
    pts = solve_critical(color_swap_h, color_swap_direction)
    pt = _closest(pts, 0.25, 1.0)
    peers = [o for o in pts if o is not pt and abs(abs(o.p) - abs(pt.p)) < 1e-9]
    assert minimality_probe(color_swap_h, pt, peers=peers).minimality == (
        PROBABLY_STRICTLY_MINIMAL
    )


def test_probe_violated_product_family():
    # H = (1-2x)(1-2y): the sheet x = 1/2 passes under |q| at every inner y.
    H = bp([(0, 0, "1"), (1, 0, "-2"), (0, 1, "-2"), (1, 1, "4")])
    cand = CriticalPoint(p=mpc(0.5), q=mpc(0.5))
    verdict = minimality_probe(H, cand)
    assert verdict.minimality == VIOLATED
    x_w, y_w = verdict.witness
    # Witness is on the zero set, inside the polydisk, distinct from cand.
    assert abs(complex(H.eval(x_w, y_w))) < 1e-9
    assert abs(x_w) <= 0.5 * (1 + 1e-9)
    assert abs(y_w) <= 0.5 * (1 + 1e-9)
    assert (x_w, y_w) != (0.5, 0.5)


def test_group_single_point(multinomial_h, diag_direction):
    pts = solve_critical(multinomial_h, diag_direction)
    classes = group_by_torus(pts, direction=diag_direction)
    assert len(classes) == 1
    assert classes[0].dominant
    assert pts[0].torus_class == 0


def test_group_conjugate_pair():
    a = CriticalPoint(p=mpc(0.3, 0.4), q=mpc(0.1, -0.2))
    b = CriticalPoint(p=mpc(0.3, -0.4), q=mpc(0.1, 0.2))
    classes = group_by_torus([a, b])
    assert len(classes) == 1
    assert len(classes[0].points) == 2


def test_group_distinct_moduli_nearest_dominant():
    near = CriticalPoint(p=mpc(0.5), q=mpc(0.5))
    far = CriticalPoint(p=mpc(2.0), q=mpc(0.5))
    classes = group_by_torus([near, far])
    assert len(classes) == 2
    assert classes[0].dominant
    assert abs(classes[0].modulus_p - 0.5) < 1e-15


def test_points_past_the_double_range_get_tori_of_their_own():
    # Moduli past the double range read inf, and a torus with an inf
    # modulus holds no other point: each such point starts a torus of its
    # own, in the merge's order and in the classes, whatever the order the
    # points come in, and sorts after the finite one.  same_point takes its
    # scale at working precision, so the merge keeps all three.
    big = mpf(10) ** 400
    far = CriticalPoint(p=mpc(big), q=mpc(-big / 3))
    near = CriticalPoint(p=mpc(0.5), q=mpc(0.5))
    farther = CriticalPoint(p=mpc(0, 2 * big), q=mpc(big))
    for points in itertools.permutations([far, near, farther]):
        merged = _merge_duplicates(list(points))
        assert len(merged) == 3 and merged[0] is near
        classes = group_by_torus(list(points))
        assert sorted(len(cl.points) for cl in classes) == [1, 1, 1]
        assert classes[0].points == [near] and classes[0].dominant
        assert classes[1].modulus_p == classes[2].modulus_p == math.inf


def test_class_and_estimate_share_the_torus_rule():
    # |p| differs by 5e-12: within MERGE_TOL * |p| = 1e-11, so the points
    # form one class, which the estimate must then accept.  |q| = 10 lends
    # |p| no tolerance: 2e-11 apart is another torus.
    a = CriticalPoint(p=mpc(0.1), q=mpc(10))
    b = CriticalPoint(p=mpc(0.1 + 5e-12), q=mpc(0, 10))
    (only,) = group_by_torus([a, b])
    assert only.points == [a, b]
    _require_same_torus(only.points)
    c = CriticalPoint(p=mpc(0.1 + 2e-11), q=mpc(10))
    assert len(group_by_torus([a, c])) == 2
    with pytest.raises(ConfigError, match="not on one torus"):
        _require_same_torus([a, c])


@pytest.mark.parametrize("ea, eb", [(0, 0), (1000, 1000), (-1000, -1000), (1000, -1000), (0, -1000)])
def test_matching_rules_ignore_the_units(ea, eb):
    # x -> 2^ea x, y -> 2^eb y moves p to p/2^ea and q to q/2^eb exactly,
    # and no match, torus, conjugate twin or weight tie with them: each
    # coordinate is judged against its own modulus, and every weight moves
    # by one constant.
    a, b = mpf(2) ** ea, mpf(2) ** eb

    def point(p, q):
        return CriticalPoint(p=mpc(p) / a, q=mpc(q) / b)

    base = point(mpc(1e-3, 2e-3), mpc(10, -3))
    others = [
        point(mpc(1e-3, 2e-3) * (1 + 3e-11), mpc(10, -3)),
        point(mpc(1e-3, 2e-3) * (1 + 3e-10), mpc(10, -3)),
        point(mpc(1e-3, 2e-3), mpc(10, -3) + mpc(0, 3e-9)),
        point(mpc(1e-3, 2e-3), mpc(10, -3) * (1 - 5e-11)),
    ]
    matches = [same_point(base, (o.p, o.q)) for o in others]
    assert matches == [True, False, False, True]
    assert not any(apart(base.doubles, o.doubles) for o, match in zip(others, matches) if match)
    # The doubles settle the points 3e-10 apart relative to their moduli at
    # every scale, down to p near 2e-304 at 2^-1000.
    assert [apart(base.doubles, o.doubles) for o in others] == [False, True, True, False]
    assert [same_torus(base.moduli, o.moduli) for o in others] == [True, False, True, True]
    roots = [mpc(3e6, 1e6), mpc(3e6, -1e6) * (1 + 3e-11), mpc(1e6, 3e-5), mpc(1e6, -3e-5), mpc(2e6, -1e6)]
    assert critical._conjugate_twins([w / a for w in roots]) == {1: 0}
    first = point(0.5, 2.0)
    with pytest.raises(ConfigError, match="share the dominant direction weight"):
        group_by_torus([first, point(2.0 * (1 + 3e-11), 0.5)])
    classes = group_by_torus([point(2.0 * (1 + 3e-10), 0.5), first])
    assert classes[0].dominant and classes[0].points == [first]


def test_dominant_tie_refused():
    a = CriticalPoint(p=mpc(0.5), q=mpc(2.0))
    b = CriticalPoint(p=mpc(2.0), q=mpc(0.5))
    with pytest.raises(ConfigError, match="share the dominant direction weight"):
        group_by_torus([a, b])


def test_group_refuses_the_tied_tori_of_a_symmetric_h(diag_direction):
    # H = 1 + x + y + x^2 + y^2 - 2x^3y - 2xy^3 is symmetric in x and y, so
    # at 1:1 its dominant torus and the swapped one share their weight.
    H = bp([(0, 0, "1"), (1, 0, "1"), (0, 1, "1"), (2, 0, "1"), (0, 2, "1"), (3, 1, "-2"), (1, 3, "-2")])
    points = solve_critical(H, diag_direction)
    with pytest.raises(ConfigError, match=r"\(0\.260885,1\.30431\) vs \(1\.30431,0\.260885\)"):
        group_by_torus(points, direction=diag_direction)


def _plain_merge(points):
    """``_merge_duplicates`` by ``same_point`` alone, moduli taken where used."""
    kept = []
    for pt in points:
        dup = next((o for o in kept if same_point((pt.p, pt.q), (o.p, o.q))), None)
        if dup is None:
            kept.append(pt)
        elif max(pt.residual_h, pt.residual_dir) < max(dup.residual_h, dup.residual_dir):
            dup.p, dup.q = pt.p, pt.q
            dup.residual_h, dup.residual_dir = pt.residual_h, pt.residual_dir
    tori = []
    for pt in kept:
        if not any(same_torus(t, pt.moduli) for t in tori):
            tori.append(pt.moduli)
    kept.sort(
        key=lambda c: (
            next(t for t in tori if same_torus(t, c.moduli)),
            float(mp.arg(c.p)),
            float(mp.arg(c.q)),
        )
    )
    return kept


def test_gated_merge_and_conjugates_equal_the_plain_rule(monkeypatch):
    # The merge inputs of the first 64 family polynomials at 1:1, 2:1 and
    # 1:3: merging with the double gate gives the plain rule's points in
    # its order, bit for bit, and every conjugate verdict is the same.
    inputs = []
    merge = critical._merge_duplicates

    def keep(pts):
        inputs.append([replace(p) for p in pts])
        return merge(pts)

    monkeypatch.setattr(critical, "_merge_duplicates", keep)
    family = itertools.islice(_random_polynomials(20260810), 64)
    for H in family:
        for direction in (Direction(1, 1), Direction(2, 1), Direction(1, 3)):
            try:
                solve_critical(H, direction)
            except BivasymError:
                pass
    assert sum(len(pts) for pts in inputs) > 300
    for pts in inputs:
        gated = merge([replace(p) for p in pts])
        plain = _plain_merge([replace(p) for p in pts])
        assert [(p.p._mpc_, p.q._mpc_) for p in gated] == [(p.p._mpc_, p.q._mpc_) for p in plain]
        assert _conjugate_closed(gated) == all(any(a.conjugate_of(b) for b in plain) for a in plain)
        for a in pts:
            for b in pts:
                conj = tuple(v.conjugate() for v in b.doubles)
                assert not (apart(a.doubles, conj) and a.conjugate_of(b))
                assert not (apart(a.doubles, b.doubles) and same_point((a.p, a.q), (b.p, b.q)))


@pytest.mark.parametrize(
    "items, direction, bits, unpolished",
    [
        (
            [(0, 0, "1"), (0, 1, "2/15"), (1, 3, "1/6"), (2, 0, "-1/11"), (3, 0, "-11/23"),
             (4, 0, "11/6000000")],
            "1:3",
            64,
            10,
        ),
        ([(0, 0, "1"), (0, 1, "-7/4"), (1, 2, "6/7"), (2, 2, "1e-11"), (4, 0, "9")], "3:2", 128, 9),
    ],
)
def test_newton_polish_keeps_the_points_its_start_points_miss(
    items, direction, bits, unpolished, monkeypatch
):
    # A coefficient near 10^-6 or 10^-11 leaves some start points above
    # RESIDUAL_TOL at this precision; Newton's steps bring them below it, so
    # the solve has the points of the 256-bit solve, and without the steps
    # it drops some.
    H, d = bp(items), Direction.from_string(direction)
    with working_precision(256):
        want = solve_critical(H, d)
    with working_precision(bits):
        got = solve_critical(H, d)
        monkeypatch.setattr(critical, "_newton_polish", lambda F1, F2, start: start)
        assert len(solve_critical(H, d)) == unpolished < len(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for u, v in zip(a.doubles, b.doubles):
            assert abs(u - v) <= 1e-12 * abs(v)
