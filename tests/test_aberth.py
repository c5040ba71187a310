import functools
import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from bivasym import Direction, aberth
from bivasym.aberth import aberth_roots, roots_of_rational_poly
from bivasym.critical import eliminant, noise_floor
from bivasym.errors import BivasymError, RootFindingError
from bivasym.precision import get_precision, working_precision
from bivasym.problem import parse_problem
from bivasym.unipoly import squarefree_part
from tests.test_acceptance import _random_polynomials

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _sorted(zs):
    return sorted((complex(z) for z in zs), key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def test_integer_roots():
    # (x-1)(x-2)(x-3) = -6 + 11x - 6x^2 + x^3
    roots = roots_of_rational_poly([F(-6), F(11), F(-6), F(1)])
    got = _sorted(roots)
    for g, e in zip(got, [1, 2, 3]):
        assert abs(g - e) < 1e-30


def test_roots_of_unity():
    # x^8 - 1
    poly = [F(-1)] + [F(0)] * 7 + [F(1)]
    roots = roots_of_rational_poly(poly)
    assert len(roots) == 8
    for z in roots:
        assert abs(abs(z) - 1) < mpf(2) ** (-(get_precision() - 24))
        assert abs(z**8 - 1) < mpf(2) ** (-(get_precision() - 24))


def test_zero_roots_factored_exactly():
    # x^3 (x - 5)
    poly = [F(0), F(0), F(0), F(-5), F(1)]
    roots = roots_of_rational_poly(poly)
    zeros = [z for z in roots if z == 0]
    assert len(zeros) == 3
    assert any(abs(z - 5) < 1e-30 for z in roots)


def test_double_root_cluster():
    # (x-2)^2 (x+1): double roots converge to ~half precision, then the
    # 2D Newton polish downstream restores accuracy; here just closeness.
    poly = [F(4), F(0), F(-3), F(1)]
    roots = roots_of_rational_poly(poly)
    near_two = [z for z in roots if abs(z - 2) < 1e-10]
    assert len(near_two) == 2


def test_against_numpy_on_random_polys():
    rng = random.Random(1729)
    for _ in range(20):
        deg = rng.randint(3, 9)
        coeffs = [F(rng.randint(-9, 9)) for _ in range(deg)] + [F(rng.randint(1, 9))]
        mine = _sorted(aberth_roots(coeffs))
        theirs = _sorted(np.roots([float(c) for c in reversed(coeffs)]))
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            assert abs(a - b) < 1e-6 * (1 + abs(b))


def test_residuals_small():
    from bivasym.precision import to_mpc

    poly = [F(3, 7), F(-2), F(5), F(0), F(1), F(2)]
    roots = aberth_roots(poly)
    for z in roots:
        val = sum(to_mpc(c) * z**k for k, c in enumerate(poly))
        scale = sum(abs(to_mpc(c)) * abs(z) ** k for k, c in enumerate(poly))
        assert abs(val) <= mpf(2) ** (-24) * scale


def test_deterministic():
    poly = [F(1), F(4), F(-3), F(2), F(7)]
    a = aberth_roots(poly)
    b = aberth_roots(poly)
    assert all(x == y for x, y in zip(a, b))


@functools.lru_cache(maxsize=None)
def _family_eliminants():
    """Square-free eliminants of the 32 criterion-4 random polynomials at 1:1."""
    family = itertools.islice(_random_polynomials(20260810), 32)
    return [squarefree_part(eliminant(H, Direction(1, 1))) for H in family]


def _count_start_points(monkeypatch):
    """A list that gains one entry per call of ``_start_points``: per fallback of the complex128 stage."""
    calls = []
    start_points = aberth._start_points
    monkeypatch.setattr(aberth, "_start_points", lambda c: calls.append(1) or start_points(c))
    return calls


def test_float_stage_matches_the_start_point_fallback_on_the_family(monkeypatch):
    eliminants = _family_eliminants()
    calls = _count_start_points(monkeypatch)
    # The float stage must carry every eliminant without falling back.
    float_first = [roots_of_rational_poly(e) for e in eliminants]
    assert calls == []
    # Each time the complex128 stage declines, the loop starts from _start_points.
    declined = []
    monkeypatch.setattr(aberth, "_float_stage", lambda *a: declined.append(1))
    fallback = [roots_of_rational_poly(e) for e in eliminants]
    assert declined and calls == declined
    for got, ref in zip(float_first, fallback):
        assert len(got) == len(ref)
        nearest = [min(range(len(ref)), key=lambda k: abs(z - ref[k])) for z in got]
        assert sorted(nearest) == list(range(len(ref)))
        for z, k in zip(got, nearest):
            assert abs(z - ref[k]) <= mpf(10) ** -30 * (1 + abs(ref[k]))


def test_overflowing_coefficients_fall_back_to_the_start_points(monkeypatch):
    # (x-1)(x-2)(x-3) * 10^400: no coefficient fits in a complex128, so the
    # finishing loop starts from _start_points at working precision.
    poly = [F(c * 10**400) for c in (-6, 11, -6, 1)]
    calls = _count_start_points(monkeypatch)
    got = _sorted(roots_of_rational_poly(poly))
    assert calls == [1]
    assert len(got) == 3
    for g, e in zip(got, [1, 2, 3]):
        assert abs(g - e) < 1e-30


def _from_roots(roots):
    """Ascending coefficients of the monic polynomial with these (rational) roots."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return [F(c) for c in coeffs]


def test_wilkinson_16_falls_back_and_solves(monkeypatch):
    # The complex128 stage cannot bring these roots within 2^-40, so it
    # declines, and the finishing loop alone converges from Bini's points
    # at working precision.
    calls = _count_start_points(monkeypatch)
    got = _sorted(roots_of_rational_poly(_from_roots(range(1, 17))))
    assert calls == [1]
    for g, e in zip(got, range(1, 17)):
        assert abs(g - e) < 1e-30


def test_root_finding_error_carries_partial(monkeypatch):
    # One sweep per stage leaves Wilkinson-8 far from its roots.
    monkeypatch.setattr(aberth, "_MAX_ITER", 1)
    poly = [F(0)] + _from_roots(range(1, 9))
    with pytest.raises(RootFindingError) as info:
        aberth_roots(poly)
    assert len(info.value.partial) == 9
    assert info.value.partial[0] == 0


@pytest.mark.parametrize("exponent, falls_back", [(20, False), (100, False), (400, True), (1000, True)])
def test_roots_spanning_many_decades(exponent, falls_back, monkeypatch):
    # x^3 - x^2 + 10^-e has a root near 1 and two near +-10^(-e/2).  From
    # one circle of radius about 2 the small pair approached 0 only
    # linearly and 10^-100 raised RootFindingError; the Newton polygon
    # starts them on their own circle.  Below 2^-1000 the constant has no
    # complex128 value, so the finishing loop starts from _start_points.
    calls = _count_start_points(monkeypatch)
    negative, positive, big = sorted(
        aberth_roots([F(1, 10**exponent), F(0), F(-1), F(1)]), key=lambda z: (abs(z) > 0.5, z.real)
    )
    assert calls == ([1] if falls_back else [])
    modulus = mpf(10) ** (-exponent // 2)
    for z in (negative, positive):
        assert abs(abs(z) / modulus - 1) < 1e-9
    assert negative.real < 0 < positive.real
    assert abs(big - 1) < 1e-15


def test_float_start_points_match_the_mp_start_points():
    # The same hull, circles and angles in doubles.  A radius past the
    # double range gives None, one below _FLOAT_TINY a float stage that
    # declines, and the finishing loop starts from _start_points.
    cases = ([mpf(10) ** -100, 0, -1, 1], [1, 2, 3, 4, 5, 6], [7, 0, 0, 1])
    for coeffs in ([mpc(c) for c in case] for case in cases):
        got = aberth._float_start_points(np.array([complex(c) for c in coeffs]))
        want = aberth._start_points(coeffs)
        assert len(got) == len(want)
        for z, w in zip(got, want):
            assert abs(z - complex(w)) <= 1e-14 * abs(w)
    assert aberth._float_start_points(np.array([1e300, 1e-300])) is None
    assert aberth._float_stage([mpc(1e-300), mpc(1e300)]) is None


def test_start_points_lie_on_the_newton_polygon_circles():
    # Hull vertices (0, log 10^-100), (2, 0), (3, 0): radii 10^-50 twice, then 1.
    start = aberth._start_points([mpf(10) ** -100, mpf(0), mpf(-1), mpf(1)])
    radii = [abs(z) for z in start]
    for r in radii[:2]:
        assert abs(r / mpf(10) ** -50 - 1) < 1e-30
    assert abs(radii[2] - 1) < 1e-30


@pytest.mark.parametrize("exponent", [100, 400])
def test_tiny_roots_reach_working_precision(exponent):
    # Stage 2 stops on a step relative to |z|.  On an absolute step it left
    # the pair near +-10^(-e/2) with relative errors of 7.5e-20 (e = 100)
    # and 2.3e-31 (e = 400) at 128 bits.
    coeffs = [F(1, 10**exponent), F(0), F(-1), F(1)]
    with mp.workprec(128):
        roots = aberth_roots(coeffs)
    with mp.workprec(400):
        c = [mpf(v.numerator) / v.denominator for v in coeffs]
        tiny = [z for z in roots if abs(z) < 0.5]
        assert len(tiny) == 2
        for z in tiny:
            ref = mp.mpc(z)
            for _ in range(20):
                p = ((c[3] * ref + c[2]) * ref + c[1]) * ref + c[0]
                ref -= p / ((3 * c[3] * ref + 2 * c[2]) * ref + c[1])
            assert abs(z - ref) <= mpf(2) ** -100 * abs(ref)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_small_exact_leading_coefficient_keeps_its_far_root(bits):
    # 10^-40 x^2 + x - 1 has roots near -10^40 and 1.  Its leading
    # coefficient is below 2^-(prec-8) of the largest at 64 and 128 bits,
    # but it is exact, and only an exact zero may be dropped.
    with working_precision(bits):
        far, near = sorted(aberth_roots([F(-1), F(1), F(1, 10**40)]), key=abs, reverse=True)
    assert abs(far / -(mpf(10) ** 40) - 1) < 1e-15
    assert abs(near - 1) < 1e-15


@functools.lru_cache(maxsize=None)
def _problem_eliminants():
    """Square-free eliminants of every problem file that has one."""
    out = {}
    for path in sorted(PROBLEMS.glob("*.json")):
        spec = parse_problem(path.read_text())
        out[path.stem] = squarefree_part(eliminant(spec.H, spec.direction))
    return out


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_float_pair_sums_match_working_precision_sums(bits, monkeypatch):
    # Stage 2 takes a pair sum in doubles unless the root is clustered; with
    # _CLUSTER = inf every root counts as clustered, so every sum is taken
    # at working precision.  The sum only rescales the Newton step, so the
    # roots agree, in order, to working-precision noise.
    polys = _family_eliminants() + list(_problem_eliminants().values())
    with working_precision(bits):
        got = [roots_of_rational_poly(e) for e in polys]
        monkeypatch.setattr(aberth, "_CLUSTER", math.inf)
        ref = [roots_of_rational_poly(e) for e in polys]
        tol = mpf(2) ** -(bits - 16)
        for roots, want in zip(got, ref):
            assert len(roots) == len(want)
            for z, w in zip(roots, want):
                assert abs(z - w) <= tol * abs(w)


@pytest.mark.parametrize("exponent", [30, 15, 12])
def test_clustered_roots_take_working_precision_sums(exponent):
    # (x - 1)(x - 1 - d)(x + 2) with d = 10^-e: the pair near 1 is within
    # _CLUSTER in doubles, where 1/(z_i - z_j) has lost its bits.  Rounding
    # the coefficients moves such a pair by about 2^-prec / d, so that is
    # the accuracy asked of it.  Pair sums taken in doubles left it 2^-35
    # from the roots at d = 10^-12 (2^-90 here).
    d = F(1, 10**exponent)
    coeffs = _from_roots([1, 1 + d, -2])
    with working_precision(128):
        near = [z for z in aberth_roots(coeffs) if abs(z - 1) < 0.5]
    assert len(near) == 2
    with working_precision(400):
        c = [mpf(v.numerator) / v.denominator for v in coeffs]
        d = mpf(10) ** -exponent
        refs = []
        for z in near:
            ref = mp.mpc(z)
            for _ in range(400):
                p = ((c[3] * ref + c[2]) * ref + c[1]) * ref + c[0]
                ref -= p / ((3 * c[3] * ref + 2 * c[2]) * ref + c[1])
            refs.append(ref)
            assert abs(z - ref) <= mpf(2) ** -(128 - 16) / d
        # The two iterates found both roots of the pair.
        assert abs(refs[0] - refs[1]) > d / 2


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("cubic", [False, True])
def test_far_point_keeps_its_far_root(bits, cubic):
    # far_point's eliminant 1 - 2x + 3*10^-40 x^2 has a root near 6.7e39,
    # the widest range the double pair sums see; times (1 + x) it is a
    # cubic that the Aberth iteration solves.
    e = _problem_eliminants()["far_point"]
    if cubic:
        e = [a + b for a, b in zip(e + [F(0)], [F(0)] + e)]
    with working_precision(bits):
        roots = roots_of_rational_poly(e)
        far = max(roots, key=abs)
        assert abs(far / (mpf(2) / 3 * mpf(10) ** 40) - 1) < 1e-15
        assert abs(far.imag) <= mpf(2) ** -(bits - 16) * abs(far)


def _finishing_sweeps(monkeypatch, coeffs, bits):
    """``(sweeps, roots)``: the iterates of each finishing sweep at ``bits``, and the roots.

    Every sweep evaluates p and p' once per root through ``values_at``; the
    residual acceptance is left out by its single form.  ``coeffs`` has no
    root at 0.
    """
    points = []
    values_at = aberth.values_at

    def record(forms, z):
        if len(forms) == 2:
            points.append(z)
        return values_at(forms, z)

    monkeypatch.setattr(aberth, "values_at", record)
    with working_precision(bits):
        roots = aberth_roots(coeffs)
    n = len(roots)
    assert points and len(points) % n == 0
    return [points[k : k + n] for k in range(0, len(points), n)], roots


def _last_steps(sweeps, roots):
    """Each root's step in the last sweep, relative to the root."""
    return [abs(r - z) / abs(r) for z, r in zip(sweeps[-1], roots)]


def test_separated_family_roots_finish_in_one_sweep(monkeypatch):
    # The 14th family polynomial's eliminant at 1:1: 14 simple roots, none
    # clustered.  The complex128 stage leaves every root 2^-50 to 2^-55 from
    # its value, so the error bound of the first finishing sweep is already
    # below 2^-(128 + 8): 14 evaluations of p and p'.  The tol rule alone
    # would run a second sweep whose steps are below one ulp.
    e = _family_eliminants()[13]
    assert len(e) == 15
    sweeps, roots = _finishing_sweeps(monkeypatch, e, 128)
    assert len(sweeps) == 1
    tol = mpf(2) ** -(128 - 12)
    assert max(_last_steps(sweeps, roots)) > tol
    monkeypatch.setattr(aberth, "_aberth_iterate", _reference_iterate)
    reference, _ = _finishing_sweeps(monkeypatch, e, 128)
    assert len(reference) == 2


@pytest.mark.parametrize("bits, sweeps", [(256, 2), (512, 3), (1024, 4), (2048, 5)])
def test_double_pair_sums_converge_quadratically(bits, sweeps, monkeypatch):
    # The same eliminant: the double pair sum carries about 2^-53 of its
    # value, so a step of 2^-k leaves an error near 2^-(2k + 53), not
    # 2^-3k.  The steps fall as about 2^-50, 2^-149, 2^-347, 2^-743, and
    # each precision takes the first sweep whose bound is below 2^-prec.
    e = _family_eliminants()[13]
    found, _ = _finishing_sweeps(monkeypatch, e, bits)
    assert len(found) == sweeps


@pytest.mark.parametrize("exponent", [30, 15])
def test_clustered_roots_stop_by_tol(exponent, monkeypatch):
    # The pair near 1 takes working-precision pair sums, so only the tol
    # rule may end its iteration: the last sweep's steps are all within tol.
    coeffs = _from_roots([1, 1 + F(1, 10**exponent), -2])
    sweeps, roots = _finishing_sweeps(monkeypatch, coeffs, 128)
    assert len(sweeps) >= 2
    assert max(_last_steps(sweeps, roots)) <= mpf(2) ** -(128 - 12)


def test_fallback_roots_match_the_tol_rule(monkeypatch):
    # Wallis's cubic x^3 - 2x - 5 times 10^400, Wilkinson-16 and x^3 - x^2 +
    # 10^-e: the complex128 stage declines on each, so the finishing loop
    # starts from _start_points, and its last-sweep exit ends the fallback
    # too.  It leaves every root within noise_floor() of the tol rule's.
    polys = [
        [F(c * 10**400) for c in (-5, -2, 0, 1)],
        _from_roots(range(1, 17)),
        [F(1, 10**400), F(0), F(-1), F(1)],
        [F(1, 10**1000), F(0), F(-1), F(1)],
    ]
    for bits in (64, 128, 256, 1024):
        with monkeypatch.context() as m:
            calls = _count_start_points(m)
            _parity_with_the_tol_rule(polys, bits, m)
        assert len(calls) == 2 * len(polys)


def _reference_iterate(forms, z, tol):
    """The finishing loop with the tol rule alone and the step w/(1 - w*s), w = p/p'.

    Its pair sums are the library's: in doubles unless ``_float_pair_sum``
    declines.
    """
    zd = [complex(v) for v in z]
    for _ in range(aberth._MAX_ITER):
        converged = True
        for i in range(len(z)):
            zi = z[i]
            p, dp = aberth.values_at(forms, zi)
            if not p:
                continue
            if not dp:
                zi = zi + (abs(zi) + 1) * mpf(2) ** (-mp.prec // 2)
                p, dp = aberth.values_at(forms, zi)
                if not dp:
                    continue
            w = p / dp
            s = aberth._float_pair_sum(zd, i, complex(zi))
            s = aberth._pair_sum(z, i, zi) if s is None else mpc(s[0])
            denom = 1 - w * s
            delta = w / denom if denom else w
            z[i] = zi - delta
            zd[i] = complex(z[i])
            if abs(delta) > tol * abs(z[i]):
                converged = False
        if converged:
            break
    return z


def _parity_with_the_tol_rule(polys, bits, monkeypatch):
    """Every root of ``polys`` at ``bits`` is within noise_floor() of the tol rule's, in order."""
    with working_precision(bits):
        got = [roots_of_rational_poly(e) for e in polys]
        monkeypatch.setattr(aberth, "_aberth_iterate", _reference_iterate)
        ref = [roots_of_rational_poly(e) for e in polys]
        floor = noise_floor()
        for roots, want in zip(got, ref):
            assert len(roots) == len(want)
            for z, w in zip(roots, want):
                assert abs(z - w) <= floor * abs(w)


@functools.lru_cache(maxsize=None)
def _direction_eliminants(direction: str):
    """Square-free eliminants of the first 64 family polynomials that have one in ``direction``."""
    out = []
    for H in itertools.islice(_random_polynomials(20260810), 64):
        try:
            out.append(squarefree_part(eliminant(H, Direction.from_string(direction))))
        except BivasymError:
            pass
    return out


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_last_sweep_exit_matches_the_tol_rule(bits, monkeypatch):
    # The first 64 family polynomials in the sweep's three directions and
    # the problem files: stopping on the error bound leaves every root
    # within noise_floor() of the root the tol rule alone reaches, in order.
    polys = [e for d in ("1:1", "2:1", "1:3") for e in _direction_eliminants(d)]
    polys += list(_problem_eliminants().values())
    _parity_with_the_tol_rule(polys, bits, monkeypatch)


@pytest.mark.parametrize("bits", [1024, 2048])
def test_last_sweep_exit_matches_the_tol_rule_at_high_precision(bits, monkeypatch):
    # A rule that stops once a step is within 2^-(prec//3 + 8), as if the
    # rate were cubic, leaves some of these roots 2^-759 (1024 bits) and
    # 2^-1570 (2048 bits) from the tol rule's, relative: far above
    # noise_floor(), 2^-1016 and 2^-2040.
    _parity_with_the_tol_rule(_family_eliminants()[:8], bits, monkeypatch)


def test_roots_just_outside_a_cluster_match_the_tol_rule(monkeypatch):
    # 1 and 1 + 3/2^12 are 1.5 * _CLUSTER * (|z_i| + |z_j|) apart: each
    # takes a double pair sum, whose error bound grows with the closeness.
    coeffs = _from_roots([1, 1 + F(3, 2**12), -2])
    with working_precision(128):
        roots = roots_of_rational_poly(coeffs)
    zd = [complex(z) for z in roots]
    assert all(aberth._float_pair_sum(zd, i, zd[i]) is not None for i in range(3))
    _parity_with_the_tol_rule([coeffs], 128, monkeypatch)


def test_float_pair_sum_declines_for_a_tiny_root():
    # A root whose double is below _FLOAT_TINY, subnormal, zero or just a
    # small normal, has lost the bits of its differences: its pair sum is
    # taken at working precision.  The other roots keep their double sums.
    for tiny in (complex(mpf(10) ** -400), 1e-310 + 0j, aberth._FLOAT_TINY / 2 + 0j):
        zd = [tiny, 1j, -1j]
        assert aberth._float_pair_sum(zd, 0, tiny) is None
        assert aberth._float_pair_sum(zd, 1, 1j) is not None
    zd = [2 * aberth._FLOAT_TINY + 0j, 1j, -1j]
    assert aberth._float_pair_sum(zd, 0, zd[0]) is not None
