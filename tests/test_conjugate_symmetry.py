"""Conjugate pairs of eliminant roots are solved once.

H has rational coefficients, so the eliminant's non-real roots and their
critical points come in conjugate pairs.  ``solve_critical`` takes a twin
root's points as the exact conjugates of its partner's
(``_conjugate_twins``), and then runs ``is_smooth`` on every merged point.
These tests hold the points, their smoothness and their torus classes
against partnering and polishing every root (the probe's mirror is held in
``tests/test_probe_batch.py``).
"""

import itertools

import pytest
from mpmath import mp

from bivasym import Direction
from bivasym.aberth import roots_of_rational_poly
from bivasym.critical import (
    RESIDUAL_TOL,
    CriticalPoint,
    _conjugate_twins,
    _merge_duplicates,
    _newton_polish,
    _partners,
    critical_system,
    eliminant,
    group_by_torus,
    is_smooth,
    solve_critical,
)
from bivasym.errors import BivasymError
from bivasym.precision import working_precision
from bivasym.resultant import first_subresultant
from bivasym.unipoly import degree, exact_form, squarefree_part
from tests.test_acceptance import _random_polynomials

DIRECTIONS = [Direction(1, 1), Direction(2, 1), Direction(1, 3)]
FAMILY = list(itertools.islice(_random_polynomials(20260810), 64))


def _every_root_reference(H, direction):
    """``solve_critical`` with every eliminant root partnered and polished."""
    res = eliminant(H, direction)
    if degree(res) < 1:
        return []
    F1, F2 = critical_system(H, direction)
    s1 = first_subresultant(F1, F2)
    sigmas = None if s1 is None else [exact_form(v) for v in (*s1, [abs(c) for c in s1[1]])]
    points = []
    for w in roots_of_rational_poly(squarefree_part(res)):
        for start in _partners(F1, F2, w, sigmas):
            p, q, res_h, res_dir = _newton_polish(F1, F2, start)
            if max(res_h, res_dir) <= RESIDUAL_TOL:
                points.append(CriticalPoint(p, q, float(res_h), float(res_dir)))
    merged = _merge_duplicates(points)
    for pt in merged:
        pt.smooth = is_smooth(H, (pt.p, pt.q))
    return merged


def _solved(H, direction, solve=solve_critical):
    try:
        return solve(H, direction)
    except BivasymError:
        return None


@pytest.fixture(scope="module")
def family_points():
    """``solve_critical``'s points (None when refused) per family item and direction, at 128 bits."""
    return {(k, d): _solved(H, d) for (k, H), d in itertools.product(enumerate(FAMILY), DIRECTIONS)}


def _assert_matches_reference(H, direction, got):
    want = _solved(H, direction, _every_root_reference)
    assert (got is None) == (want is None)
    if got is None:
        return 0
    assert len(got) == len(want)
    tol = mp.mpf(2) ** -(mp.prec - 8)
    for a, b in zip(got, want):
        scale = max(abs(b.p), abs(b.q))
        assert abs(a.p - b.p) <= tol * scale and abs(a.q - b.q) <= tol * scale
        assert a.smooth == b.smooth
    got_classes = group_by_torus(got, direction=direction)
    want_classes = group_by_torus(want, direction=direction)
    assert [pt.torus_class for pt in got] == [pt.torus_class for pt in want]
    assert [c.dominant for c in got_classes] == [c.dominant for c in want_classes]
    return len(got)


def test_points_match_every_root_reference_at_128_bits(family_points):
    count = sum(
        _assert_matches_reference(FAMILY[k], d, pts) for (k, d), pts in family_points.items()
    )
    assert count > 500


@pytest.mark.parametrize("bits", [64, 256])
def test_points_match_every_root_reference_at_other_precisions(bits):
    with working_precision(bits):
        for H, d in itertools.product(FAMILY[:12], DIRECTIONS):
            _assert_matches_reference(H, d, _solved(H, d))


def test_twin_points_are_exact_conjugates(family_points):
    # Every point off the real p-axis has its exact conjugate among the
    # points, with the same residuals and smoothness.
    pairs = 0
    for points in filter(None, family_points.values()):
        for pt in points:
            if pt.p.imag < 0:
                twin = [o for o in points if o.p == mp.conj(pt.p) and o.q == mp.conj(pt.q)]
                assert len(twin) == 1
                assert (twin[0].residual_h, twin[0].residual_dir, twin[0].smooth) == (
                    pt.residual_h,
                    pt.residual_dir,
                    pt.smooth,
                )
                pairs += 1
    assert pairs > 100


def test_conjugate_twins_of_roots():
    roots = [mp.mpc(1, 1e-12), mp.mpc(1, -1e-12), mp.mpc(2, -1), mp.mpc(3, 1), mp.mpc(3, -1)]
    # 1 +- 1e-12 i are within the tolerance of the real axis, 2 - i has no
    # partner above it, and 3 - i pairs with 3 + i.
    assert _conjugate_twins(roots) == {4: 3}
    # Two roots below the axis that claim one twin share nothing.
    assert _conjugate_twins([mp.mpc(3, 1), mp.mpc(3, -1), mp.mpc(3 + 1e-12, -1)]) == {}
    # A root beyond double range has no twin.
    assert _conjugate_twins([mp.mpc(1, mp.mpf("1e400")), mp.mpc(1, -mp.mpf("1e400"))]) == {}
