"""The pruned, batched minimality probe against its two references.

``minimality_probe`` finds x-roots with stacked companion-matrix
``eigvals`` calls, and only on the slices that a root-modulus bound cannot
clear.  ``_reference_probe`` is the per-slice ``np.roots`` loop the
batching replaced, changed only to finish the radius that shows the first
violation, so that it also yields the least margin over the roots the
batched probe checks.  ``_unpruned_probe`` is the batched probe before the
pruning: every slice of one radius at a time.  Verdicts, witnesses and
margins must agree with both bit for bit.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc
from numpy.polynomial.polynomial import polyval

from bivasym import BivariatePolynomial, Direction, critical
from bivasym.critical import (
    BOUNDARY_TOL,
    INCONCLUSIVE,
    MARGIN_TOL,
    PROBABLY_STRICTLY_MINIMAL,
    VIOLATED,
    CriticalPoint,
    ProbeGrid,
    _radius_roots,
    _root_modulus_bounds,
    dominant_class,
    group_by_torus,
    minimality_probe,
    solve_critical,
)
from bivasym.pipeline import run_solve
from bivasym.problem import parse_problem
from tests.test_acceptance import _random_polynomials

ROOT = Path(__file__).resolve().parent.parent


def _reference_slice_roots(coeffs, coeff_scale):
    mags = np.abs(coeffs)
    top = mags.max()
    if top <= 1e-14 * max(coeff_scale, 1.0):
        return None
    floor = 1e-13 * top
    trimmed = coeffs.copy()
    n = len(trimmed)
    while n > 1 and abs(trimmed[n - 1]) <= floor:
        n -= 1
    trimmed = trimmed[:n]
    if n == 1:
        return []
    if n == 2:
        return [-trimmed[0] / trimmed[1]]
    return list(np.roots(trimmed[::-1]))


def _matches_known(x_val, y_val, known, match_tol):
    for kp, kq in known:
        if abs(x_val - kp) <= match_tol and abs(y_val - kq) <= match_tol:
            return True
    return False


def _reference_probe(H, pt, peers=()):
    """(minimality, witness, margin) from one np.roots call per slice."""
    mod_p = float(abs(pt.p))
    mod_q = float(abs(pt.q))
    known = [(complex(c.p), complex(c.q)) for c in (pt, *peers)]
    match_tol = 1e-7 * max(1.0, mod_p, mod_q)
    y_major = H.float_coeffs().T
    coeff_scale = float(H.coefficient_scale())
    grid = ProbeGrid()
    min_margin = math.inf
    witness = None
    phis = 2.0 * np.pi * np.arange(grid.angles) / grid.angles
    for t in [k / grid.radii for k in range(1, grid.radii + 1)]:
        ys = t * mod_q * np.exp(1j * phis)
        cmat = polyval(ys, y_major)
        for a in range(grid.angles):
            y_val = ys[a]
            roots = _reference_slice_roots(cmat[:, a], coeff_scale)
            if roots is None:
                min_margin = -1.0
                witness = witness or (0j, complex(y_val))
                continue
            for x_val in roots:
                ax = abs(x_val)
                if _matches_known(x_val, y_val, known, match_tol):
                    continue
                if ax <= mod_p * (1 + BOUNDARY_TOL):
                    witness = witness or (complex(x_val), complex(y_val))
                min_margin = min(min_margin, ax / mod_p - 1.0)
        if witness is not None:
            return VIOLATED, witness, min_margin
    verdict = PROBABLY_STRICTLY_MINIMAL if min_margin > MARGIN_TOL else INCONCLUSIVE
    return verdict, None, min_margin


def _unpruned_probe(H, pt, peers=()):
    """(minimality, witness, margin) with every slice of every radius solved."""
    mod_p = float(abs(pt.p))
    mod_q = float(abs(pt.q))
    known = [(complex(c.p), complex(c.q)) for c in (pt, *peers)]
    match_tol = 1e-7 * max(1.0, mod_p, mod_q)
    y_major = H.float_coeffs().T
    zero_top = 1e-14 * max(float(H.coefficient_scale()), 1.0)
    grid = ProbeGrid()
    min_margin = math.inf
    phis = 2.0 * np.pi * np.arange(grid.angles) / grid.angles
    for k in range(1, grid.radii + 1):
        ys = k / grid.radii * mod_q * np.exp(1j * phis)
        roots, valid, zero = _radius_roots(polyval(ys, y_major).T, zero_top)
        ax = np.hypot(roots.real, roots.imag)
        checked = valid.copy()
        for kp, kq in known:
            dx, dy = roots - kp, ys - kq
            near_y = np.hypot(dy.real, dy.imag) <= match_tol
            checked &= ~((np.hypot(dx.real, dx.imag) <= match_tol) & near_y[:, None])
        if checked.any():
            min_margin = min(min_margin, float((ax[checked] / mod_p - 1.0).min()))
        inside = checked & (ax <= mod_p * (1 + BOUNDARY_TOL))
        hit = zero | inside.any(axis=1)
        if hit.any():
            if zero.any():
                min_margin = -1.0
            a = int(np.argmax(hit))
            x_val = 0j if zero[a] else complex(roots[a, np.argmax(inside[a])])
            return VIOLATED, (x_val, complex(ys[a])), min_margin
    verdict = PROBABLY_STRICTLY_MINIMAL if min_margin > MARGIN_TOL else INCONCLUSIVE
    return verdict, None, min_margin


def _assert_same(H, pt, peers=()):
    verdict, witness, margin = _reference_probe(H, pt, peers)
    got = minimality_probe(H, pt, peers=peers)
    # repr tells -0.0 from 0.0, which the CLI report prints differently.
    assert repr((got.minimality, got.witness, got.margin)) == repr(
        (verdict, witness, float(margin))
    )
    return got


def bp(items):
    return BivariatePolynomial.from_items(items)


@pytest.mark.parametrize("name", ["color_swap", "multinomial_sqrt", "branch_wrap"])
def test_problem_files_match_reference(name):
    spec = parse_problem((ROOT / "problems" / f"{name}.json").read_text())
    outcome = run_solve(spec, probe=False)
    for pt in outcome.dominant.points:
        peers = [o for o in outcome.dominant.points if o is not pt]
        got = _assert_same(spec.H, pt, peers)
        assert got.minimality == PROBABLY_STRICTLY_MINIMAL
        assert got.margin > MARGIN_TOL


# Criterion-4 family items (seed 20260810) with quick solves: item 6 is
# inconclusive, items 7, 9 and 11 are violated.
@pytest.mark.parametrize("item", [6, 7, 9, 11])
def test_family_items_match_reference(item):
    H = next(itertools.islice(_random_polynomials(20260810), item, None))
    direction = Direction(1, 1)
    dom = dominant_class(group_by_torus(solve_critical(H, direction), direction=direction))
    for pt in dom.points:
        _assert_same(H, pt, [o for o in dom.points if o is not pt])


def _radius(H, mod_q, k):
    """Slices of radius k/32 of |q| = mod_q, in the probe's layout."""
    ys = k / 32 * mod_q * np.exp(2j * np.pi * np.arange(256) / 256)
    return polyval(ys, H.float_coeffs().T).T


@pytest.mark.parametrize(
    "items",
    [
        # x^2 coefficient 1 - 2y vanishes at y = 1/2: one linear slice.
        [(0, 0, "3"), (1, 0, "-1"), (2, 0, "1"), (2, 1, "-2")],
        # x^2 + x + (1 - 2y): one exact root x = 0 beside a 1x1 companion.
        [(0, 0, "1"), (0, 1, "-2"), (1, 0, "1"), (2, 0, "1")],
        # x^3 + x^2 + (1 - 2y)(x + 1): two roots x = 0 beside a 1x1 companion.
        [(3, 0, "1"), (2, 0, "1"), (1, 0, "1"), (1, 1, "-2"), (0, 0, "1"), (0, 1, "-2")],
        # x^2 + (1 - 2y)(x + 1): both roots x = 0, no companion at all.
        [(2, 0, "1"), (1, 0, "1"), (1, 1, "-2"), (0, 0, "1"), (0, 1, "-2")],
        # x + (1 - 2y): the linear root -0/1 keeps its sign.
        [(1, 0, "1"), (0, 0, "1"), (0, 1, "-2")],
    ],
)
def test_radius_roots_match_np_roots_per_slice(items):
    H = bp(items)
    scale = float(H.coefficient_scale())
    cmat = _radius(H, 1.0, 16)  # y = 1/2 exactly at angle 0
    roots, valid, zero = _radius_roots(cmat, 1e-14 * max(scale, 1.0))
    assert not zero.any()
    for a in range(len(cmat)):
        expected = np.array(_reference_slice_roots(cmat[a], scale), dtype=complex)
        assert roots[a][valid[a]].tobytes() == expected.tobytes()


def test_mixed_degree_radius_matches_reference():
    H = bp([(0, 0, "3"), (1, 0, "-1"), (2, 0, "1"), (2, 1, "-2")])
    roots, valid, zero = _radius_roots(_radius(H, 1.0, 16), 1e-14 * 2)
    assert valid.sum(axis=1).tolist() == [1] + [2] * 255
    # Radius 16 is scanned in full before the violation at radius 31.
    got = _assert_same(H, CriticalPoint(p=mpc(1), q=mpc(1)))
    assert got.minimality == VIOLATED and abs(got.witness[1]) == 31 / 32


@pytest.mark.parametrize(
    "items",
    [
        [(0, 0, "1"), (0, 1, "-2"), (1, 0, "1"), (2, 0, "1")],
        [(3, 0, "1"), (2, 0, "1"), (1, 0, "1"), (1, 1, "-2"), (0, 0, "1"), (0, 1, "-2")],
        [(2, 0, "1"), (1, 0, "1"), (1, 1, "-2"), (0, 0, "1"), (0, 1, "-2")],
        [(1, 0, "1"), (0, 0, "1"), (0, 1, "-2")],
    ],
)
def test_exact_zero_root_is_the_witness(items):
    # |p| = 0.01: every root stays outside until y = 1/2 makes x = 0 a root.
    got = _assert_same(bp(items), CriticalPoint(p=mpc(0.01), q=mpc(1)))
    assert got.minimality == VIOLATED
    assert got.witness[0] == 0 and got.witness[1] == 0.5
    assert got.margin == -1.0


def test_zero_slice_before_violating_roots_wins():
    # H = (1 - 2y)(x^2 y^2 - 1): at radius 16 (|y| = 1/2) the slice y = 1/2
    # (angle 0) is identically zero and every other slice has roots
    # |x| = 2 < |p| = 2.1; no earlier radius violates.
    H = bp([(2, 2, "1"), (2, 3, "-2"), (0, 0, "-1"), (0, 1, "2")])
    got = _assert_same(H, CriticalPoint(p=mpc(2.1), q=mpc(1)))
    assert got.minimality == VIOLATED
    assert got.witness == (0j, 0.5 + 0j)
    assert got.margin == -1.0


def test_violating_roots_before_zero_slice_win():
    # H = (1 + 2y)(x^2 y^2 - 1): the zero slice is y ~ -1/2 (angle 128), so
    # the roots x = +-2 of slice 0 (y = 1/2) come first.
    H = bp([(2, 2, "1"), (2, 3, "2"), (0, 0, "-1"), (0, 1, "-2")])
    got = _assert_same(H, CriticalPoint(p=mpc(2.1), q=mpc(1)))
    assert got.minimality == VIOLATED
    assert got.witness[1] == 0.5 + 0j
    assert abs(abs(got.witness[0]) - 2) < 1e-12
    assert got.margin == -1.0


@pytest.mark.parametrize("mod_q, verdict", [(0.25, PROBABLY_STRICTLY_MINIMAL), (1.0, VIOLATED)])
def test_slices_without_x_roots(mod_q, verdict):
    # H = 1 - 2y does not depend on x, so no slice has roots; the slice
    # y = 1/2 vanishes when |q| = 1 and is not sampled when |q| = 1/4.
    H = bp([(0, 0, "1"), (0, 1, "-2")])
    got = _assert_same(H, CriticalPoint(p=mpc(1), q=mpc(mod_q)))
    assert got.minimality == verdict


def test_margin_unset_until_probed(multinomial_h, diag_direction):
    pt = solve_critical(multinomial_h, diag_direction)[0]
    assert pt.margin is None
    minimality_probe(multinomial_h, pt)
    assert pt.margin == _reference_probe(multinomial_h, pt)[2]


def _family(item):
    return next(itertools.islice(_random_polynomials(20260810), item, None))


def _assert_bounds_hold(cmat, zero_top):
    """Every root ``_radius_roots`` returns has modulus at least its slice's bound."""
    bound = _root_modulus_bounds(cmat)
    roots, valid, _ = _radius_roots(cmat, zero_top)
    ax = np.hypot(roots.real, roots.imag)
    assert (ax >= bound[:, None])[valid].all()
    return bound


@pytest.mark.parametrize("case", ["color_swap", "multinomial_sqrt", "branch_wrap", 6, 7, 9, 11])
def test_root_modulus_bound_is_sound(case):
    if isinstance(case, str):
        spec = parse_problem((ROOT / "problems" / f"{case}.json").read_text())
        H, dom = spec.H, run_solve(spec, probe=False).dominant
    else:
        H, direction = _family(case), Direction(1, 1)
        dom = dominant_class(group_by_torus(solve_critical(H, direction), direction=direction))
    zero_top = 1e-14 * max(float(H.coefficient_scale()), 1.0)
    # Every slice of every radius the probe could solve.
    cmat = np.concatenate([_radius(H, dom.modulus_q, k) for k in range(1, 33)])
    _assert_bounds_hold(cmat, zero_top)


@pytest.mark.parametrize("name", ["color_swap", "multinomial_sqrt", "branch_wrap"])
def test_probe_solves_few_slices(name, monkeypatch):
    spec = parse_problem((ROOT / "problems" / f"{name}.json").read_text())
    pt = run_solve(spec, probe=False).dominant.points[0]
    rows = []
    radius_roots = critical._radius_roots
    monkeypatch.setattr(
        critical, "_radius_roots", lambda cmat, top: rows.append(len(cmat)) or radius_roots(cmat, top)
    )
    minimality_probe(spec.H, pt)
    # Of the 8192 slices, pass 2 solves its seed of 64 and a few more.
    assert critical.PRUNE_SEED <= sum(rows) < 8192 // 10


_small = st.builds(complex, st.integers(-4, 4), st.integers(-4, 4)) | st.complex_numbers(
    max_magnitude=8, allow_nan=False, allow_infinity=False
)


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(_small, min_size=1, max_size=6),
    zero_c0=st.booleans(),
    lead_scale=st.sampled_from([1.0, 1e-6, 1e-11, 1e-12, 2e-13]),
)
def test_root_modulus_bound_on_small_polynomials(coeffs, zero_c0, lead_scale):
    # Covers a zero c_0, a leading coefficient just above the trim cut, and
    # (one coefficient) a slice with no x-terms at all.
    c = np.array(coeffs, dtype=complex)
    if zero_c0:
        c[0] = 0
    c[-1] *= lead_scale
    top = np.abs(c).max()
    bound = _assert_bounds_hold(c[None, :], 1e-14)
    if len(c) == 1 and top > 1e-14:
        assert bound[0] == np.inf
    if zero_c0 and len(c) > 1:
        assert bound[0] == 0.0


def _assert_same_as_unpruned(H, pt, peers):
    expected = _unpruned_probe(H, pt, peers)
    got = minimality_probe(H, pt, peers=peers)
    assert repr((got.minimality, got.witness, got.margin)) == repr(expected)
    return got.minimality


# Family items 0-31 except the six whose unpruned scans are slowest (13, 14,
# 17, 18, 20, 21): 78 points, 56 violated, 20 accepted, 2 inconclusive.
PARITY_ITEMS = [i for i in range(32) if i not in (13, 14, 17, 18, 20, 21)]


def test_every_torus_class_matches_the_unpruned_probe():
    direction = Direction(1, 1)
    verdicts = []
    for item in PARITY_ITEMS:
        H = _family(item)
        for cl in group_by_torus(solve_critical(H, direction), direction=direction):
            for pt in cl.points:
                if abs(pt.p) == 0 or abs(pt.q) == 0:
                    continue
                peers = [o for o in cl.points if o is not pt]
                verdicts.append(_assert_same_as_unpruned(H, pt, peers))
    assert [verdicts.count(v) for v in (VIOLATED, PROBABLY_STRICTLY_MINIMAL, INCONCLUSIVE)] == [
        56,
        20,
        2,
    ]
