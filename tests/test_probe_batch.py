"""The one-circle minimality probe against the polydisk scan it replaced.

``minimality_probe`` root-solves H(0, y), then slices 0..7 of the 256
slices of the one circle |y| = |q|, and stops there when they hold a
witness; otherwise it solves slices 8..128 and takes slices 129..255 as
the conjugates of slices 127..1.  Each call is one ``_radius_roots`` of
stacked companion-matrix ``eigvals`` calls.  A violated point's margin
covers the slices up to and including its witness's.  The references
scan the closed polydisk on 32 radii by 256 angles:
``_reference_probe`` with one ``np.roots`` call per slice, finishing the
radius that shows the first violation, and ``_unpruned_probe`` with every
slice of one radius batched at a time.  Verdicts must agree on every point
and margins to ``MARGIN_EPS`` on every point that is not violated (the
mirrored slices' y differ from the references' by rounding); a violated
point's witness comes from H(0, y) or from the circle, and must lie on the
zero set inside the polydisk.  ``_every_slice_probe`` solves all 256
slices of the circle in one call, as the probe did before the mirror and
the first batch.  On every torus class of the first 32 family
polynomials in three directions, verdicts and witnesses equal it exactly
and margins to ``MARGIN_EPS``.  A Hypothesis property draws random
polynomials and points that put witnesses past slice 7, in the mirrored
half and on an identically zero slice, and takes every slice at once at
the probe's own y, with the probe's mirror (LAPACK's roots of slice
N - k are not the exact conjugates of slice k's): verdicts, witnesses
and margins equal it exactly.  From
the repository root, ``python -m tests.test_probe_batch`` runs the
family comparison on every torus class of the first 200 family
polynomials in three directions and of every problem file (CI does so).
"""

import argparse
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from mpmath import mpc
from numpy.polynomial.polynomial import polyval

from bivasym import BivariatePolynomial, Direction, critical
from bivasym.errors import BivasymError
from bivasym.critical import (
    _HALF_CIRCLE,
    BOUNDARY_TOL,
    INCONCLUSIVE,
    MARGIN_TOL,
    PROBABLY_STRICTLY_MINIMAL,
    VIOLATED,
    CriticalPoint,
    _radius_roots,
    _relative_residual,
    group_by_torus,
    minimality_probe,
    solve_critical,
)
from bivasym.pipeline import run_solve
from bivasym.problem import parse_problem
from tests.test_acceptance import _random_polynomials

ROOT = Path(__file__).resolve().parent.parent
ANGLES, RADII = 256, 32  # the polydisk grid of the references
# A margin read from mirrored slices is within this many eps (times
# 1 + |margin|) of the one from slices solved directly.
MARGIN_EPS = 8


def _margin_close(got, want):
    return got == want or abs(got - want) <= MARGIN_EPS * np.finfo(float).eps * (1 + abs(want))


def _reference_slice_roots(coeffs, magnitudes):
    """The roots of one slice, None when each coefficient is at most 1e-13 of its magnitude."""
    zero = [abs(c) <= 1e-13 * m for c, m in zip(coeffs, magnitudes)]
    if all(zero):
        return None
    n = len(coeffs)
    while n > 1 and zero[n - 1]:
        n -= 1
    trimmed = coeffs[:n]
    if n == 1:
        return []
    if n == 2:
        return [-trimmed[0] / trimmed[1]]
    return list(np.roots(trimmed[::-1]))


def _matches_known(x_val, y_val, known, match_tol):
    tol_x, tol_y = match_tol
    return any(abs(x_val - kp) <= tol_x and abs(y_val - kq) <= tol_y for kp, kq in known)


def _unmatched(roots, ys, known, match_tol):
    """``valid``-shaped flags: the roots not within ``match_tol`` of a known point."""
    tol_x, tol_y = match_tol
    free = np.ones(roots.shape, dtype=bool)
    for kp, kq in known:
        dx, dy = roots - kp, ys - kq
        near_y = np.hypot(dy.real, dy.imag) <= tol_y
        free &= ~((np.hypot(dx.real, dx.imag) <= tol_x) & near_y[:, None])
    return free


def _reference_probe(H, pt, peers=()):
    """(minimality, witness, margin) from one np.roots call per slice."""
    mod_p = float(abs(pt.p))
    mod_q = float(abs(pt.q))
    known = [(complex(c.p), complex(c.q)) for c in (pt, *peers)]
    match_tol = (1e-7 * mod_p, 1e-7 * mod_q)
    y_major = H.float_coeffs().T
    min_margin = math.inf
    witness = None
    phis = 2.0 * np.pi * np.arange(ANGLES) / ANGLES
    for t in [k / RADII for k in range(1, RADII + 1)]:
        ys = t * mod_q * np.exp(1j * phis)
        cmat = polyval(ys, y_major)
        magnitudes = polyval(t * mod_q, np.abs(y_major))
        for a in range(ANGLES):
            y_val = ys[a]
            roots = _reference_slice_roots(cmat[:, a], magnitudes)
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
    match_tol = (1e-7 * mod_p, 1e-7 * mod_q)
    y_major = H.float_coeffs().T
    min_margin = math.inf
    phis = 2.0 * np.pi * np.arange(ANGLES) / ANGLES
    for k in range(1, RADII + 1):
        ys = k / RADII * mod_q * np.exp(1j * phis)
        magnitudes = polyval(k / RADII * mod_q, np.abs(y_major))
        roots, valid, zero = _radius_roots(polyval(ys, y_major).T, magnitudes)
        ax = np.hypot(roots.real, roots.imag)
        checked = valid & _unmatched(roots, ys, known, match_tol)
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


def _assert_same(H, pt, peers=(), reference=_reference_probe):
    """Probe ``pt`` and check it against the polydisk scan ``reference``."""
    verdict, _, margin = reference(H, pt, peers)
    got = minimality_probe(H, pt, peers=peers)
    assert got.minimality == verdict
    if verdict == VIOLATED:
        x_w, y_w = got.witness
        assert abs(x_w) <= float(abs(pt.p)) * (1 + BOUNDARY_TOL)
        assert abs(y_w) <= float(abs(pt.q)) * (1 + BOUNDARY_TOL)
        assert _relative_residual(H, mpc(x_w), mpc(y_w)) < 1e-9
    else:
        assert got.witness is None
        assert _margin_close(got.margin, float(margin))
    return got


def bp(items):
    return BivariatePolynomial.from_items(items)


# The verdict on the dominant points of each problem file that has them
# (torus_winds has no critical point).
PROBLEM_VERDICTS = {
    "axis_point": PROBABLY_STRICTLY_MINIMAL,
    "branch_wrap": PROBABLY_STRICTLY_MINIMAL,
    "color_swap": PROBABLY_STRICTLY_MINIMAL,
    "g_vanishes": PROBABLY_STRICTLY_MINIMAL,
    "lattice_orbits": PROBABLY_STRICTLY_MINIMAL,
    "multinomial_sqrt": PROBABLY_STRICTLY_MINIMAL,
    "negative_origin": PROBABLY_STRICTLY_MINIMAL,
    "origin_zero_inside": VIOLATED,
    "large_coefficients": PROBABLY_STRICTLY_MINIMAL,
    "scaled_multinomial": PROBABLY_STRICTLY_MINIMAL,
}


@pytest.mark.parametrize("name", sorted(PROBLEM_VERDICTS))
def test_problem_files_match_reference(name):
    spec = parse_problem((ROOT / "problems" / f"{name}.json").read_text())
    outcome = run_solve(spec, probe=False)
    for pt in outcome.dominant.points:
        peers = [o for o in outcome.dominant.points if o is not pt]
        got = _assert_same(spec.H, pt, peers)
        assert got.minimality == PROBLEM_VERDICTS[name]
        if got.minimality == PROBABLY_STRICTLY_MINIMAL:
            assert got.margin > MARGIN_TOL


# Criterion-4 family items (seed 20260810) with quick solves: item 6 is
# inconclusive, items 7, 9 and 11 are violated.
@pytest.mark.parametrize("item", [6, 7, 9, 11])
def test_family_items_match_reference(item):
    H = next(itertools.islice(_random_polynomials(20260810), item, None))
    direction = Direction(1, 1)
    dom = group_by_torus(solve_critical(H, direction), direction=direction)[0]
    for pt in dom.points:
        _assert_same(H, pt, [o for o in dom.points if o is not pt])


def _radius(H, mod_q, k):
    """``(slices, magnitudes)`` of radius k/32 of |q| = mod_q, in the probe's layout."""
    ys = k / 32 * mod_q * np.exp(2j * np.pi * np.arange(256) / 256)
    y_major = H.float_coeffs().T
    return polyval(ys, y_major).T, polyval(k / 32 * mod_q, np.abs(y_major))


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
    cmat, magnitudes = _radius(H, 1.0, 16)  # y = 1/2 exactly at angle 0
    roots, valid, zero = _radius_roots(cmat, magnitudes)
    assert not zero.any()
    for a in range(len(cmat)):
        expected = np.array(_reference_slice_roots(cmat[a], magnitudes), dtype=complex)
        assert roots[a][valid[a]].tobytes() == expected.tobytes()


def test_mixed_degree_radius_matches_reference():
    H = bp([(0, 0, "3"), (1, 0, "-1"), (2, 0, "1"), (2, 1, "-2")])
    roots, valid, zero = _radius_roots(*_radius(H, 1.0, 16))
    assert valid.sum(axis=1).tolist() == [1] + [2] * 255
    # H(0, y) = 3 has no root, so the witness is on the circle |y| = 1;
    # the reference finds its first violation at radius 31 of 32.
    got = _assert_same(H, CriticalPoint(p=mpc(1), q=mpc(1)))
    assert got.minimality == VIOLATED and abs(got.witness[1]) == 1


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
    # |p| = 0.01: every root stays outside until y = 1/2 makes x = 0 a
    # root, and y = 1/2 is the root of H(0, y) = 1 - 2y.
    got = _assert_same(bp(items), CriticalPoint(p=mpc(0.01), q=mpc(1)))
    assert got.minimality == VIOLATED
    assert got.witness[0] == 0 and got.witness[1] == 0.5
    assert got.margin == -1.0


def test_zero_slice_before_violating_roots_wins():
    # H = (1 - 2y)(x^2 y^2 - 1): the slice y = 1/2 is identically zero, and
    # y = 1/2 is the root of H(0, y) = 2y - 1, so it is the witness, though
    # the circle |y| = 1 has roots |x| = 1 < |p| = 2.1.
    H = bp([(2, 2, "1"), (2, 3, "-2"), (0, 0, "-1"), (0, 1, "2")])
    got = _assert_same(H, CriticalPoint(p=mpc(2.1), q=mpc(1)))
    assert got.minimality == VIOLATED
    assert got.witness == (0j, 0.5 + 0j)
    assert got.margin == -1.0


def test_violating_roots_before_zero_slice_win():
    # H = (1 + 2y)(x^2 y^2 - 1): the circle's first slice (y = 1) has the
    # violating roots x = +-1, but H(0, y) = -1 - 2y is checked before the
    # circle, so its root y = -1/2 is the witness.
    H = bp([(2, 2, "1"), (2, 3, "2"), (0, 0, "-1"), (0, 1, "-2")])
    got = _assert_same(H, CriticalPoint(p=mpc(2.1), q=mpc(1)))
    assert got.minimality == VIOLATED
    assert got.witness == (0j, -0.5 + 0j)
    assert got.margin == -1.0


@pytest.mark.parametrize("mod_q, verdict", [(0.25, PROBABLY_STRICTLY_MINIMAL), (1.0, VIOLATED)])
def test_slices_without_x_roots(mod_q, verdict):
    # H = 1 - 2y does not depend on x, so no slice has roots; the root
    # y = 1/2 of H(0, y) lies in |y| <= |q| when |q| = 1, not when |q| = 1/4.
    H = bp([(0, 0, "1"), (0, 1, "-2")])
    got = _assert_same(H, CriticalPoint(p=mpc(1), q=mpc(mod_q)))
    assert got.minimality == verdict


def test_margin_unset_until_probed(multinomial_h, diag_direction):
    pt = solve_critical(multinomial_h, diag_direction)[0]
    assert pt.margin is None
    minimality_probe(multinomial_h, pt)
    assert _margin_close(pt.margin, _reference_probe(multinomial_h, pt)[2])


def _family(item):
    return next(itertools.islice(_random_polynomials(20260810), item, None))


@pytest.mark.parametrize(
    "name, solved",
    [
        # Accepted: H(0, y), then slices 0..7 and 8..128 of the 256 of
        # |y| = |q|; the polydisk had 8192.
        pytest.param("color_swap", [1, 8, 121], id="color_swap"),
        pytest.param("multinomial_sqrt", [1, 8, 121], id="multinomial_sqrt"),
        pytest.param("branch_wrap", [1, 8, 121], id="branch_wrap"),
        # Violated with its witness at slice 0: slices 8..128 are never solved.
        pytest.param("family-7", [1, 8], id="family-7"),
    ],
)
def test_probe_solves_few_slices(name, solved, monkeypatch):
    if name.startswith("family-"):
        H, direction = _family(int(name.split("-")[1])), Direction(1, 1)
        dom = group_by_torus(solve_critical(H, direction), direction=direction)[0]
        pt, peers = dom.points[0], dom.points[1:]
    else:
        spec = parse_problem((ROOT / "problems" / f"{name}.json").read_text())
        H, pt, peers = spec.H, run_solve(spec, probe=False).dominant.points[0], []
    rows = []
    radius_roots = critical._radius_roots
    monkeypatch.setattr(
        critical, "_radius_roots", lambda cmat, mags: rows.append(len(cmat)) or radius_roots(cmat, mags)
    )
    got = minimality_probe(H, pt, peers=peers)
    assert rows == solved
    if len(solved) == 2:
        assert got.minimality == VIOLATED and got.witness[1] == float(abs(pt.q))


def test_origin_zero_is_found_only_by_the_origin_check():
    # H = 1 + 3y - x y^2 + x^2 y/2 at 2:1: H(0, -1/3) = 0 inside |y| <= |q|
    # = sqrt(2), yet every x-root on the circle |y| = |q| lies beyond |p|:
    # the circle alone would accept the point at margin 8.7e-6.
    spec = parse_problem((ROOT / "problems" / "origin_zero_inside.json").read_text())
    dom = run_solve(spec, probe=False).dominant
    for pt in dom.points:
        mod_p, mod_q = float(abs(pt.p)), float(abs(pt.q))
        roots, valid, zero = _radius_roots(*_radius(spec.H, mod_q, 32))
        assert not zero.any()
        assert np.abs(roots[valid]).min() / mod_p - 1 > MARGIN_TOL
        got = _assert_same(spec.H, pt, [o for o in dom.points if o is not pt])
        assert got.witness == (0j, complex(-1 / 3)) and got.margin == -1.0


# Family items 0-31 except the six whose polydisk scans are slowest (13, 14,
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
                verdicts.append(_assert_same(H, pt, peers, reference=_unpruned_probe).minimality)
    assert [verdicts.count(v) for v in (VIOLATED, PROBABLY_STRICTLY_MINIMAL, INCONCLUSIVE)] == [
        56,
        20,
        2,
    ]


def _every_slice_probe(H, pt, peers=(), mirror=False):
    """(minimality, witness, margin) of the circle check with every slice taken at once.

    The 256 slices lie at exp(2 pi i k/256) |q| and are all root-solved.
    With ``mirror``, as in the probe, slices 0..128 lie at the probe's own
    y and are root-solved, and slices 129..255 are the conjugates of slices
    127..1, their roots in the same order.
    """
    mod_p, mod_q = float(abs(pt.p)), float(abs(pt.q))
    known = [(complex(c.p), complex(c.q)) for c in (pt, *peers)]
    y_major = H.float_coeffs().T
    roots, valid, _ = _radius_roots(y_major[:, :1].T, 0.0)
    for y0 in roots[0][valid[0]]:
        if np.hypot(y0.real, y0.imag) <= mod_q * (1 + BOUNDARY_TOL):
            return VIOLATED, (0j, complex(y0)), -1.0
    ys = mod_q * (_HALF_CIRCLE if mirror else np.exp(2j * np.pi * np.arange(ANGLES) / ANGLES))
    roots, valid, zero = _radius_roots(polyval(ys, y_major).T, polyval(mod_q, np.abs(y_major)))
    if mirror:
        back = np.arange(ANGLES // 2 - 1, 0, -1)
        ys, roots = (np.concatenate([v, v[back].conj()]) for v in (ys, roots))
        valid, zero = (np.concatenate([v, v[back]]) for v in (valid, zero))
    ax = np.hypot(roots.real, roots.imag)
    checked = valid & _unmatched(roots, ys, known, (1e-7 * mod_p, 1e-7 * mod_q))
    margin = float((ax[checked] / mod_p - 1.0).min()) if checked.any() else math.inf
    inside = checked & (ax <= mod_p * (1 + BOUNDARY_TOL))
    hit = zero | inside.any(axis=1)
    if hit.any():
        a = int(np.argmax(hit))
        x_val = 0j if zero[a] else complex(roots[a, np.argmax(inside[a])])
        # A violated point's margin covers the slices up to its witness's.
        margin = -1.0 if zero[a] else float((ax[: a + 1][checked[: a + 1]] / mod_p - 1.0).min())
        return VIOLATED, (x_val, complex(ys[a])), margin
    verdict = PROBABLY_STRICTLY_MINIMAL if margin > MARGIN_TOL else INCONCLUSIVE
    return verdict, None, margin


def _match_every_slice_probe(cases):
    """The verdicts of every torus class of the ``(H, direction)`` cases, checked.

    Each class's first point off the axes is probed with the others as
    peers: verdict and witness equal ``_every_slice_probe``'s, and the
    margin is within MARGIN_EPS of its.  A case the solve refuses is
    skipped.
    """
    verdicts = []
    for H, direction in cases:
        try:
            classes = group_by_torus(solve_critical(H, direction), direction=direction)
        except BivasymError:
            continue
        for cl in classes:
            pt = cl.points[0]
            if abs(pt.p) == 0 or abs(pt.q) == 0:
                continue
            verdict, witness, margin = _every_slice_probe(H, pt, cl.points[1:])
            got = minimality_probe(H, pt, peers=cl.points[1:])
            assert (got.minimality, got.witness) == (verdict, witness)
            assert _margin_close(got.margin, margin)
            verdicts.append(verdict)
    return verdicts


def _family_cases(count):
    """The first ``count`` family polynomials at 1:1, 2:1 and 1:3."""
    polys = itertools.islice(_random_polynomials(20260810), count)
    return [(H, Direction.from_string(d)) for H in polys for d in ("1:1", "2:1", "1:3")]


def test_mirrored_slices_match_every_slice_solved():
    # Every torus class of the first 32 family polynomials at 1:1, 2:1 and
    # 1:3 (187 classes): the same verdicts and witnesses as solving all 256
    # slices, and margins within MARGIN_EPS (15 move, by at most 6 eps).
    assert len(_match_every_slice_probe(_family_cases(32))) == 187


# How _probe_cases places pt: (slice k, pt on slice k itself, its
# conjugate a peer).  "least" is the slice of least root modulus of slices
# 0..127, "upper" that of slices 1..128, "any" a drawn slice.  An upper
# point without its conjugate has the witness of least index in the
# mirrored half when no earlier slice has a root within |p|.
_PLACEMENTS = [
    ("upper", True, False),
    ("upper", True, False),
    ("upper", True, True),
    ("least", False, False),
    ("least", False, True),
    ("any", True, False),
    ("any", False, False),
]


@st.composite
def _probe_cases(draw):
    """``(H, pt, peers)``: pt on or near the zero set of H over a circle |y| = |q|.

    H has x- and y-degree at most 3, small rational coefficients, an x
    term and H(0, 0) != 0, and |q| lies inside every root of H(0, y), so that check
    (a) passes; x (y - |q|) H, drawn too, has H(0, y) = 0 and an
    identically zero slice 0.  |p| is the least root modulus of a slice k
    (``_PLACEMENTS``): pt is that root at slice k's y, or a point of about
    its modulus elsewhere on the torus.
    """
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    nonzero = st.sampled_from([Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)])
    zero_slice = draw(st.sampled_from([False, False, False, True]))
    top = 2 if zero_slice else 3
    exponents = st.tuples(st.integers(0, top), st.integers(0, top))
    H = draw(st.dictionaries(exponents, coeffs, max_size=6))
    x_term = (draw(st.integers(1, top)), draw(st.integers(0, top)))
    H = BivariatePolynomial({**H, x_term: draw(nonzero), (0, 0): draw(nonzero)})
    h0_roots = np.roots([float(H.terms.get((0, j), 0)) for j in range(H.degree_y(), -1, -1)])
    inner = np.abs(h0_roots).min() if h0_roots.size else 2
    mod_q = draw(st.sampled_from([0.25, 0.5, 0.9])) * inner
    if zero_slice:
        mod_q = Fraction(mod_q).limit_denominator(16)
        y_minus_q = BivariatePolynomial({(0, 1): 1, (0, 0): -mod_q})
        H = H * BivariatePolynomial.x() * y_minus_q
    mod_q = float(mod_q)
    ys = mod_q * np.exp(2j * np.pi * np.arange(ANGLES) / ANGLES)
    y_major = H.float_coeffs().T
    roots, valid, _ = _radius_roots(polyval(ys, y_major).T, polyval(mod_q, np.abs(y_major)))
    moduli = np.where(valid & (roots != 0), np.hypot(roots.real, roots.imag), math.inf)
    least = moduli.min(axis=1, initial=math.inf)
    pick, on_slice, conjugate = draw(st.sampled_from(_PLACEMENTS))
    if pick == "any":
        k = draw(st.integers(0, ANGLES - 1))
    else:
        first = 1 if pick == "upper" else 0
        k = first + int(np.argmin(least[first : first + ANGLES // 2]))
    assume(least[k] < math.inf)
    x_k = roots[k, np.argmin(moduli[k])]
    if on_slice:
        p, q = complex(x_k), complex(ys[k])
    else:
        p = abs(x_k) * draw(st.sampled_from([1 - 1e-6, 1.0, 1 + 1e-6]))
        q = complex(mod_q * np.exp(1j * draw(st.floats(0, 2 * math.pi))))
    peers = [CriticalPoint(mpc(complex(p).conjugate()), mpc(q.conjugate()))] if conjugate else []
    return H, CriticalPoint(mpc(p), mpc(q)), peers


def _slice_root_case(H, mod_q, k):
    """``(H, pt, [])``: pt the least-modulus x-root of slice k of |y| = mod_q, at slice k's y."""
    ys = mod_q * np.exp(2j * np.pi * np.arange(ANGLES) / ANGLES)
    y_major = H.float_coeffs().T
    roots, valid, _ = _radius_roots(polyval(ys, y_major).T, polyval(mod_q, np.abs(y_major)))
    moduli = np.where(valid & (roots != 0), np.hypot(roots.real, roots.imag), math.inf)
    return H, CriticalPoint(mpc(complex(roots[k, np.argmin(moduli[k])])), mpc(complex(ys[k]))), []


@settings(max_examples=200, deadline=None)
@given(_probe_cases())
# The witness of this point is the conjugate of its own root, on slice 191.
# Root-solved there, LAPACK's roots are not the exact conjugates of slice
# 65's: x differed in the 15th digit and the margin read 1.1e-15, not 0.
@example(_slice_root_case(bp([(0, 0, "-3"), (2, 1, "1"), (3, 0, "-3"), (3, 2, "3")]), 1.0, 65))
def test_random_probes_match_every_slice_solved(case):
    # The every-slice probe takes every slice at once, at the probe's own
    # y, and slices 129..255 as the mirror of slices 127..1: only the early
    # stop, the two batches and the margin rule remain to differ, and
    # verdict, witness and margin must be equal exactly.
    H, pt, peers = case
    verdict, witness, margin = _every_slice_probe(H, pt, peers, mirror=True)
    got = minimality_probe(H, pt, peers=peers)
    assert (got.minimality, got.witness, got.margin) == (verdict, witness, margin)
    if witness is None:
        event(verdict)
    elif witness[0] == 0:
        event("zero slice 0")
    else:
        ys = float(abs(pt.q)) * np.concatenate([_HALF_CIRCLE, _HALF_CIRCLE[-2:0:-1].conj()])
        a = int(np.flatnonzero(ys == witness[1])[0])
        event(f"witness in slices {'0..7' if a < 8 else '8..128' if a <= 128 else '129..255'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Probe every torus class of the first ITEMS family polynomials at 1:1, "
        "2:1 and 1:3 and of every problem file against the every-slice probe."
    )
    parser.add_argument("--items", type=int, default=200, help="family polynomials")
    args = parser.parse_args(argv)
    specs = [parse_problem(path.read_text()) for path in sorted((ROOT / "problems").glob("*.json"))]
    verdicts = _match_every_slice_probe(
        _family_cases(args.items) + [(spec.H, spec.direction) for spec in specs]
    )
    counts = {v: verdicts.count(v) for v in (VIOLATED, PROBABLY_STRICTLY_MINIMAL, INCONCLUSIVE)}
    print(f"{len(verdicts)} torus classes match the every-slice probe: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
