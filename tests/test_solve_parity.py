"""Solve routes against their references.

``solve_critical`` finds the roots of the square-free part of the
eliminant.  The reference below is the same solve on the full eliminant,
made by replacing the square-free step with the identity.  The two must
find the same points, with the same smoothness, or the same typed error.

``solve_critical`` reads the partner of each eliminant root off the first
subresultant.  The reference takes every partner from ``_recover_partner``'s
root solve, made by leaving the subresultant undefined.  The two must find
the same points, in the same order and with the same smoothness, to
``2^-(prec-16)`` relative, at 64, 128 and 256 bits.

``run_solve`` probes the dominant class once, on its first point with the
others as peers, and copies the answer to the other points.  The reference
probes every point, each with the rest of the class as its peers.
Verdicts, witnesses and margins must agree bit for bit.
"""

import dataclasses
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from bivasym import Direction, critical
from bivasym.critical import critical_system, minimality_probe, solve_critical
from bivasym.errors import BivasymError
from bivasym.pipeline import run_solve
from bivasym.precision import working_precision
from bivasym.problem import ProblemSpec, parse_problem
from bivasym.resultant import resultant_eliminating
from bivasym.unipoly import degree, squarefree_part
from tests.test_acceptance import _random_polynomials

ROOT = Path(__file__).resolve().parent.parent

# Criterion-4 family items 0-31 (seed 20260810) whose eliminant has a
# repeated root.  In items 18 and 20 Aberth's root order differs between
# the two solves for points that tie on (|p|, |q|, arg p).
REPEATED_ROOT_ITEMS = [1, 3, 4, 5, 7, 9, 10, 11, 14, 15, 16, 18, 20, 22, 23, 24, 25, 27, 28, 30]
PROBLEMS = ["color_swap", "multinomial_sqrt", "branch_wrap", "lattice_orbits"]


def _spec(case) -> ProblemSpec:
    if case in PROBLEMS:
        return parse_problem((ROOT / "problems" / f"{case}.json").read_text())
    H = next(itertools.islice(_random_polynomials(20260810), case, None))
    return ProblemSpec(H=H, beta=Fraction(1, 2), direction=Direction(1, 1))


def _solve(spec):
    try:
        return solve_critical(spec.H, spec.direction)
    except BivasymError as exc:
        return type(exc)


def _relative_gap(a, b) -> float:
    scale = max(abs(a.p), abs(a.q))
    return float(max(abs(a.p - b.p), abs(a.q - b.q)) / scale)


@pytest.mark.parametrize("case", REPEATED_ROOT_ITEMS + PROBLEMS)
def test_squarefree_eliminant_finds_the_same_points(case, monkeypatch):
    spec = _spec(case)
    got = _solve(spec)
    with monkeypatch.context() as m:
        m.setattr(critical, "upoly_squarefree_part", list)
        full = _solve(spec)
    if case not in PROBLEMS:
        res = resultant_eliminating(*critical_system(spec.H, spec.direction))
        assert degree(squarefree_part(res)) < degree(res)
    if not isinstance(full, list):
        assert got is full
        return
    assert len(got) == len(full)
    unmatched = list(got)
    for ref in full:
        # Match regardless of order; each point is used once.
        pt = min(unmatched, key=lambda c: _relative_gap(ref, c))
        unmatched.remove(pt)
        assert pt.smooth == ref.smooth
        # A non-smooth point is a singular solution of the critical
        # system, which either solve locates to about half the working
        # precision only (item 5's (9, -1) differs by 4.5e-20).
        tol = mp.mpf(10) ** -20 if ref.smooth else mp.mpf(2) ** (4 - mp.prec // 2)
        assert _relative_gap(ref, pt) <= tol


def _half_precision() -> mp.mpf:
    """Gap within which either route locates a non-smooth point."""
    return mp.mpf(2) ** (4 - mp.prec // 2)


def _once(points):
    """``points`` with each non-smooth point kept once.

    A singular solution is a double root in y, so a root solve can return
    it as two partners that the polish leaves apart: at 64 bits item 5's
    (9, -1) comes back twice, up to 3.7e-8 apart, from ``_recover_partner``.
    Two copies each within ``_half_precision`` of the point are within
    twice that of each other.
    """
    kept = []
    for pt in points:
        if pt.smooth or all(k.smooth or _relative_gap(k, pt) > 2 * _half_precision() for k in kept):
            kept.append(pt)
    return kept


FAMILY_SYSTEMS = [
    (item, direction) for item in range(32) for direction in ("1:1", "2:1", "1:3")
]
PROBLEM_FILES = sorted(p.stem for p in (ROOT / "problems").glob("*.json"))


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("case", FAMILY_SYSTEMS + PROBLEM_FILES)
def test_subresultant_partners_match_the_root_solve(case, bits, monkeypatch):
    if isinstance(case, tuple):
        item, direction = case
        spec = dataclasses.replace(_spec(item), direction=Direction.from_string(direction))
    else:
        spec = parse_problem((ROOT / "problems" / f"{case}.json").read_text())
    with working_precision(bits):
        got = _solve(spec)
        with monkeypatch.context() as m:
            m.setattr(critical, "first_subresultant", lambda f, g: None)
            ref = _solve(spec)
        if not isinstance(ref, list):
            assert got is ref
            return
        got, ref = _once(got), _once(ref)
        assert len(got) == len(ref)
        for pt, ref_pt in zip(got, ref):
            assert pt.smooth == ref_pt.smooth
            # A non-smooth point is a singular solution, which either
            # route locates to about half the working precision only.
            tol = mp.mpf(2) ** (16 - bits) if ref_pt.smooth else _half_precision()
            assert _relative_gap(ref_pt, pt) <= tol


@pytest.mark.parametrize("case", REPEATED_ROOT_ITEMS + PROBLEMS)
def test_one_probe_per_key_matches_probing_every_point(case):
    spec = _spec(case)
    try:
        outcome = run_solve(spec)
    except BivasymError:
        return
    if outcome.dominant is None:
        return
    dom = outcome.dominant.points
    for pt in dom:
        fresh = dataclasses.replace(pt, minimality=critical.UNTESTED, witness=None, margin=None)
        ref = minimality_probe(spec.H, fresh, peers=[o for o in dom if o is not pt])
        # repr tells -0.0 from 0.0, which the CLI report prints differently.
        assert repr((pt.minimality, pt.witness, pt.margin)) == repr(
            (ref.minimality, ref.witness, ref.margin)
        )
