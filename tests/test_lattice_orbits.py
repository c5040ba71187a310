"""Character orbits of critical points: solved once and estimated once.

When the exponents of H's nonconstant monomials span a lattice L of index
k > 1, the k characters chi of Z^2/L (``lattice.characters``) map each
critical point to one on the same torus.  ``solve_critical`` solves the
square-free eliminant x^m R(x^d) through R, partners one eliminant root
per orbit, polishes one partner per orbit under the characters that fix
x, and emits the other points as the images (chi_1 p, chi_2 q) of the
polished ones, each point tagged with its polished point and whether it
was conjugated; ``estimate_general`` takes the local data and the
winding number once per tag.  These tests hold:

* the characters against every pair (s, t) mod k, and k against the gcd
  of the 2x2 exponent minors;
* every emitted point against a polished point, one of its exact images
  or the conjugate of one, with that point's residuals and smoothness, and
  the points against closure under the characters;
* the orbit tags, on every torus class of the first 32 family polynomials
  at 1:1, 2:1 and 1:3 and of every problem file: each tag groups exactly
  k off-axis points, and each tagged point is, bit for bit, ``_image`` of
  the tag's polished point under one character;
* the solve of ``problems/lattice_orbits.json`` against 2 polishes, one
  partner per orbit under the characters that fix x, and of family item
  167 at 2:1 against 1, one of two partners that conjugation and a
  character swap;
* the per-orbit estimate against the per-point sum, within 2^-(prec-8) of
  the largest contribution times 1 + the largest argument (the argument's
  own rounding), on every periodic family item at 1:1, 2:1 and 1:3 and on
  the periodic problem files, with and without a G;
* ``problems/lattice_orbits.json`` against the exact recurrence;
* a cached ``root_of_unity`` against a fresh one, bit for bit, at 64, 128
  and 256 bits.

``python -m tests.test_lattice_orbits --precision BITS`` runs the solve and
estimate checks at that precision, and the tag checks on the first 200
family polynomials (CI does so at 64, 256 and 1024 bits; tier-1 runs them
at 128).
"""

from __future__ import annotations

import argparse
import itertools
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from bivasym import BivariatePolynomial, Direction, critical, estimates
from bivasym.aberth import roots_of_rational_poly
from bivasym.critical import same_point, snap_noise
from bivasym.errors import BivasymError
from bivasym.lattice import characters, root_of_unity
from bivasym.oracle import coeff_recurrence
from bivasym.pipeline import estimate_target, run_solve
from bivasym.precision import working_precision
from bivasym.problem import ProblemSpec, parse_problem
from bivasym.unipoly import squarefree_part
from tests.test_acceptance import _random_polynomials

ROOT = Path(__file__).resolve().parent.parent
FAMILY = list(itertools.islice(_random_polynomials(20260810), 64))
# The family sweep's targets per direction.
TARGETS = {"1:1": (40, 40), "2:1": (80, 40), "1:3": (40, 120)}
PERIODIC_FILES = ["branch_wrap", "lattice_orbits"]
# A numerator that no character leaves unchanged, so G(p, q) differs
# across an orbit.
G_MIXED = BivariatePolynomial.from_items([(0, 0, "1"), (1, 0, "-1"), (0, 1, "1/2"), (1, 1, "1")])


def _periodic_specs():
    """``(name, spec)`` for every periodic family item in each direction and the periodic files."""
    for k, H in enumerate(FAMILY):
        if characters(H).index > 1:
            for d in TARGETS:
                spec = ProblemSpec(H=H, beta=Fraction(1, 2), direction=Direction.from_string(d))
                yield f"{k}@{d}", spec
    for name in PERIODIC_FILES:
        yield name, parse_problem((ROOT / "problems" / f"{name}.json").read_text())


@contextmanager
def _recorded_polish():
    """Record each point ``critical._newton_polish`` returns while inside."""
    polish, found = critical._newton_polish, []

    def recorded(F1, F2, start):
        best = polish(F1, F2, start)
        found.append(best)
        return best

    critical._newton_polish = recorded
    try:
        yield found
    finally:
        critical._newton_polish = polish


def check_images(spec) -> int:
    """Assert that ``spec``'s solve emits polished points and their exact images; returns the count.

    A point is a polished point, or ``snap_noise`` of its image under a
    character, or the exact conjugate of one of those, and carries that
    polished point's residuals and smoothness.  Every character image of
    every point is among the points (``same_point``).
    """
    with _recorded_polish() as polished:
        try:
            points = critical.solve_critical(spec.H, spec.direction)
        except BivasymError:
            return 0
    group = characters(spec.H).values()
    sources = {}
    for p, q, res_h, res_dir in polished:
        carried = (float(res_h), float(res_dir), critical.is_smooth(spec.H, (p, q)))
        for z1, z2 in group:
            image = (p, q) if (z1, z2) == (1, 1) else (snap_noise(p * z1), snap_noise(q * z2))
            for u, v in (image, (mp.conj(image[0]), mp.conj(image[1]))):
                sources.setdefault((u._mpc_, v._mpc_), set()).add(carried)
    for pt in points:
        # Several polished points can have one image; the point carries the
        # residuals and smoothness of one of them.
        got = (pt.residual_h, pt.residual_dir, pt.smooth)
        assert got in sources.get((pt.p._mpc_, pt.q._mpc_), ()), (spec.H, spec.direction, pt)
    for pt in points:
        for z1, z2 in group:
            assert any(same_point(o, (z1 * pt.p, z2 * pt.q)) for o in points)
    return len(points)


def check_tags(H, direction) -> int:
    """Assert that each orbit tag of the solve is one whole character orbit; returns the tag count.

    Each point is, bit for bit, ``_image`` of its tag's polished point
    under one character, conjugated when the tag says so (either way when
    it says None), and each tag groups exactly ``characters(H).index``
    points off the axes.
    """
    with _recorded_polish() as polished:
        try:
            points = critical.solve_critical(H, direction)
        except BivasymError:
            return 0
    group = characters(H)
    chis = [None] + group.values()[1:]
    found = {(p._mpc_, q._mpc_) for p, q, *_ in polished}
    tags = {}
    for pt in points:
        source, conjugated = pt.orbit
        assert (source.p._mpc_, source.q._mpc_) in found
        flags = (False, True) if conjugated is None else (conjugated,)
        images = [critical._image(source, chi, c) for chi in chis for c in flags]
        assert (pt.p._mpc_, pt.q._mpc_) in {(c.p._mpc_, c.q._mpc_) for c in images}, (H, direction)
        if pt.p != 0 and pt.q != 0:
            tags.setdefault((id(source), conjugated), []).append(pt)
    assert all(len(pts) == group.index for pts in tags.values()), (H, direction)
    return len(tags)


def _tag_cases(count):
    """``(H, direction)`` for the first ``count`` family polynomials in each direction and every problem file."""
    for H in itertools.islice(_random_polynomials(20260810), count):
        for d in TARGETS:
            yield H, Direction.from_string(d)
    for path in sorted((ROOT / "problems").glob("*.json")):
        spec = parse_problem(path.read_text())
        yield spec.H, spec.direction


def _per_point(spec, G, points, r, s):
    """``estimate_general`` with every point its own orbit: local data and winding per point."""
    untagged = [dataclasses.replace(pt, orbit=None) for pt in points]
    return estimates.estimate_general(spec.H, G, spec.beta, untagged, r, s, spec.direction)


def _estimate_or_error(make):
    try:
        return make()
    except BivasymError as exc:
        return type(exc)


def _contribution(c):
    """A contribution's value from its ``log10_modulus`` and ``argument``."""
    return mp.mpf(10) ** c["log10_modulus"] * mp.expj(c["argument"])


def check_estimates(spec) -> int:
    """Assert the per-orbit estimate equals the per-point one on ``spec``; returns the count."""
    try:
        outcome = run_solve(spec, probe=False)
    except BivasymError:
        return 0
    if outcome.dominant is None:
        return 0
    points = [pt for pt in outcome.dominant.points if pt.smooth]
    if not points:
        return 0
    targets = spec.targets or [TARGETS[str(spec.direction)]]
    compared = 0
    for G, (r, s) in itertools.product((spec.G, G_MIXED), targets):
        got = _estimate_or_error(
            lambda: estimates.estimate_general(spec.H, G, spec.beta, points, r, s, spec.direction)
        )
        want = _estimate_or_error(lambda: _per_point(spec, G, points, r, s))
        if isinstance(want, type):
            assert got is want
            continue
        # Either sum rounds each argument, of size up to about (r + s)*pi,
        # to the working precision, so the bound is 2^-(prec-8) of the
        # largest contribution times 1 + the largest argument.
        u = mp.mpf(2) ** (8 - mp.prec)
        biggest = max(abs(_contribution(c)) for c in want.contributions)
        turns = 1 + max(abs(c["argument"]) for c in want.contributions)
        assert abs(got.value - want.value) <= u * biggest * turns, (spec.H, spec.direction, r, s)
        for a, c in zip(got.contributions, want.contributions):
            assert a["point"] == c["point"] and a["winding"] == c["winding"]
            assert abs(a["argument"] - c["argument"]) <= u * (1 + abs(c["argument"]))
            if c["log10_modulus"] != mp.ninf:
                gap = abs(a["log10_modulus"] - c["log10_modulus"])
                assert gap <= u * (1 + abs(c["log10_modulus"]))
            assert abs(a["branch_value"] - c["branch_value"]) <= u * abs(c["branch_value"])
        compared += 1
    return compared


SPECS = dict(_periodic_specs())


@pytest.mark.parametrize("name", sorted(SPECS))
def test_emitted_points_are_exact_images(name):
    check_images(SPECS[name])


@pytest.mark.parametrize("name", sorted(SPECS))
def test_orbit_estimate_matches_the_per_point_sum(name):
    check_estimates(SPECS[name])


def test_checks_cover_the_orbits():
    # 33 of the 64 family polynomials are periodic; most of their
    # directions have a dominant class to estimate.
    assert len(SPECS) == 33 * 3 + 2
    assert sum(check_estimates(spec) for spec in SPECS.values()) > 100


def test_orbit_tags_group_whole_orbits():
    # 292 tags at 128 bits.
    assert sum(check_tags(H, direction) for H, direction in _tag_cases(32)) > 250


def test_lattice_orbits_polishes_one_partner_per_orbit():
    # 12 points in 3 character orbits of 4, two of them conjugate: one
    # point is polished per orbit under the characters and conjugation, as
    # the characters (1, -1) fix x and map one partner onto the other.
    spec = SPECS["lattice_orbits"]
    with _recorded_polish() as polished:
        points = critical.solve_critical(spec.H, spec.direction)
    assert len(polished) == 2
    assert len(points) == 12


def test_partners_swapped_by_conjugation_are_polished_once():
    # Family item 167 at 2:1: the characters are (+-1, 1), and the roots
    # +-0.943i are conjugate, so (p, q) -> conj(-p, q) maps the two partners
    # above 0.943i onto each other.  One is polished, and the 4 points form
    # 2 orbits of 2, one the conjugate of the other.
    H = BivariatePolynomial.from_items([(0, 0, 1), (0, 2, "-2/3"), (2, 1, "1/2"), (2, 2, "-3/2")])
    with _recorded_polish() as polished:
        points = critical.solve_critical(H, Direction(2, 1))
    assert len(polished) == 1 and len(points) == 4
    assert check_tags(H, Direction(2, 1)) == 2


def test_characters_match_the_exponent_minors():
    for H in FAMILY:
        exps = [ij for ij in H.terms if ij != (0, 0)]
        k = 0
        for (a, b), (c, d) in itertools.combinations(exps, 2):
            k = math.gcd(k, a * d - b * c)
        group = characters(H)
        assert group.index == max(k, 1)
        pairs = itertools.product(range(k), repeat=2)
        want = [(s, t) for s, t in pairs if all((s * i + t * j) % k == 0 for i, j in exps)]
        assert list(group.exponents) == (want if k > 1 else [(0, 0)])
    # A rank below 2 is the trivial group.
    assert characters(BivariatePolynomial.from_items([(0, 0, 1), (2, 4, 1), (1, 2, 1)])).index == 1
    assert characters(BivariatePolynomial.from_items([(0, 0, 1), (0, 2, 1), (0, 4, 1)])).index == 1
    # H of lattice_orbits.json: L = 2Z x 2Z, characters (+-1, +-1).
    spec = SPECS["lattice_orbits"]
    assert characters(spec.H).exponents == ((0, 0), (0, 2), (2, 0), (2, 2))
    assert [(complex(a), complex(b)) for a, b in characters(spec.H).values()] == [
        (1, 1), (1, -1), (-1, 1), (-1, -1)
    ]


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_cached_root_of_unity_is_a_fresh_one(bits):
    # The cache is keyed by the precision: a value made at another precision
    # is never handed out.
    cases = [(s, k) for k in (1, 2, 3, 4, 6, 8, 12) for s in range(k)]
    for other in (bits // 2, bits):
        with working_precision(other):
            for s, k in cases:
                root_of_unity(s, k)
    with working_precision(bits):
        for s, k in cases:
            turn = mp.mpf(2 * s) / k
            fresh = mp.mpc(mp.cospi(turn), mp.sinpi(turn))
            assert root_of_unity(s, k)._mpc_ == fresh._mpc_


def test_eliminant_roots_match_the_full_root_solve():
    # The roots through R (x^m R(x^d)) are the roots of the whole square-free
    # eliminant, to the working precision.
    deflated = 0
    for name in ("lattice_orbits", "18@1:1", "21@2:1", "31@1:3"):
        spec = SPECS[name]
        poly = squarefree_part(critical.eliminant(spec.H, spec.direction))
        roots, _ = critical._eliminant_roots(poly, characters(spec.H))
        full = roots_of_rational_poly(poly)
        assert len(roots) == len(full)
        for w in full:
            assert min(abs(w - u) for u in roots) <= mp.mpf(2) ** (16 - mp.prec) * (1 + abs(w))
        exponents = [e for e, c in enumerate(poly) if c]
        deflated += math.gcd(*(e - exponents[0] for e in exponents)) > 1
    assert deflated == 4


def test_lattice_orbits_problem_matches_recurrence():
    # 8 dominant points in 2 orbits of 4; the exact values are -2.2324e8
    # and 1.5347e18.
    spec = SPECS["lattice_orbits"]
    outcome = run_solve(spec)
    assert len(outcome.dominant.points) == 8
    assert outcome.has_usable_point()
    table = coeff_recurrence(spec.H, spec.G, spec.beta, (80, 80))
    for r, s in spec.targets:
        est = estimate_target(spec, outcome, r, s)
        exact = table.value(r, s)
        assert abs(est.value / exact - 1) < 0.02


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--precision", type=int, default=128, help="significand bits")
    args = parser.parse_args(argv)
    with working_precision(args.precision):
        points = sum(check_images(spec) for spec in SPECS.values())
        sums = sum(check_estimates(spec) for spec in SPECS.values())
        tags = sum(check_tags(H, direction) for H, direction in _tag_cases(200))
    print(json.dumps({"precision": args.precision, "points": points, "sums": sums, "tags": tags}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
