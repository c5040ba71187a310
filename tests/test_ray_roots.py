"""arg H along a ray from the origin, pinned: winding numbers and quadrature anchors.

``BivariatePolynomial.ray_argument(a, b, t_end)`` gives the continuous
argument of ``h(t) = H(t*a, t*b)`` at 0 and at ``t_end``, and refuses a ray
on which H vanishes.  Two callers read it:

* ``estimates.winding_number``, at every smooth critical point whose local
  data passes, of the first 64 family polynomials (``_random_polynomials``,
  seed 20260810) at 1:1, 2:1 and 1:3 and of every problem file at its
  direction, against ``choose_branch_ray`` of that point alone, with the
  turn of arg H from t = 0 to the winding's cut-off t = 1 - 1e-6;
* the anchor of ``oracle.quadrature_values``, the argument at ``t_end = 1``
  on the ray to the radii (c1, c2), for the same 64 polynomials at radii
  (0.1, 0.1), (0.3, 0.2), (0.5, 0.5) and (1, 1), and for every problem
  file at its radii, or half its dominant moduli as ``oracle --quadrature``
  takes them.

``tests/data/ray_arguments.json`` holds each point's ``[winding, turn]``
and each anchor (``float.hex``), or ``"refused"`` for a
``BranchTrackingError``.  Windings and anchors must be equal; a turn must
be within ``TURN_TOL`` of the stored one.  The stored values come from the
bisecting sampler that ``ray_argument`` replaced: the turn is a sum of
rounded terms on either side, and near the critical point at t = 1 it is
about 1e-9 sensitive to the root's last bits.
Windings are keyed ``"r0:s0/item/index"`` or ``"file/name/index"``, the
index in ``solve_critical``'s list; anchors ``"item/c1,c2"`` or
``"file/name"``.

Tier-1 checks the first 32 polynomials at 128 bits.  From the repository
root, ``python -m tests.test_ray_roots --precision BITS`` checks all 64 at
that precision (CI does so at 64 and 256 bits), and ``--write`` rewrites
the file from a 128-bit scan.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

from bivasym import Direction, critical, estimates
from bivasym.errors import BivasymError, BranchTrackingError, HypothesisFailure
from bivasym.pipeline import run_solve
from bivasym.precision import working_precision
from bivasym.problem import parse_problem
from tests.test_acceptance import _random_polynomials

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "ray_arguments.json"

FAMILY = list(itertools.islice(_random_polynomials(20260810), 64))
DIRECTIONS = ("1:1", "2:1", "1:3")
RADII = ((0.1, 0.1), (0.3, 0.2), (0.5, 0.5), (1.0, 1.0))
# On the family every chosen ray's winding is 0, so the turn is what
# tells a wrong sum; a wrong branch is off by 2 pi.
TURN_TOL = 1e-6
REFUSED = "refused"


def _files():
    for path in sorted((ROOT / "problems").glob("*.json")):
        yield path.stem, parse_problem(path.read_text())


def _cases(count: int):
    """``(label, H, direction)`` for the first ``count`` items in each direction and every file."""
    for name in DIRECTIONS:
        for k, H in enumerate(FAMILY[:count]):
            yield f"{name}/{k:02d}", H, Direction.from_string(name)
    for stem, spec in _files():
        yield f"file/{stem}", spec.H, spec.direction


def _winding(H, ld):
    ray = estimates.choose_branch_ray(H, [ld.point])
    try:
        start, end = H.ray_argument(ld.point.p, ld.point.q, 1.0 - 1e-6)
        return [estimates.winding_number(H, ld, ray), end - start]
    except BranchTrackingError:
        return REFUSED


def windings(count: int):
    """Winding numbers, or ``"refused"``, of each passing smooth point of the cases.

    Each is ``[winding, turn]``, against ``choose_branch_ray`` of the point alone.
    """
    out = {}
    for label, H, direction in _cases(count):
        try:
            points = critical.solve_critical(H, direction)
        except BivasymError:
            continue
        for i, pt in enumerate(points):
            # The ray is taken in doubles; local_data refuses an axis point.
            if not pt.smooth or math.isinf(max(pt.moduli)):
                continue
            try:
                ld = estimates.local_data(H, pt, direction)
            except HypothesisFailure:
                continue
            if not ld.failed_checks():
                out[f"{label}/{i}"] = _winding(H, ld)
    return out


def _anchor(H, c1: float, c2: float):
    try:
        return H.ray_argument(c1, c2, 1.0)[1].hex()
    except BranchTrackingError:
        return REFUSED


def anchors(count: int):
    """Quadrature anchor or ``"refused"`` per family item and radii, and per problem file."""
    out = {
        f"{k:02d}/{c1},{c2}": _anchor(H, c1, c2)
        for k, H in enumerate(FAMILY[:count])
        for c1, c2 in RADII
    }
    for stem, spec in _files():
        radii = spec.quadrature_radii
        if radii is None:
            dom = run_solve(spec, probe=False).dominant
            radii = (0.5 * dom.modulus_p, 0.5 * dom.modulus_q)
        out[f"file/{stem}"] = _anchor(spec.H, *radii)
    return out


def scan(count: int = len(FAMILY), bits: int = 128):
    with working_precision(bits):
        return {"windings": windings(count), "anchors": anchors(count)}


def stored(count: int = len(FAMILY)):
    """The stored scan, restricted to the first ``count`` polynomials and every problem file."""
    data = json.loads(DATA.read_text())

    def kept(part: str, key: str) -> bool:
        item = key.split("/")[1 if part == "windings" else 0]
        return key.startswith("file/") or int(item) < count

    return {part: {k: v for k, v in entries.items() if kept(part, k)} for part, entries in data.items()}


def _same(stored_value, value) -> bool:
    if isinstance(stored_value, list) and isinstance(value, list):
        return stored_value[0] == value[0] and abs(stored_value[1] - value[1]) <= TURN_TOL
    return stored_value == value


def moved(data, found):
    """Per part, ``key: (stored, found)`` for each entry that differs or is on one side only."""
    return {
        part: {
            k: (data[part].get(k), found[part].get(k))
            for k in sorted(data[part].keys() | found[part].keys())
            if not _same(data[part].get(k), found[part].get(k))
        }
        for part in data
    }


def test_ray_arguments_match_the_stored_scan():
    assert moved(stored(32), scan(32)) == {"windings": {}, "anchors": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--precision", type=int, default=128, help="significand bits")
    parser.add_argument("--write", action="store_true", help="rewrite the stored file")
    args = parser.parse_args(argv)
    found = scan(bits=args.precision)
    if args.write:
        DATA.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
        return 0
    changed = moved(stored(), found)
    counts = {
        part: {
            "values": sum(v != REFUSED for v in entries.values()),
            "refused": sum(v == REFUSED for v in entries.values()),
        }
        for part, entries in found.items()
    }
    print(json.dumps({"precision": args.precision, "counts": counts, "moved": changed}))
    return 1 if any(changed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
