"""The committed correctness sweep: the random family in three directions.

The first 64 polynomials of the acceptance family (``_random_polynomials``,
seed 20260810), ``beta`` 1/2 and no ``G``, are estimated at 1:1 (40, 40),
2:1 (80, 40) and 1:3 (40, 120).  Each pair is classed the way the bench
classes an item (``bench/workloads.py``): ``confirmed`` (an estimate from a
class the probe accepted that the exact value confirms by the bench's
``_agrees`` rule), ``refused:<reason>`` (a typed error, or no critical
point), ``unconfirmed`` or ``crashed:<type>``.  Each pair also falls in a
row by where its ray lies against the cone ``C`` spanned by the exponents
of the non-constant monomials of ``H``: outside, on a boundary ray, or
inside.

``tests/data/family_sweep.json`` holds every pair's class at 128 bits and
the counts per row.  A change that moves a class updates the file and says
so; the counts of ``confirmed`` never fall.  From the repository root,
``python -m tests.test_family_sweep --precision BITS`` checks that the
classes at that precision equal the file's (CI does so at 64, 256 and 512
bits), and ``--write`` rewrites the file from a 128-bit sweep.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from mpmath import mp

from bivasym import Direction, oracle, pipeline
from bivasym.critical import PROBABLY_STRICTLY_MINIMAL
from bivasym.errors import BivasymError
from bivasym.precision import working_precision
from bivasym.problem import ProblemSpec
from tests.test_acceptance import _random_polynomials

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "family_sweep.json"

FAMILY_SEED = 20260810
COUNT = 64
TARGETS = {"1:1": (40, 40), "2:1": (80, 40), "1:3": (40, 120)}
ROWS = ("outside", "boundary", "inside")
# The bench's confirmation rule (bench/workloads.py), not a new tolerance.
CONFIRM_TOLERANCE = 0.25
ZERO_CANCEL_DIGITS = 15


def _family():
    return list(itertools.islice(_random_polynomials(FAMILY_SEED), COUNT))


def cone_row(H, direction: Direction) -> str:
    """Where the ray ``r0:s0`` lies against the cone of H's non-constant exponents."""
    exps = [ij for ij in H.terms if ij != (0, 0)]

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    # Exponents lie in the first quadrant, so the cone's edges are the
    # exponents of least and greatest angle.
    lo = min(exps, key=lambda e: Fraction(e[1], e[0]) if e[0] else float("inf"))
    hi = max(exps, key=lambda e: Fraction(e[1], e[0]) if e[0] else float("inf"))
    d = (direction.r0, direction.s0)
    if cross(lo, d) == 0 or cross(d, hi) == 0:
        return "boundary"
    return "inside" if cross(lo, d) > 0 and cross(d, hi) > 0 else "outside"


def _agrees(estimate, exact) -> bool:
    if exact == 0:
        if estimate.value == 0:
            return True
        biggest = max(c["log10_modulus"] for c in estimate.contributions)
        return mp.log(abs(estimate.value), 10) <= biggest - ZERO_CANCEL_DIGITS
    return abs(estimate.value / exact - 1) <= CONFIRM_TOLERANCE


def classify(H, direction: Direction, target):
    """``(class, accepted_but_disagrees)`` of one pair, as the bench classes an item."""
    spec = ProblemSpec(H=H, beta=Fraction(1, 2), direction=direction, targets=[target])
    try:
        solved = pipeline.run_solve(spec)
        if solved.dominant is None:
            return "refused:no critical point", False
        estimate = pipeline.estimate_target(spec, solved, *target)
    except BivasymError as exc:
        return f"refused:{type(exc).__name__}", False
    except Exception as exc:  # an untyped escape is a crash
        return f"crashed:{type(exc).__name__}", False
    (exact,), _ = oracle.coefficients_at(H, None, spec.beta, [target])
    verdicts = {pt.minimality for pt in solved.dominant.points if pt.smooth}
    accepted = verdicts == {PROBABLY_STRICTLY_MINIMAL}
    agrees = _agrees(estimate, exact)
    return ("confirmed" if accepted and agrees else "unconfirmed"), accepted and not agrees


def sweep(bits: int = 128):
    """``(classes, rows, disagreements)`` of the 192 pairs at ``bits`` of precision.

    ``classes`` maps ``"r0:s0/item"`` to the pair's class, ``rows`` each
    row to its counts of classes, and ``disagreements`` lists the accepted
    pairs the exact value does not confirm.
    """
    classes, rows, disagreements = {}, {row: Counter() for row in ROWS}, []
    with working_precision(bits):
        for name, target in TARGETS.items():
            direction = Direction.from_string(name)
            for k, H in enumerate(_family()):
                key = f"{name}/{k:02d}"
                cls, disagrees = classify(H, direction, target)
                classes[key] = cls
                rows[cone_row(H, direction)][cls.split(":")[0]] += 1
                if disagrees:
                    disagreements.append(key)
    return classes, {row: dict(sorted(c.items())) for row, c in rows.items()}, disagreements


def stored():
    return json.loads(DATA.read_text())


def test_family_sweep_matches_the_stored_classes():
    classes, rows, disagreements = sweep()
    data = stored()
    assert not [k for k, c in classes.items() if c.startswith("crashed")]
    assert disagreements == []
    for row in ROWS:
        assert rows[row].get("confirmed", 0) >= data["rows"][row].get("confirmed", 0), row
    assert rows == data["rows"]
    assert classes == data["classes"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--precision", type=int, default=128, help="significand bits")
    parser.add_argument("--write", action="store_true", help="rewrite the stored file")
    args = parser.parse_args(argv)
    classes, rows, disagreements = sweep(args.precision)
    if args.write:
        DATA.write_text(json.dumps({"rows": rows, "classes": classes}, indent=1) + "\n")
        return 0
    data = stored()
    moved = {k: (data["classes"].get(k), c) for k, c in classes.items() if data["classes"].get(k) != c}
    print(json.dumps({"precision": args.precision, "rows": rows, "moved": moved}))
    return 0 if not moved and not disagreements and rows == data["rows"] else 1


if __name__ == "__main__":
    sys.exit(main())
