#!/usr/bin/env python3
"""Sweep the direction ratio for the color-swap generating function.

For each direction r0:s0 the script solves the critical system and
probes the dominant class (``pipeline.run_solve``), reports the first
dominant critical point with its minimality verdict, and estimates the
coefficient at a target scaled to that direction
(``pipeline.estimate_target``).  Directions where the point moves off the
positive axis or minimality becomes inconclusive show up immediately in
the table.

Usage: python scripts/direction_sweep.py [base_r]
"""

import sys
from fractions import Fraction as F

from mpmath import mp

from bivasym import BivariatePolynomial, Direction
from bivasym.errors import BivasymError
from bivasym.pipeline import estimate_target, run_solve
from bivasym.problem import ProblemSpec


def main(argv):
    base_r = int(argv[1]) if len(argv) > 1 else 60
    H = BivariatePolynomial.from_items(
        [(0, 0, "1"), (1, 0, "-2"), (1, 1, "-2"), (2, 0, "-1"), (2, 1, "2"), (2, 2, "-1")]
    )
    G = BivariatePolynomial.from_items([(0, 0, "1"), (1, 0, "-1"), (1, 1, "-1")])
    print("direction,p,q,minimality,target_r,target_s,estimate")
    for r0, s0 in ((5, 1), (4, 1), (3, 1), (2, 1), (3, 2), (5, 4)):
        direction = Direction(r0, s0)
        spec = ProblemSpec(H=H, G=G, beta=F(1, 2), direction=direction)
        r = base_r - base_r % r0
        s = r * s0 // r0
        try:
            outcome = run_solve(spec)
            est = estimate_target(spec, outcome, r, s)
        except BivasymError as exc:
            print(f"{direction},error: {exc}")
            continue
        pt = outcome.dominant.points[0]
        print(
            f"{direction},{mp.nstr(pt.p, 10)},{mp.nstr(pt.q, 10)},"
            f"{pt.minimality},{r},{s},{mp.nstr(est.value, 12)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
