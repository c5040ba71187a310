#!/usr/bin/env python3
"""Convergence of the saddle estimate toward exact coefficients.

Runs the square-root multinomial function along the diagonal and prints a
CSV of estimate, exact value, and their ratio for growing r.  The ratio
should drift toward 1 like 1 + c/r.

Usage: python scripts/convergence_study.py [r1 r2 ...]
"""

import sys
from fractions import Fraction as F

from mpmath import mp

from bivasym import BivariatePolynomial, Direction
from bivasym.oracle import coefficients_at, exact_value
from bivasym.pipeline import estimate_target, run_solve
from bivasym.problem import ProblemSpec


def main(argv):
    rs = [int(a) for a in argv[1:]] or [25, 50, 100, 200, 400]
    H = BivariatePolynomial.from_items([(0, 0, "1"), (1, 0, "-1"), (0, 1, "-1")])
    spec = ProblemSpec(H=H, beta=F(1, 2), direction=Direction(1, 1))
    outcome = run_solve(spec)
    values, prefactor = coefficients_at(spec.H, spec.G, spec.beta, [(r, r) for r in rs])
    print("r,estimate,exact,ratio")
    for r, c in zip(rs, values):
        est = estimate_target(spec, outcome, r, r)
        exact = exact_value(c, prefactor)
        ratio = est.value / exact
        print(f"{r},{mp.nstr(est.value, 17)},{mp.nstr(exact, 17)},{mp.nstr(ratio, 12)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
