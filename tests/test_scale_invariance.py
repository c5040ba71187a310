"""No verdict depends on the units of x and y.

Rescaling ``x -> a*x, y -> b*y`` turns H and G into ``H(a*x, b*y)`` and
``G(a*x, b*y)``: the critical points become ``(p/a, q/b)``, smoothness,
minimality, ``G != 0`` and a nonzero phase Hessian are unchanged, and
``[x^r y^s]`` of ``G*H^(-beta)`` is multiplied by ``a^r*b^s``, as the
estimate is.  Every zero test judges a value against its own magnitude at
the point, so ``compare`` on a rescaled problem file ends as on the
file: the same exit code and, on success, the same ratios to 1e-12.  On
the first 32 family polynomials at 1:1, 2:1 and 1:3 the dominant class
keeps its ``smooth`` flags and probe verdicts.  From the repository root,
``python -m tests.test_scale_invariance --precision BITS`` runs both
checks at that precision (CI does so at 64 and 256 bits).
"""

import argparse
import contextlib
import dataclasses
import io
import itertools
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

from bivasym import BivariatePolynomial, Direction
from bivasym import cli
from bivasym.errors import BivasymError
from bivasym.pipeline import run_solve
from bivasym.precision import DEFAULT_PRECISION, working_precision
from bivasym.problem import ProblemSpec, dump_problem, parse_problem
from tests.test_acceptance import _random_polynomials

ROOT = Path(__file__).resolve().parent.parent
BIG, SMALL = F(10**7), F(1, 10**7)
FILE_SCALINGS = [(BIG, BIG), (SMALL, SMALL), (BIG, F(1))]
FAMILY_SCALINGS = FILE_SCALINGS + [(F(1), SMALL)]


def _rescaled(poly, a, b):
    """``poly(a*x, b*y)``, or None for None."""
    if poly is None:
        return None
    return BivariatePolynomial({(i, j): c * a**i * b**j for (i, j), c in poly.terms.items()})


def _compare(spec, folder, bits):
    """``(code, ratios)`` of ``bivasym compare`` at ``bits`` on ``spec``, saved in ``folder``."""
    path = Path(folder) / "spec.json"
    path.write_text(dump_problem(spec))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["compare", "--spec", str(path), "--precision", str(bits)])
    rows = out.getvalue().splitlines()[1:]
    return code, [float(row.split(",")[-1]) for row in rows if not row.endswith("n/a")]


def check_problem_files(folder, bits=DEFAULT_PRECISION):
    """Every problem file with targets under ``FILE_SCALINGS``; returns the number of runs."""
    runs = 0
    for path in sorted((ROOT / "problems").glob("*.json")):
        spec = parse_problem(path.read_text())
        if not spec.targets:
            continue
        want = _compare(spec, folder, bits)
        for a, b in FILE_SCALINGS:
            scaled = dataclasses.replace(spec, H=_rescaled(spec.H, a, b), G=_rescaled(spec.G, a, b))
            code, ratios = _compare(scaled, folder, bits)
            assert code == want[0], (path.stem, a, b, code, want[0])
            assert len(ratios) == len(want[1])
            for got, ratio in zip(ratios, want[1]):
                assert abs(got - ratio) <= 1e-12 * abs(ratio), (path.stem, a, b, got, ratio)
            runs += 1
    return runs


def _dominant(spec):
    """The dominant class's ``[(smooth, minimality)]``, or the refusal's type.

    A refusal's message may print a modulus, which the scaling moves.
    """
    try:
        outcome = run_solve(spec)
    except BivasymError as exc:
        return type(exc).__name__
    if outcome.dominant is None:
        return None
    return [(pt.smooth, pt.minimality) for pt in outcome.dominant.points]


def check_family(count=32):
    """The first ``count`` family polynomials in three directions under ``FAMILY_SCALINGS``.

    Returns the number of rescaled solves.
    """
    runs = 0
    for H in itertools.islice(_random_polynomials(20260810), count):
        for d in ("1:1", "2:1", "1:3"):
            spec = ProblemSpec(H=H, beta=F(1, 2), direction=Direction.from_string(d))
            want = _dominant(spec)
            for a, b in FAMILY_SCALINGS:
                got = _dominant(dataclasses.replace(spec, H=_rescaled(H, a, b)))
                assert got == want, (H, d, a, b)
                runs += 1
    return runs


def test_rescaled_problem_files_compare_alike(tmp_path):
    # 12 problem files have targets.
    assert check_problem_files(tmp_path) == 12 * len(FILE_SCALINGS)


def test_rescaled_family_keeps_its_dominant_verdicts():
    with working_precision(DEFAULT_PRECISION):
        assert check_family() == 32 * 3 * len(FAMILY_SCALINGS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--precision", type=int, default=DEFAULT_PRECISION, help="significand bits")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as folder:
        files = check_problem_files(folder, args.precision)
    with working_precision(args.precision):
        family = check_family()
    print(f"{files} rescaled compare runs, {family} rescaled solves match at {args.precision} bits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
