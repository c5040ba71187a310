"""No verdict depends on the units of x and y.

Rescaling ``x -> a*x, y -> b*y`` turns H and G into ``H(a*x, b*y)`` and
``G(a*x, b*y)``: the critical points become ``(p/a, q/b)``, smoothness,
minimality, ``G != 0`` and a nonzero phase Hessian are unchanged, and
``[x^r y^s]`` of ``G*H^(-beta)`` is multiplied by ``a^r*b^s``, as the
estimate is.  Every zero test judges a value against its own magnitude at
the point, so ``compare`` on a rescaled problem file ends as on the
file: the same exit code and, on success, the same ratios to 1e-12.  On
the first 32 family polynomials at 1:1, 2:1 and 1:3 the dominant class
keeps its ``smooth`` flags and probe verdicts.  Both hold at factors
10^+-7 and 10^+-30.  From the repository root,
``python -m tests.test_scale_invariance --precision BITS`` runs both
checks at that precision, then ``scan_extremes``: at factors 10^+-200 and
10^+-300 every solve and estimate ends in an estimate or a typed
``BivasymError``, never a traceback (CI does so at 64 and 256 bits).
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

import pytest

from bivasym import BivariatePolynomial, Direction
from bivasym import cli
from bivasym.errors import BivasymError, EvaluationOverflow
from bivasym.pipeline import estimate_target, run_solve
from bivasym.precision import DEFAULT_PRECISION, working_precision
from bivasym.problem import ProblemSpec, dump_problem, parse_problem
from tests.test_acceptance import _random_polynomials

ROOT = Path(__file__).resolve().parent.parent
DIRECTIONS = ("1:1", "2:1", "1:3")


def _file_scalings(big):
    return [(big, big), (1 / big, 1 / big), (big, F(1))]


FILE_SCALINGS = _file_scalings(F(10**7)) + _file_scalings(F(10**30))
FAMILY_SCALINGS = FILE_SCALINGS + [(F(1), F(1, 10**7))]
FAMILY_SCALINGS += [(F(1), F(1, 10**30)), (F(10**30), F(1, 10**30)), (F(1, 10**30), F(10**30))]


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
        for d in DIRECTIONS:
            spec = ProblemSpec(H=H, beta=F(1, 2), direction=Direction.from_string(d))
            want = _dominant(spec)
            for a, b in FAMILY_SCALINGS:
                got = _dominant(dataclasses.replace(spec, H=_rescaled(H, a, b)))
                assert got == want, (H, d, a, b)
                runs += 1
    return runs


def scan_extremes(count=32):
    """``(runs, untyped)`` on the first ``count`` family polynomials at factors 10^+-200 and 10^+-300.

    Each rescaled spec in each direction is solved and estimated at 40
    times the direction; ``untyped`` lists every run that raised anything
    but a ``BivasymError``, with the exception.
    """
    runs, untyped = 0, []
    for k, H in enumerate(itertools.islice(_random_polynomials(20260810), count)):
        for d, e in itertools.product(DIRECTIONS, (200, 300)):
            big, small = F(10**e), F(1, 10**e)
            for a, b in [(big, big), (small, small), (big, F(1)), (F(1), small)]:
                spec = ProblemSpec(H=_rescaled(H, a, b), beta=F(1, 2), direction=Direction.from_string(d))
                try:
                    estimate_target(spec, run_solve(spec), 40 * spec.direction.r0, 40 * spec.direction.s0)
                except BivasymError:
                    pass
                except Exception as exc:  # noqa: BLE001 - a traceback is what the scan looks for
                    untyped.append((k, d, a, b, repr(exc)))
                runs += 1
    return runs, untyped


def test_rescaled_problem_files_compare_alike(tmp_path):
    # 12 problem files have targets.
    assert check_problem_files(tmp_path) == 12 * len(FILE_SCALINGS)


def test_rescaled_family_keeps_its_dominant_verdicts():
    with working_precision(DEFAULT_PRECISION):
        assert check_family() == 32 * 3 * len(FAMILY_SCALINGS)


def test_far_partners_keep_their_verdicts():
    # Family item 1 at 2:1 rescaled by 10^-300: its partners q lie near
    # 10^300, where q^fixing leaves the double range.  The solve keeps the
    # unscaled classes and verdicts; the estimate is refused at the ray,
    # where H leaves the double range.
    H = list(itertools.islice(_random_polynomials(20260810), 2))[1]
    spec = ProblemSpec(H=H, beta=F(1, 2), direction=Direction.from_string("2:1"))
    tiny = F(1, 10**300)
    scaled = dataclasses.replace(spec, H=_rescaled(H, tiny, tiny))
    with working_precision(DEFAULT_PRECISION):
        assert _dominant(scaled) == _dominant(spec)
        with pytest.raises(EvaluationOverflow, match="on the ray"):
            estimate_target(scaled, run_solve(scaled), 80, 40)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--precision", type=int, default=DEFAULT_PRECISION, help="significand bits")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as folder:
        files = check_problem_files(folder, args.precision)
    with working_precision(args.precision):
        family = check_family()
        runs, untyped = scan_extremes()
    print(f"{files} rescaled compare runs, {family} rescaled solves match at {args.precision} bits")
    for item in untyped:
        print("untyped:", *item)
    print(f"{runs} runs at factors 10^+-200 and 10^+-300, {len(untyped)} untyped exceptions")
    return 1 if untyped else 0


if __name__ == "__main__":
    sys.exit(main())
