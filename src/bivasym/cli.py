"""Command line front end: solve, estimate, oracle, compare.

Exit codes: 0 success, 2 no valid critical point, 64 problem-file or usage
error, 65 configuration error, 70 internal numerical failure (among them
``oracle --quadrature`` on radii whose powers leave the double range).  All
file output is deterministic (sorted keys, fixed formats, LF endings).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np
from mpmath import mp

from .critical import CriticalPoint, noise_floor, snap_noise
from .errors import (
    BivasymError,
    ConfigError,
    HypothesisFailure,
    SpecFileError,
)
from .estimates import AsymptoticEstimate
from .oracle import (
    OracleConfig,
    coeff_recurrence,
    coefficients_at,
    exact_log10_abs,
    exact_value,
    format_entry,
    quadrature_values,
    table_to_csv,
)
from .pipeline import estimate_target, run_solve
from .precision import MIN_PRECISION, get_precision, working_precision
from .problem import ProblemSpec, dump_problem, parse_problem

EXIT_OK = 0
EXIT_NO_CRITICAL_POINT = 2
EXIT_PARSE = 64
EXIT_CONFIG = 65
EXIT_NUMERICAL = 70

_NO_USABLE_POINT = "no smooth, probably strictly minimal point on the dominant torus\n"


def _precision_bits(text: str) -> int:
    bits = int(text)
    if bits < MIN_PRECISION:
        raise argparse.ArgumentTypeError(f"need at least {MIN_PRECISION} bits, got {bits}")
    return bits


@lru_cache(maxsize=1)  # built once per process; argparse finds sys.stdout when it prints
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bivasym",
        description=(
            "Coefficient asymptotics of bivariate G*H^(-beta) generating "
            "functions, with exact and numeric coefficient oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "find and classify critical points"),
        ("estimate", "asymptotic estimates at the targets"),
        ("oracle", "exact coefficient table export"),
        ("compare", "estimate vs exact comparison table"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--spec", required=True, help="problem JSON file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--precision", type=_precision_bits, help="significand bits")
        if name == "oracle":
            p.add_argument(
                "--quadrature", action="store_true", help="add numeric quadrature columns"
            )
        p.add_argument(
            "--dump-spec",
            action="store_true",
            help="print the canonical form of the problem file and exit",
        )
    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text, newline="\n")
    else:
        sys.stdout.write(text)


def _load_spec(args) -> ProblemSpec:
    try:
        text = Path(args.spec).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"cannot read {args.spec}: {exc}") from exc
    return parse_problem(text)


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _digits(x) -> str:
    """17 significant digits of a real mpmath value; -inf prints as "-inf"."""
    return mp.nstr(x, 17)


def _complex_doc(z) -> dict:
    """Both parts in 17 digits; a part below the noise floor prints as 0.0."""
    z = snap_noise(z)
    return {"re": _digits(z.real), "im": _digits(z.imag)}


def _residual(r: float) -> str:
    """A relative residual in 3 digits; at or below the noise floor, 0.000e+00."""
    return f"{0.0 if r <= noise_floor() else r:.3e}"


def report_critical_points(points: Sequence[CriticalPoint]) -> dict:
    """JSON-ready report of coordinates (17 digits), residuals, verdicts."""
    out = []
    for pt in points:
        entry = {
            "p": _complex_doc(pt.p),
            "q": _complex_doc(pt.q),
            "residual_h": _residual(pt.residual_h),
            "residual_direction": _residual(pt.residual_dir),
            "smooth": pt.smooth,
            "minimality": pt.minimality,
            "torus_class": pt.torus_class,
        }
        if pt.witness is not None:
            entry["witness"] = {
                name: {"re": f"{w.real:.17g}", "im": f"{w.imag:.17g}"}
                for name, w in zip("xy", pt.witness)
            }
        out.append(entry)
    return {"critical_points": out}


def report_estimate(est: AsymptoticEstimate) -> dict:
    """JSON-ready estimate report (17-digit value plus log-modulus form)."""
    return {
        "r": est.r,
        "s": est.s,
        "formula": est.formula,
        "value": _complex_doc(est.value),
        "log10_modulus": _digits(est.log10_modulus),
        "argument": f"{est.argument:.17g}",
        "warnings": list(est.warnings),
        "contributions": [
            {
                "log10_modulus": _digits(c["log10_modulus"]),
                "argument": _digits(c["argument"]),
                "winding": c["winding"],
                "branch_value": _complex_doc(c["branch_value"]),
                "point": {"p": _complex_doc(c["point"][0]), "q": _complex_doc(c["point"][1])},
            }
            for c in est.contributions
        ],
    }


def cmd_solve(spec: ProblemSpec, args) -> int:
    outcome = run_solve(spec)
    doc = report_critical_points(outcome.points)
    doc["torus_classes"] = [
        {
            "index": cl.index,
            "modulus_p": f"{cl.modulus_p:.17g}",
            "modulus_q": f"{cl.modulus_q:.17g}",
            "dominant": cl.dominant,
            "size": len(cl.points),
        }
        for cl in outcome.classes
    ]
    _emit(_json_doc(doc), args.out)
    return EXIT_OK if outcome.has_usable_point() else EXIT_NO_CRITICAL_POINT


def cmd_estimate(spec: ProblemSpec, args) -> int:
    outcome = run_solve(spec)
    if not outcome.has_usable_point():
        sys.stderr.write(_NO_USABLE_POINT)
        return EXIT_NO_CRITICAL_POINT
    reports = [
        report_estimate(estimate_target(spec, outcome, r, s))
        for r, s in spec.targets
    ]
    _emit(_json_doc({"estimates": reports}), args.out)
    return EXIT_OK


def _quadrature_config(spec: ProblemSpec, box) -> OracleConfig:
    radii = spec.quadrature_radii
    if radii is None:
        outcome = run_solve(spec, probe=False)
        if outcome.dominant is None:
            raise ConfigError(
                "no quadrature radii given and no critical points to derive them from"
            )
        radii = (0.5 * outcome.dominant.modulus_p, 0.5 * outcome.dominant.modulus_q)
    return OracleConfig(box=box, beta=spec.beta, quadrature_radii=radii)


def cmd_oracle(spec: ProblemSpec, args) -> int:
    box = spec.effective_box()
    table = coeff_recurrence(spec.H, spec.G, spec.beta, box)
    if not args.quadrature:
        _emit(table_to_csv(table), args.out)
        return EXIT_OK
    cfg = _quadrature_config(spec, box)
    numeric = quadrature_values(spec.H, spec.G, spec.beta, cfg)
    lines = [
        f"# prefactor: {table.prefactor}",
        "r,s,numerator,denominator,value,quad_real,quad_imag,quad_error",
    ]
    worst = 0.0
    # One pass over both tables, in the same row order.
    for (r, s, cells, v), (_, _, quad, z) in zip(table.csv_cells(), numeric.csv_cells()):
        lines.append(f"{r},{s},{cells},{quad}")
        exact = complex(v)
        if exact:
            worst = max(worst, abs(z - exact) / abs(exact))
    lines.append(f"# max_relative_discrepancy: {worst:.3e}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_compare(spec: ProblemSpec, args) -> int:
    box = spec.effective_box()
    for r, s in spec.targets:
        if r > box[0] or s > box[1]:
            raise ConfigError(f"oracle box {box} too small for target ({r},{s})")
    outcome = run_solve(spec)
    if not outcome.has_usable_point():
        sys.stderr.write(_NO_USABLE_POINT)
        return EXIT_NO_CRITICAL_POINT
    values, prefactor = coefficients_at(spec.H, spec.G, spec.beta, spec.targets)
    lines = ["r,s,estimate_log10,estimate,exact_log10,exact,ratio"]
    ln10 = mp.log(10)
    for k, (r, s) in enumerate(spec.targets):
        c = values.value(k)  # rounded once from its numerator and scale, with no gcd
        exact_log10 = exact_log10_abs(c, prefactor)
        exact = f"{_digits(exact_log10)},{format_entry(exact_value(c, prefactor))}"
        if r == 0 or s == 0:
            lines.append(f"{r},{s},n/a,n/a,{exact},n/a")
            continue
        est = estimate_target(spec, outcome, r, s)
        ratio = mp.exp((est.log10_modulus - exact_log10) * ln10)
        lines.append(
            f"{r},{s},{_digits(est.log10_modulus)},{_digits(abs(est.value))},"
            f"{exact},{_digits(ratio)}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "estimate": cmd_estimate,
    "oracle": cmd_oracle,
    "compare": cmd_compare,
}


@contextmanager
def _any_int_length():
    """Lift Python's cap on the digits of ``str(int)`` (4,300 by default) for one call.

    An exact table entry can have more: ``beyond_double_point``'s 40x40
    table has denominators of 8,000 digits.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_PARSE if exc.code else EXIT_OK
    bits = get_precision() if args.precision is None else args.precision
    try:
        # The precision holds for this call only, not for the caller's process.
        with working_precision(bits), _any_int_length():
            spec = _load_spec(args)
            if args.dump_spec:
                _emit(dump_problem(spec), args.out)
                return EXIT_OK
            return _COMMANDS[args.command](spec, args)
    except SpecFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except HypothesisFailure as exc:
        sys.stderr.write(f"error: hypothesis '{exc.name}' failed: {exc}\n")
        return EXIT_NUMERICAL
    except BivasymError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:
        sys.stderr.write(f"error: linear algebra failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
