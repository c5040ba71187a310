"""Byte-for-byte CLI outputs on the regression problems.

The files under ``tests/data/golden`` are the stdout of
``bivasym <command> --spec problems/<problem>.json`` at the default
precision; ``solve``, ``estimate`` and ``compare`` must print the same at
``--precision 64`` and ``256`` (the rescaled multinomials' ``estimate``
and ``compare`` at 256 only).  Nothing below working precision is printed: a real or
imaginary part at most ``2^-(prec-8)`` times the modulus of its number,
and a relative residual at most ``2^-(prec-8)``, print as zero
(``critical.noise_floor``).  ``solve_critical`` also snaps such parts of
each point to exact zero, so the sign of the noise cannot reorder points.
A change meant to keep behaviour must leave them unchanged; a
change meant to move them regenerates them with

    for p in color_swap multinomial_sqrt branch_wrap far_point negative_origin \
        beyond_double_point large_coefficients scaled_multinomial lattice_orbits; do
      for c in solve estimate compare; do
        bivasym $c --spec problems/$p.json > tests/data/golden/$p.$c.out
      done
    done
    for p in negative_origin color_swap; do
      bivasym oracle --spec problems/$p.json > tests/data/golden/$p.oracle.out
    done
    bivasym solve --spec problems/origin_zero_inside.json \
      > tests/data/golden/origin_zero_inside.solve.out

and says why in its description.  ``far_point`` has a critical point near
(6.7e39, -2.2e39), and ``beyond_double_point`` one near (6.7e399,
-2.2e399), whose moduli have no double value and print as ``inf``;
``negative_origin`` has a negative ``H(0, 0)``.  ``scaled_multinomial``
and ``large_coefficients`` (with ``G = x``) are ``1 - x - y`` with x and
y in units of 10^7 and 10^-7, refused before every zero test judged a
value against its own magnitude at the point.  ``lattice_orbits`` has a
periodic support: its 8 dominant points form 2 orbits of 4 under the
characters (+-1, +-1) of its exponent lattice 2Z x 2Z.  ``origin_zero_inside`` is refused (exit
2), and its report shows the witness of the refusal.  The ``oracle`` goldens print every entry
of the exact table (numerator, denominator and value): ``negative_origin``
carries a symbolic complex prefactor and ``color_swap`` a numerator ``G``.
"""

import json
from pathlib import Path

import pytest

from bivasym.cli import main
from bivasym.precision import DEFAULT_PRECISION, working_precision

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"


# The default precision, then each other precision the console-script
# check diffs against the same goldens.
CLI_CASES = [
    (problem, command, bits)
    for bits in (None, 64, 256)
    for problem in (
        "beyond_double_point",
        "branch_wrap",
        "color_swap",
        "far_point",
        "multinomial_sqrt",
        "negative_origin",
    )
    for command in ("compare", "estimate", "solve")
]
# The rescaled multinomials' estimates lie near 1e-539 and 1e574, and
# lattice_orbits' (80, 80) estimate near 1.5e18, whose 17th digit a 64-bit
# log-space sum does not hold: their estimate and compare are pinned at
# the default precision and 256 bits.
CLI_CASES += [
    (problem, command, bits)
    for bits in (None, 64, 256)
    for problem in ("large_coefficients", "lattice_orbits", "scaled_multinomial")
    for command in ("compare", "estimate", "solve")
    if bits != 64 or command == "solve"
]


@pytest.mark.parametrize(
    "problem, command, bits",
    CLI_CASES,
    ids=["-".join(str(v) for v in case if v is not None) for case in CLI_CASES],
)
def test_cli_output_unchanged(capsys, problem, command, bits):
    args = [command, "--spec", str(ROOT / "problems" / f"{problem}.json")]
    with working_precision(DEFAULT_PRECISION):
        code = main(args if bits is None else args + ["--precision", str(bits)])
    assert code == 0
    expected = (GOLDEN / f"{problem}.{command}.out").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("problem", ["negative_origin", "color_swap"])
def test_oracle_table_unchanged(capsys, problem):
    with working_precision(DEFAULT_PRECISION):
        code = main(["oracle", "--spec", str(ROOT / "problems" / f"{problem}.json")])
    assert code == 0
    expected = (GOLDEN / f"{problem}.oracle.out").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_refused_solve_report_unchanged(capsys, bits):
    spec = str(ROOT / "problems" / "origin_zero_inside.json")
    assert main(["solve", "--spec", spec, "--precision", str(bits)]) == 2
    expected = (GOLDEN / "origin_zero_inside.solve.out").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("problem", ["branch_wrap", "axis_point"])
def test_real_total_prints_argument_zero(capsys, problem, bits):
    # branch_wrap sums two conjugate contributions and axis_point has one
    # contribution of argument -2*pi*n: each total is real, and the noise
    # its sum leaves below working precision is not printed as an argument.
    spec = str(ROOT / "problems" / f"{problem}.json")
    code = main(["estimate", "--spec", spec, "--precision", str(bits)])
    assert code == 0
    estimates = json.loads(capsys.readouterr().out)["estimates"]
    assert estimates and [e["argument"] for e in estimates] == ["0"] * len(estimates)


@pytest.mark.parametrize("problem", sorted(p.stem for p in (ROOT / "problems").glob("*.json")))
def test_solve_report_is_the_same_at_every_precision(capsys, problem):
    # far_point has a critical point near (6.7e39, -2.2e39) that the solve
    # once dropped at 64 and 128 bits: a top coefficient was judged against
    # the largest coefficient, not against its own scale.
    spec = str(ROOT / "problems" / f"{problem}.json")
    runs = []
    for bits in (64, 128, 256):
        code = main(["solve", "--spec", spec, "--precision", str(bits)])
        runs.append((code, capsys.readouterr().out))
    assert runs[1] == runs[0] and runs[2] == runs[0]
