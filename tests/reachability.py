"""Library functions that no command, sweep, script or bench pass calls.

From the repository root:

    PYTHONPATH=src python -m tests.reachability

With ``sys.setprofile`` it records every function of ``src/bivasym`` that
is called while it runs:

- every CLI command (``solve``, ``estimate``, ``compare``, ``oracle`` and
  ``oracle --quadrature``) on every problem file, in this process, and
  every command on ``color_swap`` once more at ``--precision 64`` and
  once more with H multiplied by 4, a positive H(0,0) other than 1, which
  no problem file has (both ``oracle`` modes on ``beyond_double_point``
  are skipped for time: its exact table takes 9 s and reaches no function
  that the other files do not);
- the 192 pairs of the family sweep (``tests/test_family_sweep.py``)
  through ``pipeline``;
- both experiment scripts, with small arguments;
- one untraced pass over the items of each bench workload.

It then prints each function defined in the package that was never
called, with its line count (decorators and docstring included), and
exits 1 when one of them is neither public (a name that ``bivasym``
exports, or a method of an exported class, such as an error's
``__init__``) nor in ``ALLOWED``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import bivasym

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bivasym"
COMMANDS = (["solve"], ["estimate"], ["compare"], ["oracle"], ["oracle", "--quadrature"])

# Unreached by the runs above and not public, each for a stated reason.
ALLOWED = {
    "aberth._pair_sum": "Aberth's fallback start; tests/test_aberth.py reaches it",
    "aberth._start_points": "Aberth's fallback start; tests/test_aberth.py reaches it",
    "oracle._inexact": "the row kernel's refusal of an inexact division, which no exact table takes",
    "critical.eliminant": "the tests' entry to the solve's eliminant",
    "series.ScaledRow.__eq__": "a row of TruncatedSeries.coeffs; the tests compare rows",
    "series.ScaledRow.__len__": "a row of TruncatedSeries.coeffs; the tests take its length",
    "unipoly.gcd": "bench/tracing.py reads it",
    "unipoly.derivative": "bench/tracing.py reads it",
}


def definitions():
    """``{(file, first line): (name, lines)}`` of every function defined in the package.

    ``name`` is ``module.qualname``; the first line is that of the first
    decorator, as a code object's ``co_firstlineno`` gives it.
    """
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = (prefix + child.name, child.end_lineno - first + 1)
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), path.stem + ".")
    return out


def is_public(name: str) -> bool:
    """An exported name, a method of an exported class, or the package's own export machinery."""
    module, top = name.split(".")[:2]
    return module == "__init__" or bivasym._HOME.get(top) == module


def _quiet(call, *args):
    """``call(*args)`` with its output discarded; a refusal is an outcome, not a failure."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            call(*args)
        except SystemExit:
            pass


def exercise():
    """The runs whose calls count as reached."""
    from bivasym.cli import main

    problems = sorted((ROOT / "problems").glob("*.json"))
    for spec in problems:
        for command in COMMANDS:
            if not (command[0] == "oracle" and spec.stem == "beyond_double_point"):
                _quiet(main, [*command, "--spec", str(spec)])
    color_swap = ROOT / "problems" / "color_swap.json"
    for command in COMMANDS:
        _quiet(main, [*command, "--spec", str(color_swap), "--precision", "64"])
    spec = json.loads(color_swap.read_text())
    spec["H"] = [[i, j, str(4 * Fraction(c))] for i, j, c in spec["H"]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "color_swap_times_4.json"
        path.write_text(json.dumps(spec))
        for command in COMMANDS:
            _quiet(main, [*command, "--spec", str(path)])

    from tests.test_family_sweep import sweep

    sweep()

    for script, args in (("convergence_study.py", ["25", "50"]), ("direction_sweep.py", ["20"])):
        argv = sys.argv
        sys.argv = [script, *args]
        try:
            _quiet(runpy.run_path, str(ROOT / "scripts" / script), None, "__main__")
        finally:
            sys.argv = argv

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for make in workloads.WORKLOADS.values():
        for item in make(ROOT, 1).items:
            _quiet(item.run)


def main() -> int:
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        exercise()
    finally:
        sys.setprofile(None)
    reached = {(code.co_filename, code.co_firstlineno) for code in called}
    unreached = sorted(v for k, v in definitions().items() if k not in reached)
    failing = [name for name, _ in unreached if not (is_public(name) or name in ALLOWED)]
    for name, lines in unreached:
        tag = "public" if is_public(name) else ALLOWED.get(name, "NOT REACHED")
        print(f"{lines:4d}  {name}  ({tag})")
    total = sum(lines for _, lines in unreached)
    print(f"{len(unreached)} functions ({total} lines) never called; {len(failing)} neither public nor allowed")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
