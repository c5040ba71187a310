"""The package resolves each export from its home module on first use.

An oracle-only caller (``import bivasym.oracle, bivasym.problem``, then the
recurrence and the quadrature) must load no solve-layer module and no
``numpy.polynomial``: without a bytecode cache every module loaded is
compiled afresh in each process.  Run as a script, this prints the package
modules that such a caller loads and their summed line count, and exits 1
when a solve-layer module or ``numpy.polynomial`` is among them:

    PYTHONPATH=src python -m tests.test_package_exports
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bivasym

ROOT = Path(__file__).resolve().parent.parent
SOLVE_LAYER = ("aberth", "cli", "critical", "estimates", "gammafn", "lattice", "pipeline", "resultant")

ORACLE_ONLY = """
import json, sys
from pathlib import Path
import bivasym.oracle, bivasym.problem
spec = bivasym.problem.parse_problem(Path(sys.argv[1]).read_text())
bivasym.oracle.coeff_recurrence(spec.H, spec.G, spec.beta, (20, 10))
cfg = bivasym.oracle.OracleConfig(
    box=(10, 10), beta=spec.beta, quadrature_radii=spec.quadrature_radii, quadrature_grid=(64, 64)
)
bivasym.oracle.quadrature_values(spec.H, spec.G, spec.beta, cfg)
print(json.dumps({m: getattr(sys.modules[m], "__file__", None) for m in sorted(sys.modules)
                  if m.startswith(("bivasym", "numpy.polynomial"))}))
"""


def _fresh(code: str, *argv: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
    )
    return run.stdout


def oracle_only_modules() -> dict:
    """Name -> file of each bivasym and numpy.polynomial module an oracle-only caller loads."""
    return json.loads(_fresh(ORACLE_ONLY, str(ROOT / "problems" / "color_swap.json")))


def unwanted(modules) -> list:
    solve = {f"bivasym.{name}" for name in SOLVE_LAYER}
    return [m for m in modules if m in solve or m.startswith("numpy.polynomial")]


def test_every_export_is_its_home_modules_object():
    for name in bivasym.__all__:
        home = importlib.import_module(f"bivasym.{bivasym._HOME[name]}")
        assert getattr(bivasym, name) is getattr(home, name)
    assert set(bivasym.__all__) <= set(dir(bivasym))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from bivasym import *", namespace)
    assert set(bivasym.__all__) <= set(namespace)
    assert namespace["coeff_recurrence"] is bivasym.oracle.coeff_recurrence


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bivasym.no_such_name
    with pytest.raises(ImportError):
        exec("from bivasym import no_such_name", {})


def test_submodules_still_import_by_name():
    from bivasym import critical, problem

    assert critical is sys.modules["bivasym.critical"]
    assert critical.Direction is problem.Direction is bivasym.Direction


def test_import_alone_sets_the_default_precision():
    assert _fresh("import bivasym\nfrom mpmath import mp\nprint(mp.prec)").strip() == "128"


def test_oracle_only_caller_loads_no_solve_layer():
    modules = oracle_only_modules()
    assert "bivasym.oracle" in modules and "bivasym.problem" in modules
    assert unwanted(modules) == []


def test_cli_loads_every_module_the_bench_tracer_wraps():
    code = (
        "import sys\nimport bivasym.cli\nloaded = set(sys.modules)\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\nfrom tracing import WRAPS\n"
        "print(sorted({module for module, *_ in WRAPS} - loaded))"
    )
    assert _fresh(code).strip() == "[]"


def main() -> int:
    modules = oracle_only_modules()
    package = {m: f for m, f in modules.items() if m.startswith("bivasym")}
    lines = sum(len(Path(f).read_text().splitlines()) for f in package.values())
    print("modules loaded by import bivasym.oracle, bivasym.problem:", " ".join(package))
    print(f"their source: {lines} lines")
    bad = unwanted(modules)
    if bad:
        print("solve layer or numpy.polynomial loaded:", " ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
