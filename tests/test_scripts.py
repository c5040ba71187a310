"""Smoke runs of the experiment scripts with small arguments."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, args, header, rows",
    [
        ("direction_sweep", ["20"], "direction,p,q,minimality,target_r,target_s,estimate", 6),
        ("convergence_study", ["25", "50"], "r,estimate,exact,ratio", 2),
    ],
    ids=["direction_sweep", "convergence_study"],
)
def test_script_csv(capsys, name, args, header, rows):
    assert _load(name).main([f"{name}.py", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
    assert not any("error" in line for line in lines)
