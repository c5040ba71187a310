"""The README's library quick start runs as printed."""

from pathlib import Path

from mpmath import mpf

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The first ``python`` block after the "Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_a_real_ratio(capsys):
    names = {}
    exec(compile(_quick_start(), "README.md", "exec"), names)
    est = names["est"]
    assert est.formula == "general" and isinstance(est.value, mpf)
    formula, ratio = capsys.readouterr().out.split()
    assert formula == "general" and ratio.startswith("1.00187675")
