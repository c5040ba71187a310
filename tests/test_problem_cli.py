import contextlib
import dataclasses
import io
import json
import math
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivasym import dump_problem, get_precision, parse_problem, solve_critical
from bivasym import cli
from bivasym.cli import _build_parser, main
from bivasym.errors import SpecFileError
from bivasym.oracle import coeff_recurrence, format_entry
from bivasym.precision import DEFAULT_PRECISION, working_precision

MULTINOMIAL = """{
  "H": [[0, 0, "1"], [1, 0, "-1"], [0, 1, "-1"]],
  "beta": "1/2",
  "direction": "1:1",
  "targets": [[12, 12]],
  "oracle_box": [12, 12],
  "quadrature": {"radii": [0.3, 0.3]}
}
"""

COLOR_SWAP = """{
  "H": [[0, 0, "1"], [1, 0, "-2"], [1, 1, "-2"], [2, 0, "-1"], [2, 1, "2"], [2, 2, "-1"]],
  "G": [[0, 0, "1"], [1, 0, "-1"], [1, 1, "-1"]],
  "beta": "1/2",
  "direction": "2:1",
  "targets": [[10, 5]],
  "oracle_box": [10, 5],
  "quadrature": {"radii": [0.2, 0.8]}
}
"""


@pytest.fixture
def multinomial_spec_file(tmp_path):
    path = tmp_path / "multinomial.json"
    path.write_text(MULTINOMIAL)
    return path


@pytest.fixture
def color_swap_spec_file(tmp_path):
    path = tmp_path / "color_swap.json"
    path.write_text(COLOR_SWAP)
    return path


# ----------------------------------------------------------------------
# Problem files
# ----------------------------------------------------------------------


def test_parse_basic():
    spec = parse_problem(MULTINOMIAL)
    assert spec.beta == F(1, 2)
    assert spec.direction.r0 == 1 and spec.direction.s0 == 1
    assert spec.targets == [(12, 12)]
    assert spec.H.coefficient(1, 0) == -1
    assert spec.quadrature_radii == (0.3, 0.3)


def test_round_trip_identity():
    spec = parse_problem(COLOR_SWAP)
    dumped = dump_problem(spec)
    again = parse_problem(dumped)
    assert again == spec
    assert dump_problem(again) == dumped


def test_parse_error_has_location():
    with pytest.raises(SpecFileError) as info:
        parse_problem('{"H": [[0, 0, "1"],\n  broken\n}')
    assert info.value.line == 2
    assert "line 2" in str(info.value)


def test_decimal_beta_is_exact():
    spec = parse_problem(MULTINOMIAL.replace('"1/2"', '"0.5"'))
    assert spec.beta == F(1, 2)


def test_zero_constant_term_rejected():
    bad = MULTINOMIAL.replace('[0, 0, "1"], ', "")
    with pytest.raises(SpecFileError):
        parse_problem(bad)


def test_constant_h_rejected():
    bad = json.dumps(
        {"H": [[0, 0, "2"]], "beta": "1/2", "direction": "1:1", "targets": []}
    )
    with pytest.raises(SpecFileError):
        parse_problem(bad)


def test_float_coefficient_rejected():
    with pytest.raises(SpecFileError):
        parse_problem('{"H": [[0, 0, "1"], [1, 0, 0.5]], "beta": "1/2", "direction": "1:1"}')


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_solve_exit_zero_and_report(multinomial_spec_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["solve", "--spec", str(multinomial_spec_file), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    pt = doc["critical_points"][0]
    assert pt["minimality"] == "probably_strictly_minimal"
    assert pt["smooth"] is True
    assert float(pt["p"]["re"]) == pytest.approx(0.5, abs=1e-15)


def test_solve_exit_two_without_minimal_point(tmp_path):
    # (1-2x)(1-2y): the lone candidate is non-smooth and non-minimal.
    spec = {
        "H": [[0, 0, "1"], [1, 0, "-2"], [0, 1, "-2"], [1, 1, "4"]],
        "beta": "1/2",
        "direction": "1:1",
        "targets": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["solve", "--spec", str(path)]) == 2


# H whose dominant class (direction 1:1) the minimality probe rejects.
# Estimating from it anyway is 5 orders of magnitude off for the first
# (a criterion-4 random polynomial) and a hypothesis failure for the second.
REJECTED_CLASSES = {
    "one_plus_y_family": [[0, 0, "1"], [0, 1, "3/2"], [0, 2, "-1"], [2, 2, "2/3"]],
    "violated_lowest_class": [[0, 0, "1"], [0, 2, "-1"], [3, 0, "1/3"], [3, 1, "-2"]],
}


@pytest.mark.parametrize("command", ["solve", "estimate", "compare"])
@pytest.mark.parametrize("name", sorted(REJECTED_CLASSES))
def test_rejected_class_exit_two(tmp_path, capsys, name, command):
    spec = {
        "H": REJECTED_CLASSES[name],
        "beta": "1/2",
        "direction": "1:1",
        "targets": [[40, 40]],
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    assert main([command, "--spec", str(path)]) == 2
    if command != "solve":
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["estimate", "compare"])
def test_g_vanishing_at_point_exit_70(capsys, command):
    # G = 1 - 2x is zero at the critical point (1/2, 1/2) of 1 - x - y, so
    # the leading term is 0 while [x^50 y^50] is about -2.86e25.
    path = Path(__file__).resolve().parent.parent / "problems" / "g_vanishes.json"
    spec = parse_problem(path.read_text())
    assert coeff_recurrence(spec.H, spec.G, spec.beta, (50, 50)).value(50, 50) < -1e25
    assert main([command, "--spec", str(path)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "G_nonzero_at_point" in captured.err


def test_axis_point_never_dominates(capsys):
    # (0, 1) solves the critical system of H = x + (1-y)^2 at 1:1.  Its
    # direction weight log|p| + log|q| is -inf, which once made it tie with
    # every other class, so compare refused with exit 65.  It stays a
    # solution, but the estimate comes from (-4/9, 1/3).
    path = Path(__file__).resolve().parent.parent / "problems" / "axis_point.json"
    spec = parse_problem(path.read_text())
    points = solve_critical(spec.H, spec.direction)
    assert any(abs(pt.p) < 1e-30 and abs(pt.q - 1) < 1e-30 for pt in points)
    assert main(["compare", "--spec", str(path)]) == 0
    r, s, *_, ratio = capsys.readouterr().out.splitlines()[-1].split(",")
    assert (r, s) == ("80", "80")
    assert abs(float(ratio) - 1) < 0.01


def test_origin_zero_inside_is_refused(capsys):
    # H = 1 + 3y - x y^2 + x^2 y/2 at 2:1: the dominant points have
    # |p| = |q| = sqrt(2), and H(0, -1/3) = 0 puts (0, -1/3) of the zero set
    # inside their polydisk.  [x^2k y^k] decays like exp(-0.73 k), not like
    # the exp(-3k log sqrt 2) = exp(-1.04 k) an estimate from them would give.
    path = Path(__file__).resolve().parent.parent / "problems" / "origin_zero_inside.json"
    spec = parse_problem(path.read_text())
    exact = coeff_recurrence(spec.H, spec.G, spec.beta, (160, 80)).value(160, 80)
    rate = math.log(abs(exact)) / 80
    assert -0.75 < rate < -0.7
    assert main(["solve", "--spec", str(path)]) == 2
    points = json.loads(capsys.readouterr().out)["critical_points"]
    assert len(points) == 2
    for pt in points:
        p, q = (complex(float(pt[c]["re"]), float(pt[c]["im"])) for c in "pq")
        assert rate + 2 * math.log(abs(p)) + math.log(abs(q)) > 0.3
        assert pt["minimality"] == "violated"
        assert complex(float(pt["witness"]["x"]["re"]), float(pt["witness"]["x"]["im"])) == 0
        assert float(pt["witness"]["y"]["re"]) == -1 / 3 and float(pt["witness"]["y"]["im"]) == 0
    assert main(["compare", "--spec", str(path)]) == 2
    assert capsys.readouterr().out == ""


# H = 1 + x + y + x^2 + y^2 - 2x^3y - 2xy^3 is symmetric in x and y: at 1:1
# its dominant torus (0.260885, 1.30431) and the swapped one tie in weight,
# and one estimate cannot combine two tori.
TIED_TORI = {
    "H": [[0, 0, "1"], [1, 0, "1"], [0, 1, "1"], [2, 0, "1"], [0, 2, "1"], [3, 1, "-2"], [1, 3, "-2"]],
    "beta": "1/2",
    "direction": "1:1",
    "targets": [[40, 40]],
}


@pytest.mark.parametrize("bits", ["64", "128", "256"])
@pytest.mark.parametrize("command", ["solve", "estimate", "compare"])
def test_tied_tori_exit_65(tmp_path, capsys, command, bits):
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(TIED_TORI))
    assert main([command, "--spec", str(path), "--precision", bits]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: two torus classes share the dominant direction weight "
        "(0.260885,1.30431) vs (1.30431,0.260885); cannot combine distinct tori in one estimate\n"
    )


NEGATIVE_ORIGIN = Path(__file__).resolve().parent.parent / "problems" / "negative_origin.json"


def test_one_process_runs_several_commands_on_one_parser(capsys):
    """A usage error, --help, then a good compare: the parser is built once and reused."""
    assert main(["frobnicate"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: bivasym")
    assert "invalid choice: 'frobnicate'" in captured.err
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: bivasym") and captured.err == ""
    with working_precision(DEFAULT_PRECISION):
        assert main(["compare", "--spec", str(NEGATIVE_ORIGIN)]) == 0
    golden = Path(__file__).resolve().parent / "data" / "golden" / "negative_origin.compare.out"
    assert capsys.readouterr() == (golden.read_text(), "")
    assert _build_parser() is _build_parser()


def test_negative_origin_compare_prints_complex_exact(capsys):
    # H = -1 + x + y with beta = 1/2: the prefactor (-1)^(-1/2) makes every
    # exact entry complex, which once crashed compare with a TypeError.
    assert main(["compare", "--spec", str(NEGATIVE_ORIGIN)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    spec = parse_problem(NEGATIVE_ORIGIN.read_text())
    table = coeff_recurrence(spec.H, spec.G, spec.beta, spec.effective_box())
    assert [(int(r), int(s)) for r, s, *_ in rows] == [(10, 10), (20, 20)]
    for r, s, _, _, _, exact, _ in rows:
        assert exact == format_entry(table.value(int(r), int(s)))
        assert exact.endswith("j")
    assert abs(float(rows[1][-1]) - 1) < 0.02  # 1.0094 at (20, 20)


@pytest.mark.parametrize(
    "turn, estimate, ratios",
    [
        (-1, "0.0+23601.252038268841j", ["-1.0189209310928685", "-1.0094183441510678"]),
        (1j, "23601.252038268841", ["0.0+1.0189209310928685j", "0.0+1.0094183441510678j"]),
    ],
)
def test_compare_ratio_carries_the_phase_of_the_estimate(capsys, monkeypatch, turn, estimate, ratios):
    # An estimate turned away from the exact value's phase prints turned,
    # and so does its ratio: a modulus ratio alone would read 1.0189 and
    # 1.0094 for every turn.
    estimate_target = cli.estimate_target

    def turned(*args):
        est = estimate_target(*args)
        return dataclasses.replace(est, value=est.value * turn)

    monkeypatch.setattr(cli, "estimate_target", turned)
    assert main(["compare", "--spec", str(NEGATIVE_ORIGIN)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows[0][3] == estimate
    assert [row[-1] for row in rows] == ratios


def test_negative_origin_exact_entries_parse_as_complex(capsys):
    # The prefactor (-1)^(-1/2) is exactly -1j, so every exact entry is
    # purely imaginary and prints its sign once: "0.0-12258399404.308869j".
    assert main(["oracle", "--spec", str(NEGATIVE_ORIGIN)]) == 0
    lines = capsys.readouterr().out.splitlines()
    values = [line.split(",")[4] for line in lines[2:]]
    assert main(["compare", "--spec", str(NEGATIVE_ORIGIN)]) == 0
    values += [line.split(",")[5] for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(values) == 21 * 21 + 2
    for text in values:
        z = complex(text)
        assert z.real == 0 and z.imag < 0, text


def test_negative_origin_oracle_quadrature(capsys):
    assert main(["oracle", "--spec", str(NEGATIVE_ORIGIN), "--quadrature"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# prefactor: (-1)^(-1/2)"
    assert len(lines) == 2 + 21 * 21 + 1
    assert float(lines[-1].split(":")[1]) < 1e-3


def test_parse_error_exit_64(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--spec", str(path)]) == 64
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_constant_h_exit_64(tmp_path):
    path = tmp_path / "const.json"
    path.write_text(
        json.dumps({"H": [[0, 0, "2"]], "beta": "1/2", "direction": "1:1"})
    )
    assert main(["solve", "--spec", str(path)]) == 64


@pytest.mark.parametrize(
    "key, value",
    [
        ("tolerances", {"merge": 1e-8}),
        ("probe_grid", {"angles": 512}),
        ("winding_steps", 2048),
    ],
)
def test_unknown_field_exit_64(tmp_path, capsys, key, value):
    spec = json.loads(MULTINOMIAL)
    spec[key] = value
    path = tmp_path / "knob.json"
    path.write_text(json.dumps(spec))
    assert main(["solve", "--spec", str(path)]) == 64
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "compare", "oracle"])
@pytest.mark.parametrize(
    "key, value, named",
    [
        ("quadrature", 5, "quadrature"),
        ("quadrature", {"radii": [0.3]}, "quadrature"),
        ("quadrature", {"radii": ["a", 1]}, "quadrature"),
        ("quadrature", {"radii": [0.3, 0.3], "grid": [64, 64]}, "'grid'"),
        ("targets", [[1]], "targets"),
        ("targets", 5, "targets"),
        ("beta", 0.5, "beta"),
        ("beta", "abc", "beta"),
        ("direction", 5, "direction"),
        ("direction", "0:1", "direction"),
        ("oracle_box", [1, 2, 3], "oracle_box"),
    ],
)
def test_bad_field_value_exit_64(tmp_path, capsys, command, key, value, named):
    spec = json.loads(MULTINOMIAL)
    spec[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main([command, "--spec", str(path)]) == 64
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["estimate", "--spec", "{spec}", "--grid", "64"],
        ["solve", "--spec", "{spec}", "--quadrature"],
        ["solve", "--spec", "{spec}", "--precision", "8"],
        ["solve", "--spec", "{spec}", "--precision", "-5"],
        ["solve", "--spec", "{spec}", "--precision", "0"],
    ],
)
def test_usage_error_exit_64(multinomial_spec_file, capsys, argv):
    bits = get_precision()
    assert main([a.format(spec=multinomial_spec_file) for a in argv]) == 64
    assert "error:" in capsys.readouterr().err
    assert get_precision() == bits


def test_missing_file_exit_64(tmp_path):
    assert main(["solve", "--spec", str(tmp_path / "absent.json")]) == 64


def test_undecodable_file_exit_64(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["solve", "--spec", str(path)]) == 64


def test_compare_box_too_small_exit_65(tmp_path):
    spec = json.loads(MULTINOMIAL)
    spec["oracle_box"] = [5, 5]
    path = tmp_path / "small.json"
    path.write_text(json.dumps(spec))
    assert main(["compare", "--spec", str(path)]) == 65


def test_estimate_report(multinomial_spec_file, tmp_path):
    out = tmp_path / "est.json"
    assert main(["estimate", "--spec", str(multinomial_spec_file), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    est = doc["estimates"][0]
    assert est["r"] == 12 and est["s"] == 12
    assert est["formula"] == "general"
    assert est["contributions"][0]["winding"] == 0
    assert float(est["value"]["re"]) > 0


def test_estimate_warns_on_drift(tmp_path):
    spec = json.loads(MULTINOMIAL)
    spec["targets"] = [[12, 5]]
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "est.json"
    assert main(["estimate", "--spec", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert any("drift" in w for w in doc["estimates"][0]["warnings"])


def test_oracle_csv(color_swap_spec_file, tmp_path):
    out = tmp_path / "table.csv"
    assert main(["oracle", "--spec", str(color_swap_spec_file), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# prefactor: 1"
    assert lines[1] == "r,s,numerator,denominator,value"
    # (0,0) entry of G*H^(-1/2) is 1
    assert lines[2].startswith("0,0,1,1,")


def test_oracle_prints_entries_past_the_int_digit_cap(tmp_path):
    # H = 1 - x - y + 10^-5000 x^2: the (2, 0) entry of H^(-1/2) has a
    # denominator of 5,001 digits, past Python's default cap of 4,300 on
    # str(int).  The CLI lifts the cap for its call and restores it.
    spec = tmp_path / "tiny.json"
    spec.write_text(
        '{"H": [[0, 0, "1"], [1, 0, "-1"], [0, 1, "-1"], [2, 0, "1e-5000"]],'
        ' "beta": "1/2", "direction": "1:1", "targets": [[2, 2]]}'
    )
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)
    before = cap()
    out = tmp_path / "table.csv"
    assert main(["oracle", "--spec", str(spec), "--out", str(out)]) == 0
    assert cap() == before
    entry = next(l for l in out.read_text().splitlines() if l.startswith("2,0,"))
    assert len(entry.split(",")[3]) == 5001


def test_oracle_quadrature_discrepancy(color_swap_spec_file, tmp_path):
    out = tmp_path / "table.csv"
    code = main(
        ["oracle", "--spec", str(color_swap_spec_file), "--quadrature", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "r,s,numerator,denominator,value,quad_real,quad_imag,quad_error"
    summary = [l for l in lines if l.startswith("# max_relative_discrepancy:")]
    assert len(summary) == 1
    assert float(summary[0].split(":")[1]) < 1e-8


def test_compare_table(color_swap_spec_file, tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--spec", str(color_swap_spec_file), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,s,estimate_log10,estimate,exact_log10,exact,ratio"
    r, s, *_, ratio = lines[1].split(",")
    assert (int(r), int(s)) == (10, 5)
    assert 0.9 < float(ratio) < 1.3


def test_compare_origin_target_na(tmp_path):
    spec = json.loads(MULTINOMIAL)
    spec["targets"] = [[0, 0]]
    spec["oracle_box"] = [2, 2]
    path = tmp_path / "origin.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--spec", str(path), "--out", str(out)]) == 0
    line = out.read_text().splitlines()[1]
    fields = line.split(",")
    assert fields[2] == "n/a" and fields[-1] == "n/a"
    assert fields[5] == "1.0"  # exact (0,0) entry of (1-x-y)^(-1/2)


def test_dump_spec_round_trip(color_swap_spec_file, tmp_path):
    out = tmp_path / "dumped.json"
    assert main(["solve", "--spec", str(color_swap_spec_file), "--dump-spec", "--out", str(out)]) == 0
    spec_a = parse_problem(out.read_text())
    spec_b = parse_problem(COLOR_SWAP)
    assert spec_a == spec_b


def test_outputs_deterministic(color_swap_spec_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["compare", "--spec", str(color_swap_spec_file), "--out", str(a)]) == 0
    assert main(["compare", "--spec", str(color_swap_spec_file), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_hypothesis_failure_exit_70(tmp_path, capsys):
    spec = json.loads(MULTINOMIAL)
    spec["beta"] = "-1"  # nonpositive integer exponent: formula inapplicable
    path = tmp_path / "badbeta.json"
    path.write_text(json.dumps(spec))
    assert main(["estimate", "--spec", str(path)]) == 70
    assert "beta_not_nonpositive_integer" in capsys.readouterr().err


def test_whole_curve_critical_exit_70(tmp_path, capsys):
    # H = 1 - xy in direction 1:1: the direction polynomial is identically 0.
    spec = {"H": [[0, 0, "1"], [1, 1, "-1"]], "beta": "1/2", "direction": "1:1"}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(spec))
    assert main(["solve", "--spec", str(path)]) == 70
    err = capsys.readouterr().err
    assert "non-isolated critical set" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bits", ["64", "128", "256"])
@pytest.mark.parametrize("command", ["solve", "estimate", "compare"])
def test_coefficient_beyond_doubles_exit_70(tmp_path, capfd, command, bits):
    # H = 1 - 10^310 x - 10^310 y: a coefficient past the double range is
    # refused by name, on one line of stderr, with no traceback.
    big = str(10**310)
    spec = {
        "H": [[0, 0, "1"], [1, 0, "-" + big], [0, 1, "-" + big]],
        "beta": "1/2",
        "direction": "1:1",
        "targets": [[40, 40]],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(spec))
    assert main([command, "--spec", str(path), "--precision", bits]) == 70
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coefficient of x^1 y^0 is beyond the double range\n"


def test_precision_flag(multinomial_spec_file, tmp_path):
    out = tmp_path / "est.json"
    code = main(
        [
            "estimate",
            "--spec",
            str(multinomial_spec_file),
            "--precision",
            "192",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    # The flag holds for the call only.
    assert get_precision() == 128


def test_oracle_quadrature_default_radii(tmp_path):
    # Without explicit radii the oracle derives them from the dominant
    # critical point (half its moduli).
    spec = json.loads(MULTINOMIAL)
    del spec["quadrature"]
    spec["oracle_box"] = [4, 4]
    spec["targets"] = [[4, 4]]
    path = tmp_path / "noradii.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "table.csv"
    assert main(["oracle", "--spec", str(path), "--quadrature", "--out", str(out)]) == 0
    summary = [
        l for l in out.read_text().splitlines() if l.startswith("# max_relative")
    ]
    assert float(summary[0].split(":")[1]) < 1e-8


# Per-field values that mix valid ones, wrong types, wrong lengths and
# bad entries; unknown keys get any value.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(-2, 2) | st.just(float("nan")),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_PAIR = st.lists(st.integers(-1, 12), max_size=3) | _JUNK
_TERM = st.tuples(
    st.integers(-1, 3), st.integers(0, 3), st.sampled_from(["1", "-2", "1/2", "1/0", "x"])
).map(list)
_POLY = st.lists(_TERM | _JUNK, max_size=4) | _JUNK
_RADII = st.lists(st.floats(-1, 2) | st.integers(-1, 2) | st.text(max_size=2), max_size=3)
_VALUES = {
    "H": _POLY,
    "G": _POLY,
    "beta": st.sampled_from(["1/2", "-1", "0.5", "1/0", "abc"]) | _JUNK,
    "direction": st.sampled_from(["1:1", "2:1", "0:1", "1:2:3", "a:b"]) | _JUNK,
    "targets": st.lists(_PAIR, max_size=3) | _JUNK,
    "oracle_box": _PAIR,
    "quadrature": st.fixed_dictionaries({}, optional={"radii": _RADII | _JUNK, "grid": _PAIR})
    | _JUNK,
    "tolerances": _JUNK,
    "grid": _JUNK,
}


@st.composite
def _documents(draw):
    """The multinomial problem with some fields replaced and some dropped."""
    doc = json.loads(MULTINOMIAL)
    for key in draw(st.sets(st.sampled_from(sorted(_VALUES)), max_size=3)):
        doc[key] = draw(_VALUES[key])
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=2)):
        del doc[key]
    return doc


@given(_documents())
@settings(max_examples=150, deadline=None)
def test_any_problem_document_exits_0_or_64(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["solve", "--spec", str(path), "--dump-spec"])
    assert code in (0, 64)
    if code == 0:
        assert parse_problem(out.getvalue()) == parse_problem(json.dumps(doc))


# Small rational H with a constant term of either sign.  A negative one
# with a non-integer beta makes the exact entries complex.
_H00 = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3)])
_NONCONSTANT = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda ij: ij != (0, 0)),
        st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 3), F(3, 2)]),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda term: term[0],
)


@given(
    _H00,
    _NONCONSTANT,
    st.sampled_from(["1/2", "1/3", "-1/2", "3/2", "2"]),
    st.sampled_from([(1, 1), (1, 2), (2, 1)]),
)
@settings(max_examples=150, deadline=None)
def test_compare_and_quadrature_end_in_a_documented_code(h00, terms, beta, direction):
    r0, s0 = direction
    doc = {
        "H": [[0, 0, str(h00)]] + [[i, j, str(c)] for (i, j), c in terms],
        "beta": beta,
        "direction": f"{r0}:{s0}",
        "targets": [[6 * r0, 6 * s0]],
        "oracle_box": [6 * r0, 6 * s0],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        for argv in (["compare"], ["oracle", "--quadrature"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = main(argv + ["--spec", str(path)])
            assert code in (0, 2, 64, 65, 70), (argv, doc)
