import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from bivasym import (
    BivariatePolynomial,
    OracleConfig,
    cauchy_quadrature,
    closed_form_table,
    coeff_linear_closed_form,
    coeff_recurrence,
)
from bivasym.cli import main
from bivasym.errors import BranchTrackingError, ConfigError, EvaluationOverflow, SingularAtOrigin
from bivasym.oracle import exact_log10_abs, exact_value, quadrature_values, table_to_csv
from bivasym.precision import rational_mpf, round_ratio, to_mpf, working_precision
from bivasym.problem import parse_problem
from bivasym.rationals import binomial_general
from bivasym.series import Prefactor

ROOT = Path(__file__).resolve().parent.parent


def test_entry_1_1_is_three_quarters(multinomial_h):
    # Binomial oracle: [x y] (1 - (x+y))^(-1/2) comes from the n=2 term
    # C(-1/2,2) (x+y)^2, whose xy coefficient is 2 * 3/8 = 3/4.
    table = coeff_recurrence(multinomial_h, None, F(1, 2), (2, 2))
    assert table.series.coeffs[1][1] == F(3, 4)
    closed, pref = coeff_linear_closed_form(F(1), F(-1), F(-1), F(1, 2), 1, 1)
    assert closed == F(3, 4)
    assert pref.is_one()


def test_constant_h_table():
    table = coeff_recurrence(BivariatePolynomial.constant(2), None, F(1, 2), (2, 2))
    assert table.series.coeffs[0][0] == 1
    assert all(
        table.series.coeffs[r][s] == 0
        for r in range(3)
        for s in range(3)
        if (r, s) != (0, 0)
    )
    assert table.prefactor == Prefactor(F(2), F(-1, 2))


def test_singular_origin_rejected():
    H = BivariatePolynomial.from_items([(1, 0, "1")])
    with pytest.raises(SingularAtOrigin):
        coeff_recurrence(H, None, F(1, 2), (2, 2))
    with pytest.raises(SingularAtOrigin):
        coeff_linear_closed_form(F(0), F(1), F(1), F(1, 2), 1, 1)
    with pytest.raises(SingularAtOrigin):
        closed_form_table(H, F(1, 2), (2, 2))


def test_large_entry_matches_reported_value(multinomial_h):
    table = coeff_recurrence(multinomial_h, None, F(1, 2), (100, 100))
    value = table.value(100, 100)
    assert abs(value - mpf("3.61011e57")) < mpf("0.00001e57")
    closed, pref = coeff_linear_closed_form(F(1), F(-1), F(-1), F(1, 2), 100, 100)
    assert pref.is_one()
    assert closed == table.series.coeffs[100][100]


def test_cross_oracle_full_box(multinomial_h):
    box = (12, 12)
    rec = coeff_recurrence(multinomial_h, None, F(1, 2), box)
    cf = closed_form_table(multinomial_h, F(1, 2), box)
    assert rec.series == cf.series
    assert rec.prefactor == cf.prefactor


# Small rationals, 0 included; c0 of either sign, so its power may stay symbolic.
_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 5))


@given(
    c0=st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 5)),
    c1=_rationals,
    c2=_rationals,
    beta=st.builds(F, st.integers(-7, 7).filter(bool), st.integers(1, 4)),
    box=st.tuples(st.integers(0, 8), st.integers(0, 8)),
)
@settings(max_examples=80, deadline=None)
def test_closed_form_matches_recurrence(c0, c1, c2, beta, box):
    H = BivariatePolynomial({(0, 0): c0, (1, 0): c1, (0, 1): c2})
    cf = closed_form_table(H, beta, box)
    rec = coeff_recurrence(H, None, beta, box)
    assert cf.series == rec.series
    assert cf.prefactor == rec.prefactor


def test_fill_order_equivalence(multinomial_h, color_swap_h, color_swap_g):
    for H, G in ((multinomial_h, None), (color_swap_h, color_swap_g)):
        rows = coeff_recurrence(H, G, F(1, 2), (9, 7), order="rows")
        anti = coeff_recurrence(H, G, F(1, 2), (9, 7), order="antidiagonal")
        assert rows.series == anti.series


def test_negative_integer_beta_gives_polynomial(multinomial_h):
    table = coeff_recurrence(multinomial_h, None, F(-1), (4, 4))
    for (i, j), c in multinomial_h.terms.items():
        assert table.series.coeffs[i][j] == c
    assert table.series.coeffs[3][3] == 0


def test_numerator_multiplies_table(color_swap_h, color_swap_g):
    plain = coeff_recurrence(color_swap_h, None, F(1, 2), (6, 6))
    with_g = coeff_recurrence(color_swap_h, color_swap_g, F(1, 2), (6, 6))
    # Entry (1,0): [x] G*F = f10 - f00 (the -x term of G shifts by one).
    f = plain.series.coeffs
    assert with_g.series.coeffs[1][0] == f[1][0] - f[0][0]
    assert with_g.series.coeffs[0][0] == f[0][0]


def test_quadrature_simple_entry(multinomial_h):
    cfg = OracleConfig(
        box=(4, 4),
        beta=F(1, 2),
        quadrature_radii=(0.3, 0.3),
        quadrature_grid=(512, 512),
    )
    value, err = cauchy_quadrature(multinomial_h, None, F(1, 2), 1, 1, cfg)
    assert abs(value - F(3, 4)) < 1e-10
    assert err < 1e-10


def test_quadrature_constant_h():
    cfg = OracleConfig(
        box=(0, 0),
        beta=F(1, 2),
        quadrature_radii=(0.5, 0.5),
        quadrature_grid=(64, 64),
    )
    H = BivariatePolynomial.constant(4)
    value, _ = cauchy_quadrature(H, None, F(1, 2), 0, 0, cfg)
    assert abs(value - F(1, 2)) < 1e-10


def test_quadrature_cross_oracle_color_swap(color_swap_h, color_swap_g):
    cfg = OracleConfig(
        box=(10, 5),
        beta=F(1, 2),
        quadrature_radii=(0.2, 0.8),
        quadrature_grid=(512, 512),
    )
    value, err = cauchy_quadrature(color_swap_h, color_swap_g, F(1, 2), 10, 5, cfg)
    exact = coeff_recurrence(color_swap_h, color_swap_g, F(1, 2), (10, 5)).value(10, 5)
    assert abs(value - exact) / abs(exact) < 1e-8


OUTSIDE_4x4 = [(-1, 0), (0, -1), (5, 0), (0, 5), (-1, 5)]


@pytest.mark.parametrize("r, s", OUTSIDE_4x4)
def test_an_index_outside_the_box_is_refused(multinomial_h, r, s):
    # A negative index would wrap to the far end of the row or column.
    cfg = OracleConfig(
        box=(4, 4), beta=F(1, 2), quadrature_radii=(0.3, 0.3), quadrature_grid=(64, 64)
    )
    exact = coeff_recurrence(multinomial_h, None, F(1, 2), (4, 4))
    numeric = quadrature_values(multinomial_h, None, F(1, 2), cfg)
    for table in (exact, numeric):
        for read in (table.value, table.log10_abs, table.entry_error):
            with pytest.raises(ConfigError, match="outside the oracle box"):
                read(r, s)
    with pytest.raises(ConfigError, match="outside the oracle box"):
        cauchy_quadrature(multinomial_h, None, F(1, 2), r, s, cfg)
    # The far corner stays readable.
    assert abs(complex(numeric.value(4, 4)) / complex(exact.value(4, 4)) - 1) < 1e-10
    assert abs(numeric.log10_abs(4, 4) - exact.log10_abs(4, 4)) < 1e-10
    assert exact.entry_error(4, 4) == 0 and numeric.entry_error(4, 4) < 1e-10


def test_quadrature_branch_agrees_for_negative_constant_term():
    # Negative H(0,0): the series branch value is complex (-i here), and the
    # quadrature's radially-anchored branch must match the exact table's
    # symbolic prefactor.
    H = BivariatePolynomial.from_items([(0, 0, "-1"), (1, 0, "1"), (0, 1, "1")])
    tab = coeff_recurrence(H, None, F(1, 2), (5, 5))
    assert tab.prefactor == Prefactor(F(-1), F(-1, 2))
    assert abs(complex(tab.prefactor.value()) - (-1j)) < 1e-30
    cfg = OracleConfig(
        box=(5, 5), beta=F(1, 2), quadrature_radii=(0.3, 0.3), quadrature_grid=(256, 256)
    )
    quad = quadrature_values(H, None, F(1, 2), cfg)
    for r in range(6):
        for s in range(6):
            e = complex(tab.value(r, s))
            q = complex(quad.values[r, s])
            assert abs(q - e) <= 1e-10 * max(abs(e), 1e-30)


def test_quadrature_matches_irrational_prefactor_table():
    H = BivariatePolynomial.from_items([(0, 0, "2"), (1, 0, "-1"), (0, 1, "-1")])
    tab = coeff_recurrence(H, None, F(1, 2), (5, 5))
    assert tab.prefactor == Prefactor(F(2), F(-1, 2))
    cfg = OracleConfig(
        box=(5, 5), beta=F(1, 2), quadrature_radii=(0.5, 0.5), quadrature_grid=(256, 256)
    )
    quad = quadrature_values(H, None, F(1, 2), cfg)
    for r in range(6):
        for s in range(6):
            e = complex(tab.value(r, s))
            q = complex(quad.values[r, s])
            assert abs(q - e) <= 1e-10 * max(abs(e), 1e-30)


def test_quadrature_rejects_vanishing_torus():
    # 1 - 2x vanishes at x = 1/2, on the torus of radius 1/2.
    H = BivariatePolynomial.from_items([(0, 0, "1"), (1, 0, "-2")])
    cfg = OracleConfig(
        box=(2, 2),
        beta=F(1, 2),
        quadrature_radii=(0.5, 0.5),
        quadrature_grid=(64, 64),
    )
    with pytest.raises(BranchTrackingError):
        quadrature_values(H, None, F(1, 2), cfg)


def test_quadrature_anchor_ray_crosses_a_zero():
    # (1 - x)(1 - 2x) has no zero on |x| = 0.75, but the anchor ray from the
    # origin to the torus passes x = 1/2: the tracker names that cause.
    H = BivariatePolynomial.from_items([(0, 0, "1"), (1, 0, "-3"), (2, 0, "2")])
    cfg = OracleConfig(
        box=(2, 2),
        beta=F(1, 2),
        quadrature_radii=(0.75, 0.3),
        quadrature_grid=(64, 64),
    )
    with pytest.raises(BranchTrackingError, match="vanishes on the ray"):
        quadrature_values(H, None, F(1, 2), cfg)


def test_config_validation():
    with pytest.raises(ConfigError):
        OracleConfig(box=(2, 2), beta=F(1, 2), quadrature_radii=(0.3, 0.3), quadrature_grid=(48, 64))
    with pytest.raises(ConfigError):
        OracleConfig(box=(2, 2), beta=F(1, 2), quadrature_radii=(0.3, 0.3), quadrature_grid=(96, 64))
    with pytest.raises(ConfigError):
        OracleConfig(box=(2, 2), beta=F(1, 2), quadrature_radii=(-0.3, 0.3), quadrature_grid=(64, 64))
    with pytest.raises(ConfigError):
        OracleConfig(box=(40, 2), beta=F(1, 2), quadrature_radii=(0.3, 0.3), quadrature_grid=(64, 64))


@pytest.mark.parametrize("radii", [(math.inf, 0.3), (0.3, math.inf), (math.nan, 0.3)])
def test_config_refuses_a_radius_that_is_not_finite(radii):
    # An infinite radius once gave a table of NaN values and errors.
    with pytest.raises(ConfigError, match="positive and finite"):
        OracleConfig(box=(2, 2), beta=F(1, 2), quadrature_radii=radii, quadrature_grid=(64, 64))


def test_csv_export_exact(multinomial_h):
    table = coeff_recurrence(multinomial_h, None, F(1, 2), (1, 1))
    text = table_to_csv(table)
    lines = text.split("\n")
    assert lines[0] == "# prefactor: 1"
    assert lines[1] == "r,s,numerator,denominator,value"
    assert lines[2].startswith("0,0,1,1,")
    assert text.endswith("\n")
    assert "\r" not in text


def test_csv_export_quadrature(multinomial_h):
    cfg = OracleConfig(
        box=(1, 1),
        beta=F(1, 2),
        quadrature_radii=(0.3, 0.3),
        quadrature_grid=(64, 64),
    )
    table = quadrature_values(multinomial_h, None, F(1, 2), cfg)
    text = table_to_csv(table)
    assert text.splitlines()[0] == "r,s,real,imag,error"
    assert len(text.splitlines()) == 5


def _count_fractions(monkeypatch) -> list:
    """Record the arguments of every Fraction built in bivasym.series and bivasym.oracle."""
    built = []

    class Counted(F):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    for module in ("bivasym.series", "bivasym.oracle"):
        monkeypatch.setattr(f"{module}.Fraction", Counted)
    return built


def test_reading_one_entry_reduces_only_that_entry(monkeypatch, multinomial_h):
    built = _count_fractions(monkeypatch)
    table = coeff_recurrence(multinomial_h, None, F(1, 2), (200, 200))
    # Building the 201 x 201 table reduces no entry.
    assert len(built) < 201
    closed_table = closed_form_table(multinomial_h, F(1, 2), (200, 200))
    assert built == []
    value = table.value(100, 100)
    log10 = table.log10_abs(100, 100)
    # The entry is rounded from its numerator and scale: no Fraction at all.
    assert built == []
    assert closed_table.value(100, 100) == value
    closed, _ = coeff_linear_closed_form(F(1), F(-1), F(-1), F(1, 2), 100, 100)
    assert value == to_mpf(closed)
    assert abs(log10 - mp.log(value, 10)) < mpf(10) ** (-30)


def _half_ulp_from(v, f: F) -> bool:
    """Whether the mpf v lies within half a unit in the last place of ``mp.prec`` bits of f."""
    sign, man, exp, bc = v._mpf_
    ulp = F(2) ** (exp + bc - mp.prec)
    return abs((-1) ** sign * man * F(2) ** exp - f) <= ulp / 2


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-(10**80), 10**80),
    st.integers(1, 10**80),
    st.integers(1, 10**20),
    st.integers(0, 600),
    st.integers(-600, 600),
    st.sampled_from([24, 53, 64, 128, 256, 1024, 2048]),
)
def test_rational_mpf_rounds_once_to_nearest(num, den, k, shift, exp, bits):
    # An unreduced pair, with trailing zero bits or not, gives mpmath's
    # correctly rounded num/den, and round_ratio its num * 2^exp / den:
    # odd and power-of-two denominators, exact quotients, and quotients a
    # hair either side of a tie between two bits-bit mantissas M, included.
    M = 2 ** (bits - 1) + 2 * (abs(num) % 2 ** (bits - 3))
    ties = [((2 * M + 1) * den + e, 2 * den) for e in (-1, 1)]
    pairs = [(num, den), (num, den | 1), (num, 1 << shift), (num * den, den)]
    pairs += [(num << shift, den), (num, den << shift)] + ties
    with working_precision(bits):
        for a, b in pairs:
            want = from_rational(a, b, bits, round_nearest)
            assert rational_mpf(a * k, b * k)._mpf_ == want
            assert to_mpf(F(a, b))._mpf_ == want
            a2, b2 = (a << exp, b) if exp >= 0 else (a, b << -exp)
            want = from_rational(a2, b2, bits, round_nearest)
            assert round_ratio(a, exp, b) == round_ratio(a * k, exp, b * k) == want


# beyond_double_point's entries have about 8,000 digits, and reducing one
# costs milliseconds: only its diagonal and last row are read.
@pytest.mark.parametrize(
    "name, box, cells",
    [
        ("color_swap", (70, 35), lambda R, S: [(r, s) for r in range(R + 1) for s in range(S + 1)]),
        (
            "beyond_double_point",
            (40, 40),
            lambda R, S: sorted({(k, k) for k in range(R + 1)} | {(R, s) for s in range(S + 1)}),
        ),
    ],
)
def test_exact_reads_round_once_with_no_fraction(monkeypatch, name, box, cells):
    spec = parse_problem((ROOT / "problems" / f"{name}.json").read_text())
    table = coeff_recurrence(spec.H, spec.G, spec.beta, box)
    targets = cells(*box)
    reduced = [table.series.coeffs[r][s] for r, s in targets]
    built = _count_fractions(monkeypatch)
    for bits in (64, 128, 256):
        with working_precision(bits):
            got = [(table.value(r, s), table.log10_abs(r, s)) for r, s in targets]
            assert built == []
            for (v, log10), c in zip(got, reduced):
                assert v._mpf_ == exact_value(c, table.prefactor)._mpf_
                assert log10 == exact_log10_abs(c, table.prefactor)
            if name == "color_swap":
                # Rounded once to nearest: mpmath's own rational conversion.
                for (r, s), (v, _) in zip(targets, got):
                    row = table.series.coeffs[r]
                    exact = from_rational(row.nums[s], row.scales[r + s], bits, round_nearest)
                    assert v._mpf_ == exact
                assert all(_half_ulp_from(v, c) for (v, _), c in zip(got, reduced))


def test_quadrature_export_reads_each_exact_entry_once(monkeypatch, tmp_path):
    built = _count_fractions(monkeypatch)
    spec = ROOT / "problems" / "color_swap.json"
    assert main(["oracle", "--quadrature", "--spec", str(spec), "--out", str(tmp_path / "q")]) == 0
    R, S = parse_problem(spec.read_text()).effective_box()
    assert len(built) == (R + 1) * (S + 1)


def test_csv_export_evaluates_the_prefactor_once(monkeypatch):
    spec = parse_problem((ROOT / "problems" / "negative_origin.json").read_text())
    table = coeff_recurrence(spec.H, spec.G, spec.beta, spec.effective_box())
    assert not table.prefactor.is_one()
    calls = []
    value = Prefactor.value

    def counted(self):
        calls.append(self)
        return value(self)

    monkeypatch.setattr(Prefactor, "value", counted)
    text = table_to_csv(table)
    assert len(calls) == 1
    assert text == (ROOT / "tests" / "data" / "golden" / "negative_origin.oracle.out").read_text()


TORUS_WINDS = ROOT / "problems" / "torus_winds.json"


def test_quadrature_refuses_a_torus_round_which_h_winds(capsys):
    # H = 1 + x/10 + 4xy has zeros inside the polydisk of radii (0.6, 0.6)
    # off the positive ray, so arg H turns by 2 pi round the torus.  The
    # quadrature once printed [x^3 y^3] ~ -0.123 against an exact -20.
    spec = parse_problem(TORUS_WINDS.read_text())
    cfg = OracleConfig(
        box=spec.effective_box(), beta=spec.beta, quadrature_radii=spec.quadrature_radii
    )
    with pytest.raises(BranchTrackingError, match="H winds around 0 on the torus"):
        quadrature_values(spec.H, spec.G, spec.beta, cfg)
    assert main(["oracle", "--quadrature", "--spec", str(TORUS_WINDS)]) == 70
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "problem, radius", [("large_coefficients", 2.5e-8), ("scaled_multinomial", 2.5e6)]
)
def test_quadrature_refuses_scales_outside_the_double_range(problem, radius):
    # The default radii are half the dominant moduli.  c1^r * c2^s at the
    # far corner of the 40 x 40 box underflows to 0 for large_coefficients
    # and overflows for scaled_multinomial: the CLI once printed inf, nan or
    # zeros after numpy RuntimeWarnings, and exited 0.
    spec = parse_problem((ROOT / "problems" / f"{problem}.json").read_text())
    cfg = OracleConfig(box=(40, 40), beta=spec.beta, quadrature_radii=(radius, radius))
    with pytest.raises(EvaluationOverflow, match="leaves the double range"):
        quadrature_values(spec.H, spec.G, spec.beta, cfg)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["oracle", "--quadrature", "--spec", str(ROOT / "problems" / f"{problem}.json")]
    run = subprocess.run(
        [sys.executable, "-m", "bivasym.cli", *argv], capture_output=True, text=True, env=env
    )
    assert run.returncode == 70
    assert run.stdout == ""
    assert run.stderr.startswith("error: c1^r * c2^s leaves the double range")
    assert "Warning" not in run.stderr


def test_torus_winds_exact_entries():
    # (1 + x/10 + 4xy)^(-1/2) = sum_r C(-1/2, r) x^r (1/10 + 4y)^r.
    spec = parse_problem(TORUS_WINDS.read_text())
    table = coeff_recurrence(spec.H, spec.G, spec.beta, spec.effective_box())
    for r in range(4):
        for s in range(4):
            want = binomial_general(F(-1, 2), r) * math.comb(r, s) * F(1, 10) ** (r - s) * 4**s
            assert table.series.coeffs[r][s] == want
    assert table.prefactor.is_one()
    assert table.series.coeffs[3][3] == -20
