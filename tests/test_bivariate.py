from fractions import Fraction as F
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from bivasym import BivariatePolynomial, bivariate, poly_eval, poly_partial
from bivasym.critical import critical_system, is_smooth
from bivasym.errors import BranchTrackingError, EvaluationOverflow
from bivasym.estimates import local_data
from bivasym.pipeline import run_solve
from bivasym.precision import get_precision, to_mpf, working_precision
from bivasym.problem import parse_problem
from bivasym.unipoly import exact_form, values_at
from tests.reference import coeffs_in_y, eval_exact
from tests.test_exact_eval import exact_fraction, rounded_once

ROOT = Path(__file__).resolve().parent.parent

coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=64)


@st.composite
def polynomials(draw, max_degree=4, max_terms=6):
    n = draw(st.integers(min_value=1, max_value=max_terms))
    terms = {}
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=max_degree))
        j = draw(st.integers(min_value=0, max_value=max_degree - min(i, max_degree)))
        terms[(i, j)] = draw(coeffs)
    return BivariatePolynomial(terms)


def test_eval_zero_at_simple_root(multinomial_h):
    assert poly_eval(multinomial_h, F(1, 2), F(1, 2)) == 0


def test_eval_origin_gives_constant_term():
    p = BivariatePolynomial.from_items([(0, 0, "5/3"), (2, 1, "7"), (1, 0, "-2")])
    assert poly_eval(p, 0, 0) == to_mpf(F(5, 3))


def test_eval_zero_at_color_swap_point(color_swap_h):
    assert abs(poly_eval(color_swap_h, F(1, 4), F(1))) == 0


def test_partial_linear(multinomial_h):
    assert poly_partial(multinomial_h, "x") == BivariatePolynomial.constant(-1)


def test_partial_color_swap_value(color_swap_h):
    hx = poly_partial(color_swap_h, "x")
    assert eval_exact(hx, F(1, 4), F(1)) == -4


def test_partial_of_constant_is_zero():
    c = BivariatePolynomial.constant(F(9, 2))
    assert not poly_partial(c, "y")


@given(polynomials())
@settings(max_examples=60)
def test_partials_commute(p):
    assert p.partial("x").partial("y") == p.partial("y").partial("x")


@given(
    polynomials(),
    st.fractions(min_value=-2, max_value=2, max_denominator=16),
    st.fractions(min_value=-2, max_value=2, max_denominator=16),
)
@settings(max_examples=60)
def test_eval_matches_exact_rational(p, qx, qy):
    exact = eval_exact(p, qx, qy)
    approx = p.eval(qx, qy)
    bound = mpf(2) ** (-(get_precision() - 8))
    scale = max(to_mpf(abs(exact)), mpf(1))
    assert abs(approx - to_mpf(exact)) <= bound * scale


small_fractions = st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=16), min_size=1, max_size=4
)
small_complex = st.lists(
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
)


def _grid(p, xs, ys):
    """eval_array on the (N1, 1) x (1, N2) grid shape used by quadrature."""
    vals = p.eval_array(np.array(xs).reshape(-1, 1), np.array(ys).reshape(1, -1))
    assert vals.shape == (len(xs), len(ys))
    return vals


@given(polynomials(), small_fractions, small_fractions)
@settings(max_examples=60)
def test_eval_array_matches_exact_rational(p, xs, ys):
    vals = _grid(p, [float(x) for x in xs], [float(y) for y in ys])
    for a, qx in enumerate(xs):
        for b, qy in enumerate(ys):
            scale = max(float(p.eval_magnitude_scale(qx, qy)), 1.0)
            assert abs(vals[a, b] - float(eval_exact(p, qx, qy))) <= 1e-13 * scale


@given(polynomials(), small_complex, small_complex)
@settings(max_examples=60)
def test_eval_array_matches_mpmath_eval(p, xs, ys):
    def close(value, x, y):
        scale = max(float(p.eval_magnitude_scale(x, y)), 1.0)
        return abs(value - complex(p.eval(x, y))) <= 1e-13 * scale

    vals = _grid(p, xs, ys)
    assert all(close(vals[a, b], x, y) for a, x in enumerate(xs) for b, y in enumerate(ys))
    # Equal-length 1-D arrays evaluate pointwise along a curve.
    n = min(len(xs), len(ys))
    curve = p.eval_array(np.array(xs[:n]), np.array(ys[:n]))
    assert curve.shape == (n,)
    assert all(close(v, x, y) for v, x, y in zip(curve, xs, ys))


doubles = st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False)
complexes = st.builds(complex, doubles, doubles)


@st.composite
def coefficient_arrays(draw, ndim):
    shape = draw(st.tuples(*[st.integers(min_value=1, max_value=6)] * ndim))
    values = draw(st.lists(doubles, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values).reshape(shape)


@given(coefficient_arrays(1), st.lists(complexes, min_size=1, max_size=12), st.booleans())
@settings(max_examples=100)
def test_horner_matches_numpy_at_complex_arrays(c, xs, as_column):
    # eval_array's columns: 1-D coefficients at a vector or an (N1, 1) grid column.
    x = np.array(xs).reshape((-1, 1) if as_column else (-1,))
    assert np.array_equal(bivariate.polyval(x, c), P.polyval(x, c))


@given(coefficient_arrays(2), st.lists(doubles, min_size=1, max_size=12), st.booleans())
@settings(max_examples=100)
def test_horner_tensor_mode_matches_numpy(c, xs, complex_nodes):
    # The quadrature's power basis and the probe's slices: 2-D coefficients
    # at a real or complex vector give one row per trailing index.
    x = np.array(xs) * (np.exp(0.7j) if complex_nodes else 1.0)
    assert np.array_equal(bivariate.polyval(x, c), P.polyval(x, c))


@given(coefficient_arrays(2), st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10))
@settings(max_examples=100)
def test_horner_at_scalar_moduli_matches_numpy(c, x, y):
    # The probe's coefficient magnitudes and vanish_floor's magnitude sum.
    c = np.abs(c)
    assert np.array_equal(bivariate.polyval(y, c.T), P.polyval(y, c.T))
    assert np.array_equal(bivariate.polyval(y, bivariate.polyval(x, c)), P.polyval2d(x, y, c))


def test_eval_deterministic_bits(color_swap_h):
    a = color_swap_h.eval(0.3 + 0.1j, -0.7 + 0.2j)
    b = color_swap_h.eval(0.3 + 0.1j, -0.7 + 0.2j)
    assert a == b


def test_eval_rejects_non_finite():
    # mpf exponents are unbounded, so finite inputs cannot overflow; the
    # guard exists so no inf/nan input slips through silently.
    p = BivariatePolynomial.from_items([(1, 0, "1"), (0, 1, "1")])
    with pytest.raises(EvaluationOverflow):
        p.eval(mp.inf, 1)
    with pytest.raises(EvaluationOverflow):
        p.eval(mp.nan, 1)

    huge = mpf(10) ** (10**6)
    assert p.eval(huge, 0) == huge  # stays finite at extreme magnitudes


def test_precision_context_changes_eval():
    p = BivariatePolynomial.from_items([(0, 0, "1"), (1, 0, "1/3")])
    with working_precision(64):
        v64 = p.eval(F(1, 3), 0)
    with working_precision(192):
        v192 = p.eval(F(1, 3), 0)
    assert v64 != v192
    assert abs(v64 - v192) < mpf(2) ** -50


def test_scale_and_degree_helpers(color_swap_h):
    assert color_swap_h.degree_x() == 2
    assert color_swap_h.degree_y() == 2
    assert color_swap_h.coefficient(2, 1) == 2


def test_ray_argument_is_continuous_past_pi():
    # arg (1 - 2it)^3 = -3*atan(2t) leaves (-pi, pi] before t = 1: the turn
    # is the sum of the root factors' turns, not a principal value.
    H = BivariatePolynomial.from_items([(0, 0, 1), (1, 0, -3), (2, 0, 3), (3, 0, -1)])
    start, end = H.ray_argument(2j, 0.0, 1.0)
    assert start == 0.0
    assert end == pytest.approx(-3 * np.arctan(2.0), abs=1e-12)
    # negative_origin's H = -1 + x + y is real on a real ray: it stays at pi.
    negative = parse_problem((ROOT / "problems" / "negative_origin.json").read_text()).H
    assert negative.ray_argument(0.25, 0.25, 1.0) == (np.pi, np.pi)
    # Family item 50, 1 - x^2 y + x^2 y^2/2 - x^4/2: on the diagonal its t^4
    # coefficient cancels exactly, and the trimmed h has no root in (0, 1].
    H50 = BivariatePolynomial.from_items([(0, 0, 1), (2, 1, -1), (2, 2, "1/2"), (4, 0, "-1/2")])
    for c in (0.1, 0.5):
        assert H50.ray_argument(c, c, 1.0) == (0.0, 0.0)


def test_ray_argument_rejects_a_zero_on_the_ray():
    # 1 - 2x vanishes at t = 1/2 on the ray x = t, inside the segment and
    # at its far end.
    H = BivariatePolynomial.from_items([(0, 0, 1), (1, 0, -2)])
    for t_end in (1.0, 0.5):
        with pytest.raises(BranchTrackingError, match="vanishes on the ray"):
            H.ray_argument(1.0, 0.0, t_end)
    # A ray to a point past the double range has no h in doubles.
    with pytest.raises(EvaluationOverflow):
        H.ray_argument(mpf("1e400"), 0.0, 1.0)


# Coefficients with no finite binary expansion round differently per precision.
THIRDS = {(0, 0): F(1), (1, 0): F(1, 3), (1, 1): F(-2, 7), (2, 1): F(5, 11), (0, 2): F(1, 10)}


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_rounded_coefficients_follow_the_precision(bits):
    # Nothing rounded is kept from one precision to the next: values after
    # evaluating at other precisions equal a fresh polynomial's.
    x, y = ("0.3", "0.1"), ("-0.7", "0.45")
    used = BivariatePolynomial(THIRDS)
    for other in (53, 64, 128, 256):
        with working_precision(other):
            used.eval(mp.mpc(*x), mp.mpc(*y))
            used.eval_magnitude_scale(mp.mpc(*x), mp.mpc(*y))
    fresh = BivariatePolynomial(THIRDS)
    with working_precision(bits):
        px, py = mp.mpc(*x), mp.mpc(*y)
        for value in ("eval", "eval_magnitude_scale"):
            got, want = getattr(used, value)(px, py), getattr(fresh, value)(px, py)
            assert repr(got) == repr(want)


def test_partial_is_made_once(color_swap_h):
    for var in ("x", "y"):
        first = color_swap_h.partial(var)
        assert color_swap_h.partial(var) is first
        assert first == BivariatePolynomial(dict(color_swap_h.terms)).partial(var)


PROBLEMS = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_magnitude_scale_equals_the_per_term_form(bits):
    # The scale is sum_ij |h_ij| |x|^i |y|^j with |x| and |y| taken at
    # working precision, summed exactly and rounded once, on every
    # problem's H, G and critical system.
    with working_precision(bits):
        points = [(mp.mpc(k / 7, 1 - k / 3), mp.mpc(k / 11 - 1, mp.pi / k)) for k in range(1, 13)]
        for path in PROBLEMS:
            spec = parse_problem(path.read_text())
            polys = [spec.H, *critical_system(spec.H, spec.direction)]
            for poly in polys + ([spec.G] if spec.G is not None else []):
                for x, y in points:
                    ax, ay = exact_fraction(abs(x)), exact_fraction(abs(y))
                    want = sum(abs(c) * ax**i * ay**j for (i, j), c in poly.terms.items())
                    assert poly.eval_magnitude_scale(x, y) == rounded_once(want)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_kept_values_equal_a_fresh_polynomials(bits):
    # A polynomial keeps its integer columns, not its values.  x and y are
    # exact at 64 bits and above, so each precision asks for the same bits;
    # the value at (x, y) is a fresh polynomial's after the other
    # precisions, and after 20 other points.
    with working_precision(64):
        x, y = mp.mpc("0.3", "0.1"), mp.mpc("-0.7", "0.45")
    used = BivariatePolynomial(THIRDS)
    for other in (64, 128, 256):
        with working_precision(other):
            used.eval(x, y)
    with working_precision(bits):
        fresh = BivariatePolynomial(THIRDS).eval(x, y)
        assert used.eval(x, y)._mpc_ == fresh._mpc_
        for k in range(20):
            used.eval(mp.mpc(k, 1), mp.mpc(1, -k))
        assert used.eval(x, y)._mpc_ == fresh._mpc_


def test_is_smooth_runs_no_exact_pass_and_local_data_takes_exact_gradients(monkeypatch):
    # At color_swap's dominant point the double gradient and its error bound
    # settle is_smooth: no pass of the integer Horner kernel runs.
    # local_data's H_x and H_y are the exact values rounded once, as a
    # fresh polynomial evaluates them.
    spec = parse_problem((ROOT / "problems" / "color_swap.json").read_text())
    pt = run_solve(spec, probe=False).dominant.points[0]
    H = spec.H
    runs = []
    horner = bivariate.horner_exact
    monkeypatch.setattr(bivariate, "horner_exact", lambda *args: runs.append(1) or horner(*args))
    assert is_smooth(H, (pt.p, pt.q))
    assert runs == []
    monkeypatch.undo()
    ld = local_data(H, pt, spec.direction)
    fresh = BivariatePolynomial(dict(H.terms))
    assert ld.hx._mpc_ == fresh.partial("x").eval(pt.p, pt.q)._mpc_
    assert ld.hy._mpc_ == fresh.partial("y").eval(pt.p, pt.q)._mpc_


def test_moduli_in_y_give_the_row_scales_bit_for_bit():
    # The moduli of each y-row, kept over the lcm of all coefficients, give
    # the same rounded scale as the row's own Fractions put over theirs.
    H = BivariatePolynomial(
        {(0, 0): F(1), (2, 0): F(-5, 3), (1, 1): F(7, 2), (3, 1): F(1, 9), (0, 3): F(-2, 7)}
    )
    for poly in (H, H.partial("x"), H.partial("y")):
        forms = poly.moduli_in_y()
        rows = coeffs_in_y(poly)
        assert len(forms) == len(rows)
        for bits in (64, 128, 256):
            with working_precision(bits):
                for z in (mpf("0.3"), mpf(7) / 3, mpf("1e-40"), mpf("1e40")):
                    for form, row in zip(forms, rows):
                        (got,) = values_at([form], z)
                        (want,) = values_at([exact_form([abs(c) for c in row])], z)
                        assert got._mpc_ == want._mpc_


def test_float_coeffs_equal_a_fresh_matrix():
    # eval_array, vanish_floor and the minimality probe read float_coeffs:
    # each coefficient rounded to its double, every other cell zero.
    H = parse_problem((ROOT / "problems" / "color_swap.json").read_text()).H
    fresh = np.zeros((H.degree_x() + 1, H.degree_y() + 1))
    for (i, j), c in H.terms.items():
        fresh[i, j] = float(c)
    assert H.float_coeffs().tobytes() == fresh.tobytes()
