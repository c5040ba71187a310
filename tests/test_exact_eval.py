"""The integer Horner kernel: exact values at a point, rounded once."""

import random
import time
from fractions import Fraction as F

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_rational, round_nearest

from bivasym import BivariatePolynomial
from bivasym.errors import EvaluationOverflow
from bivasym.precision import working_precision
from bivasym.unipoly import dyadic, exact_form, values_at


def exact_fraction(x) -> F:
    """The mpf ``x`` as the Fraction it stands for, read from its tuple."""
    sign, man, exp, _ = x._mpf_
    return F(-man if sign else man) * F(2) ** exp


def rounded_once(value: F) -> mpf:
    """``value`` rounded to nearest at ``mp.prec``, in one step."""
    return mp.make_mpf(from_rational(value.numerator, value.denominator, mp.prec, round_nearest))


def _exact_at(coeffs, zr, zi):
    """Exact ``(re, im)`` of ascending Gaussian-rational ``(re, im)`` coefficients at zr + i*zi."""
    ar = ai = F(0)
    for cr, ci in reversed(coeffs):
        ar, ai = ar * zr - ai * zi + cr, ar * zi + ai * zr + ci
    return ar, ai


def _parts(z):
    return exact_fraction(z.real), exact_fraction(z.imag)


def _part(rng):
    """A real part: exact zero, or a double scaled by 2^e with e in [-300, 300]."""
    if rng.random() < 0.2:
        return mpf(0)
    return mpf(rng.uniform(-1, 1)) * mpf(2) ** rng.randint(-300, 300)


def _coefficient(rng, complex_share):
    """``(re, im)``: a real rational, or (as an mpc takes them) dyadic parts."""
    if rng.random() >= complex_share:
        return F(rng.randint(-60, 60), rng.randint(1, 40)), F(0)
    return tuple(F(rng.randint(-60, 60), 2 ** rng.randint(0, 9)) for _ in range(2))


def _given(c):
    """The coefficient ``(re, im)`` as the kernel takes it: a Fraction or an mpc."""
    return mpc(*map(rounded_once, c)) if c[1] else c[0]


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("complex_share", [0.0, 0.4])
def test_values_are_the_exact_values_rounded_once(bits, complex_share):
    rng = random.Random(bits * 10 + int(complex_share * 10))
    with working_precision(bits):
        for _ in range(150):
            coeffs = [_coefficient(rng, complex_share) for _ in range(rng.randint(1, 7))]
            deriv = [(k * a, k * b) for k, (a, b) in enumerate(coeffs)][1:] or [(F(0), F(0))]
            real_point = rng.random() < 0.3
            z = mpc(_part(rng), 0 if real_point else _part(rng))
            forms = [exact_form([_given(c) for c in poly]) for poly in (coeffs, deriv)]
            for got, poly in zip(values_at(forms, z), (coeffs, deriv)):
                want = _exact_at(poly, *_parts(z))
                assert got.real == rounded_once(want[0]) and got.imag == rounded_once(want[1])


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_bivariate_values_are_the_exact_values_rounded_once(bits):
    rng = random.Random(bits)
    with working_precision(bits):
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                i = rng.randint(0, 5)
                terms[(i, rng.randint(0, 5 - i))] = F(rng.randint(-60, 60), rng.randint(1, 40))
            poly = BivariatePolynomial(terms)
            x, y = mpc(_part(rng), _part(rng)), mpc(_part(rng), _part(rng))
            # Each column in x, exactly, then the column values in y.
            cols = [
                [(poly.coefficient(i, j), F(0)) for i in range(poly.degree_x() + 1)]
                for j in range(poly.degree_y() + 1)
            ]
            col_values = [_exact_at(col, *_parts(x)) for col in cols]
            for got, want in zip(poly.specialize_x(x), col_values):
                assert got.real == rounded_once(want[0]) and got.imag == rounded_once(want[1])
            got, want = poly.eval(x, y), _exact_at(col_values, *_parts(y))
            assert got.real == rounded_once(want[0]) and got.imag == rounded_once(want[1])


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_parts_far_apart_stay_small_and_close(bits):
    # One part 2^-20000 times the other: its low bits are rounded off, so
    # the ints do not grow with the gap and the value stays within
    # 2^-(2*prec) of sum |c_k| |z|^k of the exact one.
    rng = random.Random(bits)
    with working_precision(bits):
        for z in (mpc(mpf("0.7"), mpf(2) ** -20000), mpc(mpf(2) ** -20000 * 3, -1)):
            a, b, _ = dyadic(z)
            assert max(a.bit_length(), b.bit_length()) <= 2 * bits + 1100
            coeffs = [(F(rng.randint(-9, 9), rng.randint(1, 7)), F(0)) for _ in range(7)]
            start = time.perf_counter()
            (got,) = values_at([exact_form([c for c, _ in coeffs])], z)
            assert time.perf_counter() - start < 0.05
            want = _exact_at(coeffs, *_parts(z))
            zmod = abs(z)
            scale = sum(abs(c) * zmod**k for k, (c, _) in enumerate(coeffs))
            assert abs(got.real - rounded_once(want[0])) <= mpf(2) ** (-2 * bits) * scale
            assert abs(got.imag - rounded_once(want[1])) <= mpf(2) ** (-2 * bits) * scale
            H = BivariatePolynomial({(k, 1): c for k, (c, _) in enumerate(coeffs) if c})
            start = time.perf_counter()
            H.eval(z, z)
            assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("z", [mpc(mp.inf, 0), mpc(1, mp.ninf), mpc(0, mp.nan), mp.inf])
def test_a_part_that_is_not_finite_raises(z):
    with pytest.raises(EvaluationOverflow):
        values_at([exact_form([F(1), F(1, 3)])], z)
    with pytest.raises(EvaluationOverflow):
        BivariatePolynomial({(1, 0): F(1), (0, 1): F(2)}).eval(z, 1)
