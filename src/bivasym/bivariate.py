"""Sparse bivariate polynomials with exact rational coefficients.

Terms are a map from exponent pairs ``(i, j)`` to nonzero Fractions.  All
arithmetic is exact, and so is evaluation at a working-precision point,
on integers: ``eval``, ``eval_magnitude_scale`` and ``specialize_x`` run
``unipoly.horner_exact`` over the coefficients put over their lcm, each
column of x-coefficients first and then the column values in y, and
round the result once to ``mp.prec``.  A value is the correctly rounded
value of the exact polynomial at the point.  The integer columns and each
partial derivative are made once; values are not kept, so a caller that
needs one twice hands it along (``winding_number`` reads the H_x and H_y
of ``local_data``).
``eval_double`` is the scalar double-precision evaluator, with a rigorous
error bound (``unipoly.double_values``), for the threshold tests that
doubles can settle.  ``eval_array`` evaluates on numpy arrays (the
quadrature's theta2 = 0 column), ``polyval`` is numpy's Horner, and
``ray_argument`` gives arg H along a ray from the origin from the roots
of H on it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Tuple

import numpy as np
from mpmath import mpf

from .errors import BranchTrackingError, EvaluationOverflow
from .precision import to_mpc
from .rationals import parse_rational
from .unipoly import (
    double_coefficients,
    double_values,
    dyadic,
    horner_exact,
    round_exact,
    values_at,
)

Exponent = Tuple[int, int]
_ZERO = Fraction(0)  # immutable: every absent coefficient reads as this one


def polyval(x, c: np.ndarray):
    """``sum_k c[k] x^k`` by Horner, as ``numpy.polynomial.polynomial.polyval(x, c)``.

    The same operations in the same order give the same bits.  At an array
    ``x`` the value has shape ``c.shape[1:] + x.shape`` (numpy's tensor
    mode).  Importing ``numpy.polynomial`` would cost every process 2-6 ms.
    """
    c = c.reshape(c.shape + (1,) * np.ndim(x))
    value = c[-1] + x * 0
    for k in range(len(c) - 2, -1, -1):
        value = c[k] + value * x
    return value


class BivariatePolynomial:
    """Polynomial in x and y over the rationals, stored sparsely.

    Zero coefficients are never stored; the zero polynomial has no terms.
    The terms are never changed after construction, which the caches of
    the integer columns and the partial derivatives rely on.
    """

    __slots__ = ("terms", "_columns", "_partials")

    def __init__(self, terms: Dict[Exponent, Fraction] | None = None):
        clean: Dict[Exponent, Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent ({i}, {j})")
                c = Fraction(c)
                if c != 0:
                    clean[(int(i), int(j))] = c
        self.terms = clean
        self._columns: tuple | None = None
        self._partials: Dict[str, "BivariatePolynomial"] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def from_items(cls, items: Iterable[Tuple[int, int, object]]) -> "BivariatePolynomial":
        """Build from (i, j, coefficient) triples; coefficient strings allowed."""
        terms: Dict[Exponent, Fraction] = {}
        for i, j, c in items:
            key = (int(i), int(j))
            terms[key] = terms.get(key, _ZERO) + parse_rational(c)
        return cls(terms)

    @classmethod
    def constant(cls, c) -> "BivariatePolynomial":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def x(cls) -> "BivariatePolynomial":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def y(cls) -> "BivariatePolynomial":
        return cls({(0, 1): Fraction(1)})

    # -- basic structure -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        """Terms in lexicographic (i, j) order; the canonical ordering."""
        return sorted(self.terms.items())

    def degree_x(self) -> int:
        return max((i for i, _ in self.terms), default=0)

    def degree_y(self) -> int:
        return max((j for _, j in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(ij == (0, 0) for ij in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0), _ZERO)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), _ZERO)

    # -- arithmetic (exact) ----------------------------------------------

    def __add__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            other = BivariatePolynomial.constant(other)
        terms = dict(self.terms)
        for ij, c in other.terms.items():
            terms[ij] = terms.get(ij, _ZERO) + c
        return BivariatePolynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial({ij: -c for ij, c in self.terms.items()})

    def __sub__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            other = BivariatePolynomial.constant(other)
        return self + (-other)

    def __mul__(self, other) -> "BivariatePolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        terms: Dict[Exponent, Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                terms[key] = terms.get(key, _ZERO) + c1 * c2
        return BivariatePolynomial(terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "BivariatePolynomial":
        c = Fraction(c)
        return BivariatePolynomial({ij: c * v for ij, v in self.terms.items()})

    def partial(self, var: str) -> "BivariatePolynomial":
        """Exact formal partial derivative with respect to "x" or "y", made once."""
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        if var not in self._partials:
            terms: Dict[Exponent, Fraction] = {}
            for (i, j), c in self.terms.items():
                if var == "x" and i > 0:
                    terms[(i - 1, j)] = terms.get((i - 1, j), _ZERO) + c * i
                elif var == "y" and j > 0:
                    terms[(i, j - 1)] = terms.get((i, j - 1), _ZERO) + c * j
            self._partials[var] = BivariatePolynomial(terms)
        return self._partials[var]

    # -- views ------------------------------------------------------------

    def integer_coeffs_in_y(self):
        """``(den, rows)``: the x-coefficients of each y^j of ``den * self``, as ints.

        ``den`` is the lcm of the denominators.  The rows are the cached
        integer columns, shared by every caller: they must not be changed.
        """
        den, cols, _ = self._integer_columns()
        return den, cols

    def float_coeffs(self) -> np.ndarray:
        """Dense float matrix A with A[i, j] = [x^i y^j] self.

        Raises ``EvaluationOverflow``, naming the term, when a coefficient
        is beyond the double range.
        """
        out = np.zeros((self.degree_x() + 1, self.degree_y() + 1))
        for (i, j), c in self.terms.items():
            try:
                out[i, j] = float(c)
            except OverflowError:
                raise EvaluationOverflow(
                    f"coefficient of x^{i} y^{j} is beyond the double range"
                ) from None
        return out

    def moduli_in_y(self):
        """The moduli of each y^j's x-coefficients as ``unipoly`` exact forms, j ascending."""
        den, _, moduli = self._integer_columns()
        return [(col, None, den) for col in moduli]

    def swap_variables(self) -> "BivariatePolynomial":
        return BivariatePolynomial({(j, i): c for (i, j), c in self.terms.items()})

    def specialize_x(self, value):
        """Ascending mpc coefficient list in y with x set to ``value``, each rounded once."""
        den, cols, _ = self._integer_columns()
        return values_at([(col, None, den) for col in cols], to_mpc(value))

    # -- evaluation --------------------------------------------------------

    def _integer_columns(self):
        """``(den, columns, moduli)``: the coefficients over their lcm ``den``.

        Column j of ``columns`` holds the ints ``c_ij * den`` of y^j with i
        ascending, trimmed; ``moduli`` holds their absolute values.
        """
        if self._columns is None:
            den = math.lcm(*(c.denominator for c in self.terms.values()))
            cols = [[0] * (self.degree_x() + 1) for _ in range(self.degree_y() + 1)]
            for (i, j), c in self.terms.items():
                cols[j][i] = c.numerator * (den // c.denominator)
            for col in cols:
                while len(col) > 1 and not col[-1]:
                    col.pop()
            self._columns = (den, cols, [[abs(v) for v in col] for col in cols])
        return self._columns

    def _horner_nested(self, cols, x, y):
        """``(re, im, exp)`` with ``(re + i*im) * 2^exp`` the integer ``cols`` at (x, y), exactly.

        Each column is evaluated in x by ``horner_exact`` and scaled to the
        longest column's power of two; those values are then the
        coefficients of one ``horner_exact`` pass in y.
        """
        xa, xb, xs = dyadic(x)
        ya, yb, ys = dyadic(y)
        dx = max(len(col) for col in cols) - 1
        vr, vi = [], []
        for col in cols:
            ur, ui = horner_exact(col, None, xa, xb, xs)
            shift = xs * (dx + 1 - len(col))
            vr.append(ur << shift)
            vi.append(ui << shift)
        ur, ui = horner_exact(vr, vi, ya, yb, ys)
        return ur, ui, -xs * dx - ys * (len(cols) - 1)

    def eval(self, x, y):
        """The value at complex (x, y), exact and rounded once to ``mp.prec``.

        Raises EvaluationOverflow when a part of x or y is not finite.
        """
        if not self.terms:
            return to_mpc(0)
        den, cols, _ = self._integer_columns()
        return round_exact(*self._horner_nested(cols, to_mpc(x), to_mpc(y)), den)

    def eval_double(self, x: complex, y: complex):
        """``unipoly.double_values`` at the complex doubles (x, y): value, magnitude sum, bound.

        None when a coefficient has no finite normal double.
        """
        den, cols, _ = self._integer_columns()
        doubles = [double_coefficients((col, None, den)) for col in cols]
        return None if None in doubles else double_values(doubles, x, y)

    def eval_array(self, x, y) -> np.ndarray:
        """Double-precision values at numpy arrays ``x``, ``y`` broadcast together.

        Horner in y over columns evaluated in x; the result array is updated
        in place so a large grid holds one complex128 buffer.
        """
        A = self.float_coeffs()
        x, y = np.asarray(x), np.asarray(y)
        out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
        out[...] = polyval(x, A[:, -1])
        for j in range(A.shape[1] - 2, -1, -1):
            out *= y
            out += polyval(x, A[:, j])
        return out

    def vanish_floor(self, x, y) -> float:
        """|H| at or below this counts as zero on the quadrature's torus of radii |x|, |y|.

        It is 1e-9 of the magnitude sum ``sum |h_ij| |x|^i |y|^j``, in doubles.
        """
        return 1e-9 * float(polyval(abs(y), polyval(abs(x), np.abs(self.float_coeffs()))))

    def ray_argument(self, a, b, t_end: float) -> Tuple[float, float]:
        """Continuous argument of h(t) = H(t*a, t*b) at t = 0 and at t = ``t_end``.

        h, from ``float_coeffs`` with its top zero coefficients trimmed, is
        h(0) prod (1 - t/z_k); each factor runs along a segment from 1, so
        arg h turns by exactly sum Arg(1 - t_end/z_k), or 0 when h is real.
        Raises EvaluationOverflow when h leaves the double range, and
        BranchTrackingError when a root's Smith disk (radius n |h(z_k)| /
        |h_n prod_{j != k} (z_k - z_j)| about ``np.roots``' z_k; the disks
        hold every root) meets (0, t_end].
        """
        A = self.float_coeffs()
        i, j = np.indices(A.shape)
        h = np.zeros(sum(A.shape) - 1, dtype=np.complex128)
        with np.errstate(all="ignore"):  # a power past the double range is refused below
            np.add.at(h, i + j, A * complex(a) ** i * complex(b) ** j)
            if not np.isfinite(h).all():
                raise EvaluationOverflow("H on the ray leaves the double range")
            h = np.trim_zeros(h, "b")[::-1]  # descending, as np.roots and np.polyval take it
            z, start = np.roots(h), float(np.angle(h[-1]))
            apart = np.prod(np.where(np.eye(z.size, dtype=bool), 1, z[:, None] - z), axis=1)
            radii = z.size * np.abs(np.polyval(h, z) / (h[0] * apart))
        if not (np.abs(z - np.clip(z.real, 0.0, t_end)) > radii).all():  # NaN radii fail
            raise BranchTrackingError("H vanishes on the ray from the origin")
        return start, start + float(np.angle(1 - t_end / z).sum()) if h.imag.any() else start

    def eval_magnitude_scale(self, x, y) -> mpf:
        """Sum of |h_ij| |x|^i |y|^j: the natural scale for residual checks.

        |x| and |y| are taken at working precision, the sum exactly and
        rounded once; x and y may be given as their moduli.
        """
        den, _, moduli = self._integer_columns()
        ax, ay = (abs(v) if isinstance(v, mpf) else abs(to_mpc(v)) for v in (x, y))
        return round_exact(*self._horner_nested(moduli, ax, ay), den).real

    # -- formatting ---------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "BivariatePolynomial(0)"
        bits = []
        for (i, j), c in self.sorted_terms():
            mono = "".join(
                f"{v}^{e}" if e > 1 else (v if e == 1 else "")
                for v, e in (("x", i), ("y", j))
            )
            bits.append(f"{c}{'*' if mono else ''}{mono}")
        return "BivariatePolynomial(" + " + ".join(bits) + ")"


def poly_eval(p: BivariatePolynomial, x, y):
    """Evaluate ``p`` at a complex point; see BivariatePolynomial.eval."""
    return p.eval(x, y)


def poly_partial(p: BivariatePolynomial, var: str) -> BivariatePolynomial:
    """Exact formal partial derivative of ``p``; see BivariatePolynomial.partial."""
    return p.partial(var)
