"""Ground-truth coefficient tables for G * H**(-beta).

Three independent routes:

* an exact rational recurrence driven by the identity H*F_x = -beta*H_x*F
  (with the analogous y-identity seeding the x = 0 column),
* a closed form for linear H via generalized binomials,
* numerical Cauchy quadrature over a torus, with the branch of H**(-beta)
  fixed by continuous argument tracking anchored at the origin; as H and G
  have real coefficients and the radii are real, the rows past the middle
  of the theta1 grid mirror the rows below it.  The rows are walked in
  blocks of a fixed node count, ``_BLOCK_NODES``, in buffers allocated once
  per call, and each block's row FFT runs in place in them.  A block's H is
  one real matrix product per pair of rows, from H's coefficients in y
  evaluated once per row and the powers of y, written as contiguous real
  and imaginary parts; |H|**(-beta) is one log and one exp of |H|**2.  A
  block's argument steps are scanned only when its argument range allows a
  jump.  With beta = 1/2, a row that stays within half the jump limit of
  the anchor's direction takes H**(-1/2) from two square roots per node
  instead.  G is applied to the kept outputs of the row FFTs of
  H**(-beta) rather than at every node.

Exact tables are stored for (H/h00)**(-beta); the scalar h00**(-beta) is
kept as a symbolic prefactor and folded in only when it is rational.  Both
exact routes fill integer numerators over one scale per total degree
(``TruncatedSeries.scaled``) and an entry is reduced to a Fraction only when
it is read, so a caller that reads a few entries pays for those alone.

The recurrence runs as a row kernel: row a is built from rows a - i,
i <= deg_x H, by whole-row multiply-adds over Python ints, then divided by
a, the division checked by one sum per row.  It does no arithmetic on
entries that are zero by construction: a row with no nonzero source row is
the zero row, a row's columns past the reach of its source rows' nonzero
columns are zero, and so is every cell off the lattice of H's exponents
(Pemantle and Wilson, CUP 2013), a sum of no terms; a row keeps only its
cells on that lattice, every C-th column.  ``coeff_recurrence``
keeps every row (the table for the CSV export);
``coefficients_at`` streams the same rows and keeps a window of them, for
callers that need a few entries.  ``coeff_recurrence(order="antidiagonal")``
is the independent reference: a per-cell step along antidiagonals.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, repeat
from operator import add, floordiv
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np
from mpmath import mp, mpc, mpf

from .bivariate import BivariatePolynomial, polyval
from .errors import BranchTrackingError, ConfigError, EvaluationOverflow, SingularAtOrigin
from .precision import to_mpc, to_mpf
from .rationals import binomial_general, hermite_basis
from .series import Prefactor, ScaledRow, TruncatedSeries, poly_times_series

Box = Tuple[int, int]

_JUMP_LIMIT = 0.95 * math.pi
_CONE_SIN2 = math.sin(_JUMP_LIMIT / 2) ** 2  # the cone of ``_in_cone``
_HALF = Fraction(1, 2)
# Nodes per quadrature block: a block's temporaries stay in a core's L2
# cache, and a call's memory does not grow with N2.
_BLOCK_NODES = 1 << 15


@dataclass(frozen=True)
class OracleConfig:
    """Quadrature setup: box, exponent, torus radii, angular grid sizes."""

    box: Box
    beta: Fraction
    quadrature_radii: Tuple[float, float]
    quadrature_grid: Tuple[int, int] = (512, 512)

    def __post_init__(self):
        R, S = self.box
        if R < 0 or S < 0:
            raise ConfigError("box must be nonnegative")
        c1, c2 = self.quadrature_radii
        if not (0 < c1 < math.inf and 0 < c2 < math.inf):
            raise ConfigError("quadrature radii must be positive and finite")
        N1, N2 = self.quadrature_grid
        for n in (N1, N2):
            if n < 64 or (n & (n - 1)) != 0:
                raise ConfigError("quadrature grid sizes must be powers of two >= 64")
        if R >= N1 // 4 or S >= N2 // 4:
            raise ConfigError("box too large for quadrature grid; raise the grid size")


class CoefficientTable:
    """Coefficients of G*H**(-beta) on a box, exact or numeric.

    The exact oracles (recurrence, closed form) populate ``series`` and
    ``prefactor``; quadrature populates complex ``values`` with per-entry
    error estimates.
    """

    def __init__(
        self,
        series: Optional[TruncatedSeries] = None,
        prefactor: Prefactor = Prefactor(),
        values: Optional[np.ndarray] = None,
        errors: Optional[np.ndarray] = None,
    ):
        self.series = series
        self.prefactor = prefactor
        self.values = values
        self.errors = errors

    @property
    def box(self) -> Box:
        if self.series is not None:
            return self.series.box
        return (self.values.shape[0] - 1, self.values.shape[1] - 1)

    def _check(self, r: int, s: int) -> None:
        R, S = self.box
        if not (0 <= r <= R and 0 <= s <= S):
            raise ConfigError("target outside the oracle box")

    def value(self, r: int, s: int):
        """Entry value at current precision (prefactor folded in).

        An exact entry is its numerator over its scale rounded once
        (``ScaledRow.value``): no Fraction is built, and the bits equal
        ``to_mpf`` of the reduced entry.
        """
        self._check(r, s)
        if self.series is not None:
            return exact_value(self.series.coeffs[r].value(s), self.prefactor)
        return to_mpc(complex(self.values[r, s]))

    def csv_cells(self):
        """(r, s, CSV cells after "r,s,", value) per entry, in row order.

        An exact entry is read once, and the prefactor evaluated once per
        table.
        """
        if self.series is None:
            R, S = self.box
            for r in range(R + 1):
                for s in range(S + 1):
                    z = complex(self.values[r, s])
                    yield r, s, f"{z.real:.17g},{z.imag:.17g},{self.entry_error(r, s):.3e}", z
            return
        scalar = 1 if self.prefactor.is_one() else self.prefactor.value()
        for r, row in enumerate(self.series.coeffs):
            for s, c in enumerate(row):
                v = to_mpf(c) * scalar
                yield r, s, f"{c.numerator},{c.denominator},{format_entry(v)}", v

    def log10_abs(self, r: int, s: int):
        """log10 |entry|, exact path overflow-safe; -inf for a zero entry."""
        self._check(r, s)
        if self.series is not None:
            return exact_log10_abs(self.series.coeffs[r].value(s), self.prefactor)
        v = abs(complex(self.values[r, s]))
        return mp.ninf if v == 0 else mp.log(to_mpf(v), 10)

    def entry_error(self, r: int, s: int) -> float:
        self._check(r, s)
        return 0.0 if self.errors is None else float(self.errors[r, s])


def exact_value(c, prefactor: Prefactor):
    """c (a Fraction or an mpf) times the prefactor, at current precision."""
    v = to_mpf(c)
    return v if prefactor.is_one() else v * prefactor.value()


def exact_log10_abs(c, prefactor: Prefactor):
    """log10 |c times the prefactor|, overflow-safe; -inf for c = 0; c as in ``exact_value``."""
    if c == 0:
        return mp.ninf
    return mp.log(abs(to_mpf(c)), 10) + prefactor.log10_abs()


def _origin_power(h00: Fraction, beta) -> Tuple[int, int, Prefactor]:
    """h00**(-beta) as (num, den, prefactor).

    When the power is rational it is num/den and the prefactor is 1; else
    num = den = 1 and the power is the symbolic prefactor.
    """
    if h00 == 0:
        raise SingularAtOrigin("singular at origin")
    prefactor = Prefactor(h00, -beta)
    folded = prefactor.rational_value()
    if folded is None:
        return 1, 1, prefactor
    num, den = folded.as_integer_ratio()
    return num, den, Prefactor()


def _integer_terms(
    H: BivariatePolynomial, beta: Fraction
) -> Tuple[int, List[Tuple[int, int, int]]]:
    """(w, terms) of the integer fill of (H/h00)**(-beta).

    With beta = u/v, D the lcm of the denominators of h = H/h00 and
    w = v*v*D, each nonconstant term h_ij gives (i, j, n_ij*v**(2k-1)*D**(k-1))
    with n_ij = D*h_ij and k = i + j.
    """
    h00 = H.constant_term()
    h = {ij: c / h00 for ij, c in H.terms.items() if ij != (0, 0)}
    v = beta.denominator
    D = math.lcm(*(c.denominator for c in h.values()))
    terms = [
        (i, j, c.numerator * (D // c.denominator) * v ** (2 * (i + j) - 1) * D ** (i + j - 1))
        for (i, j), c in h.items()
    ]
    return v * v * D, terms


def _inexact(a: int, b: int) -> ArithmeticError:
    return ArithmeticError(f"inexact recurrence step at ({a}, {b})")


def _integer_rows(terms, beta: Fraction, R: int, S: int) -> Iterator[List[int]]:
    """Rows 0..R of the integer table g, each S + 1 ints, one row at a time.

    Row 0 follows the y-identity cell by cell.  Row a >= 1 takes one
    whole-row multiply-add per term with i >= 1 (row a - i shifted by j,
    times -m_ij*(v*(a - i) + u*i)), one exact division of the row by a, then
    a pass along the row for the pure-y terms.  A pure-y term's factor
    m_0j*(v*a + u*0) is a multiple of a, so it subtracts v*m_0j*g[a][b-j]
    after the division, and a nonzero remainder of the division is one of
    the full step.  With one pure-y term y^j that pass is one multiply-add
    per cell along each residue class of b mod j.  Only the last deg_x H
    rows are kept.  The division is checked by one sum: with a > 0 each
    remainder lies in [0, a), so a*sum(quotients) = sum(row) exactly when
    every remainder is 0, and only a failing row is scanned for its cell.

    Entries that are zero by construction take no arithmetic.  A cell's
    step sums cells one term exponent (i, j) back, so from g[0][0] = 1 only
    cells of the exponents' lattice L are reached.  With its basis (A, B),
    (0, C) (``hermite_basis``), row a is zero unless A divides a, and holds
    only the cells b = t_a (mod C), t_a = (a/A)*B mod C.  A row is kept as
    those cells alone: a term (i, j) shifts its source row by
    (j + t_(a-i) - t_a)/C cells, a pure-y term y^j by j/C, and the row is
    spread to S + 1 columns only when it is yielded.  A rank-1 L is kept as
    a rank-2 lattice that holds it: A = 1 when L lies on the y axis, C = 1
    when it lies on the x axis, and else C past every column a row reaches,
    so that a row holds one cell at most.  A row with no nonzero source row
    is the zero row, with no division and no pure-y pass, and the rows are
    kept trimmed to a bound hi_a on their nonzero cells: with no pure-y
    term of degree <= S, row 0 is [1]; row a reaches column
    min(S, hi_(a-i) + j) over the terms whose source row a - i is nonzero,
    and its last cell when a pure-y term spreads it.  Every cell off L or
    past hi_a is a sum of no terms, so it is 0 and its division is exact:
    a remainder names the same first cell as a fill of every cell.
    """
    u, v = beta.numerator, beta.denominator
    A, B, C = hermite_basis((i, j) for i, j, _ in terms)
    A = A or 1  # every exponent on the y axis: B = 0, and rows >= 1 have no term
    C = C or (S + 1 + B * (R // A) if B else 1)  # rank 1: t_a = (a/A)*B, a row's one cell
    column = sorted((j, m) for i, j, m in terms if i == 0 and j <= S)
    row = [1] + [0] * (S // C) if column else [1]
    for k in range(1, len(row)):
        b, total = C * k, 0
        for j, m in column:
            if j > b:
                break
            total += m * (v * (b - j) + u * j) * row[k - j // C]
        row[k], rem = divmod(-total, b)
        if rem:
            raise _inexact(0, b)
    yield _spread(row, 0, C, S)
    shifted = sorted((i, j, -m) for i, j, m in terms if i and j <= S)
    in_row = [(j // C, v * m) for j, m in column]
    # Row a's (t_a, cell count, its terms (i, shift, m)), periodic in a.
    plans = []
    for a in range(1, min(R, A * C) + 1):
        t = a // A * B % C
        n = (S - t) // C + 1
        shifts = [(i, (j + (a - i) // A * B % C - t) // C, m) for i, j, m in shifted]
        plans.append((t, n, [term for term in shifts if term[1] < n and a % A == 0]))
    window = deque([row], maxlen=max((i for i, _, _ in shifted), default=1))
    for a, (t, n, plan) in zip(range(1, R + 1), cycle(plans)):
        acc = None
        for i, j, m in plan:
            if i > a:
                break
            src = window[-i][: n - j]
            if not src:
                continue
            tail = map((m * (v * (a - i) + u * i)).__mul__, src)
            if acc is None:
                acc = [0] * j + list(tail)
            else:
                end = j + len(src)
                if end > len(acc):
                    acc += [0] * (end - len(acc))
                acc[j:end] = map(add, acc[j:end], tail)
        if acc is None:
            window.append([])
            yield [0] * (S + 1)
            continue
        row = list(map(floordiv, acc, repeat(a)))
        if a * sum(row) != sum(acc):
            raise _inexact(a, t + C * next(k for k, x in enumerate(acc) if x % a))
        if in_row:
            row += [0] * (n - len(row))
            if len(in_row) == 1:
                ((j, e),) = in_row
                for r in range(j):
                    x = row[r]
                    for k in range(r + j, n, j):
                        x = row[k] - e * x
                        row[k] = x
            else:
                for k in range(1, n):
                    x = row[k]
                    for j, e in in_row:
                        if j > k:
                            break
                        x -= e * row[k - j]
                    row[k] = x
        window.append(row)
        yield row if len(row) > S else _spread(row, t, C, S)


def _spread(row: List[int], t: int, C: int, S: int) -> List[int]:
    """The S + 1 columns of a row kept as its cells t, t + C, ..."""
    out = [0] * (S + 1)
    out[t : t + C * len(row) : C] = row
    return out


def _antidiagonal_rows(terms, beta: Fraction, R: int, S: int) -> List[List[int]]:
    """The integer table g filled cell by cell along antidiagonals.

    The independent reference for ``_integer_rows``: each step sums every
    term of the recurrence at one cell.
    """
    u, v = beta.numerator, beta.denominator
    column = [(j, m) for i, j, m in terms if i == 0]
    g = [[0] * (S + 1) for _ in range(R + 1)]
    g[0][0] = 1
    # Row a's step, term by term: (i, j, its integer factor).
    factors = [
        [(i, j, m * (v * (a - i) + u * i)) for i, j, m in terms if i <= a] for a in range(R + 1)
    ]

    def step(a: int, b: int) -> None:
        total = 0
        if a:
            for i, j, m in factors[a]:
                if j <= b:
                    total += m * g[a - i][b - j]
        else:
            for j, m in column:
                if j <= b:
                    total += m * (v * (b - j) + u * j) * g[0][b - j]
        q, rem = divmod(-total, a or b)
        if rem:
            raise _inexact(a, b)
        g[a][b] = q

    for d in range(1, R + S + 1):
        for a in range(min(d, R), max(0, d - S) - 1, -1):
            step(a, d - a)
    return g


def coeff_recurrence(
    H: BivariatePolynomial,
    G: Optional[BivariatePolynomial],
    beta: Fraction,
    box: Box,
    order: str = "rows",
) -> CoefficientTable:
    """Exact table of G*H**(-beta) from the differential recurrence.

    With h = H/h00, h*F_x = -beta*h_x*F gives
    a*f[a][b] = -sum h_ij*((a-i) + beta*i)*f[a-i][b-j] over (i, j) != (0, 0),
    and the y-identity the same form, divided by b, down the column a = 0.
    The fill uses Python ints only.  With beta = u/v, D the lcm of the
    denominators of h and w = v*v*D, it stores g[a][b] = f[a][b]*w**(a+b),
    whose sum has the integer factors n_ij*(v*(a-i) + u*i)*v**(2k-1)*D**(k-1)
    with n_ij = D*h_ij and k = i + j.  The division by a (or b) is exact:
    f[a][b] sums binom(-u/v, k)*[x^a y^b](h - 1)**k over k <= a + b, the
    denominator of binom(-u/v, k) divides v**(2k) and that of the second
    factor divides D**k.  A nonzero remainder raises ``ArithmeticError``
    naming the cell.

    ``order="rows"`` runs the row kernel that ``coefficients_at`` also
    streams: one whole-row multiply-add per term of H over earlier rows,
    the exact division of the row by a, then a pass along the row for the
    pure-y terms.  ``order="antidiagonal"`` fills cell by cell along
    antidiagonals, summing every term at each cell; it is the independent
    reference for the row kernel.  The table is returned as it is, a scaled
    series (``TruncatedSeries.scaled``) with entry g[a][b] over
    den*w**(a+b): when h00**(-beta) = num/den is rational, num is multiplied
    into g, else den = 1 and h00**(-beta) is carried as the prefactor.  An
    entry is reduced to a Fraction only when it is read, and the product
    with G stays on integers (``poly_times_series``).
    """
    R, S = int(box[0]), int(box[1])
    num, den, prefactor = _origin_power(H.constant_term(), beta)
    w, terms = _integer_terms(H, beta)
    if order == "rows":
        g = list(_integer_rows(terms, beta, R, S))
    elif order == "antidiagonal":
        g = _antidiagonal_rows(terms, beta, R, S)
    else:
        raise ConfigError(f"unknown fill order {order!r}")
    if num != 1:
        g = [[x * num for x in row] for row in g]
    series = TruncatedSeries.scaled((R, S), g, [den * w**k for k in range(R + S + 1)])
    if G is not None and G != BivariatePolynomial.constant(1):
        series = poly_times_series(G, series)
    return CoefficientTable(series=series, prefactor=prefactor)


def coefficients_at(
    H: BivariatePolynomial,
    G: Optional[BivariatePolynomial],
    beta: Fraction,
    targets: Sequence[Tuple[int, int]],
) -> Tuple[ScaledRow, Prefactor]:
    """Exact [x^r y^s] G*H**(-beta) at each target, without the full table.

    Streams the row kernel of ``coeff_recurrence`` up to the largest target
    row, over columns 0..max s, and keeps at most deg_x H + deg_x G + 1
    integer rows: the kernel reads rows a - i for i <= deg_x H and the
    product with G rows r - i for i <= deg_x G.  Returns the targets' values,
    in order, as a ``ScaledRow`` of integer numerators over their own
    scales: entry k reads as the reduced Fraction equal to
    ``coeff_recurrence``'s entry, and ``.value(k)`` rounds it once with no
    gcd.  The prefactor is shared by all of them.
    """
    if any(r < 0 or s < 0 for r, s in targets):
        raise ConfigError("targets must be nonnegative")
    num, den, prefactor = _origin_power(H.constant_term(), beta)
    w, terms = _integer_terms(H, beta)
    if G is None:
        G = BivariatePolynomial.constant(1)
    g_den = math.lcm(*(c.denominator for c in G.terms.values()))
    g_terms = [(i, j, c.numerator * (g_den // c.denominator)) for (i, j), c in G.terms.items()]
    R = max((r for r, _ in targets), default=-1)
    S = max((s for _, s in targets), default=0)
    kept = deque(maxlen=G.degree_x() + 1)
    nums, scales = {}, {}
    for a, row in enumerate(_integer_rows(terms, beta, R, S)):
        kept.append(row)
        for r, s in targets:
            if r == a:
                nums[r, s] = num * sum(
                    c * w ** (i + j) * kept[-1 - i][s - j] for i, j, c in g_terms if i <= r and j <= s
                )
                scales[r, s] = g_den * den * w ** (r + s)
    return ScaledRow([nums[t] for t in targets], [scales[t] for t in targets], 0), prefactor


def coeff_linear_closed_form(
    c0: Fraction, c1: Fraction, c2: Fraction, beta: Fraction, r: int, s: int
) -> Tuple[Fraction, Prefactor]:
    """[x^r y^s] (c0 + c1*x + c2*y)**(-beta) by generalized binomials.

    Returns the exact rational part and the symbolic prefactor c0**(-beta)
    (folded into the rational part when it is itself rational).
    """
    c0, c1, c2, beta = Fraction(c0), Fraction(c1), Fraction(c2), Fraction(beta)
    num, den, prefactor = _origin_power(c0, beta)
    n = r + s
    rational = (
        binomial_general(-beta, n)
        * math.comb(n, r)
        * c1**r
        * c2**s
        / c0**n
    )
    return rational * num / den, prefactor


def closed_form_table(
    H: BivariatePolynomial, beta: Fraction, box: Box
) -> CoefficientTable:
    """Full box of closed-form entries for linear H = c0 + c1*x + c2*y.

    Entry (r, s) is C(-beta, n) * comb(n, r) * c1**r * c2**s / c0**n times
    c0**(-beta), n = r + s, filled on integers over the scales den*w**n
    that ``coeff_recurrence`` uses.  With beta = u/v, c_i = p_i/q_i,
    M = lcm(q1, q2) and w = v*v*|p0|*M, the numerator of entry (r, s) is
    K[n] * comb(n, r) * (p1*M/q1)**r * (p2*M/q2)**s with
    K[n] = num * C(-u/v, n) * v**(2n) * (q0*sgn(p0))**n.  K[n] is an
    integer, because the denominator of C(-u/v, n) divides v**(2n), so the
    step K[n+1] = K[n] * (-u - n*v) * v * q0 * sgn(p0) / (n + 1) divides
    exactly; a nonzero remainder raises ``ArithmeticError``.
    """
    if H.degree_x() > 1 or H.degree_y() > 1 or H.coefficient(1, 1) != 0:
        raise ConfigError("closed form requires linear H")
    c0 = H.constant_term()
    num, den, prefactor = _origin_power(c0, beta)
    c1, c2 = H.coefficient(1, 0), H.coefficient(0, 1)
    R, S = int(box[0]), int(box[1])
    u, v = beta.numerator, beta.denominator
    M = math.lcm(c1.denominator, c2.denominator)
    w = v * v * abs(c0.numerator) * M
    step = v * c0.denominator * (1 if c0 > 0 else -1)
    K = [num]
    for n in range(R + S):
        k, rem = divmod(K[n] * (-u - n * v) * step, n + 1)
        if rem:
            raise ArithmeticError(f"inexact closed-form step at degree {n + 1}")
        K.append(k)
    a1, a2 = (c.numerator * (M // c.denominator) for c in (c1, c2))
    p1, p2 = [a1**r for r in range(R + 1)], [a2**s for s in range(S + 1)]
    nums = [
        [K[r + s] * math.comb(r + s, r) * p1[r] * p2[s] for s in range(S + 1)]
        for r in range(R + 1)
    ]
    series = TruncatedSeries.scaled((R, S), nums, [den * w**n for n in range(R + S + 1)])
    return CoefficientTable(series=series, prefactor=prefactor)


# ----------------------------------------------------------------------
# Cauchy quadrature
# ----------------------------------------------------------------------


def quadrature_values(
    H: BivariatePolynomial,
    G: Optional[BivariatePolynomial],
    beta: Fraction,
    cfg: OracleConfig,
) -> CoefficientTable:
    """Numeric coefficient table over the full box by torus quadrature.

    Composite trapezoid rule over both angles (spectrally accurate for the
    periodic analytic integrand), with the half-resolution grid's difference
    as the error estimate.  arg H is anchored by the ray from the origin (H
    is real on it: ``ray_argument`` gives arg H(0, 0)), tracked down the
    theta2 = 0 column (``eval_array``), then along theta2
    (``_tracked_argument``: one arctan2 per node, and 2 pi added or taken
    away after each crossing of the negative real axis; rows whose
    arguments span less than ``_JUMP_LIMIT`` take no step scan).  That
    branch of Phi = H^(-beta) is periodic only when arg H turns by 0 round
    the column and round every row; a zero of H inside the polydisk off the
    positive ray can make it turn by 2 pi.  H and G have real coefficients
    and the radii are real, so H(conj x, conj y) = conj H(x, y), the
    tracked argument maps to 2*anchor - arg H, and Phi, like F = G*Phi, has
    Phi(conj x, conj y) = phi*conj Phi(x, y) with phi = exp(-2i*beta*anchor).

    Only rows 0..N1/2 of the theta1 grid are evaluated, in blocks of
    2*max(1, _BLOCK_NODES // (2*N2)) rows (an even count, so each block
    starts on a row of the half grid), in buffers allocated once per call.
    H is taken over 2^e, the power of two just above its magnitude sum on
    the torus, which rounds no product and keeps |H|^2 in the double range;
    the outputs are multiplied by 2^(-beta*e) at the end.  Once per call,
    h_j(x) = [y^j] H is evaluated on the rows and y^j on the row's nodes
    (``_power_basis``); a block's Re H and Im H are then one 2-row matrix
    product per pair of rows (``_pair_products``), written straight into
    contiguous float buffers, so a block's values do not depend on its
    size.  The last pair may reach row N1/2 + 1, which is computed and not
    used.  |H|^2 is tested against floor^2 on the whole block, with no
    square root (``_squared_modulus``).

    Then each row takes one of two routes, chosen per row so that the
    values do not depend on the block size; a block runs each run of
    consecutive rows of one route at once.  The tan route (``_tan_phase``)
    tracks arg H along the row (``_unwrapped_argument``) and takes
    |H|^(-beta) = exp(-beta/2 * log |H|^2) and the phase of Phi from
    tan(-beta*arg/2) (``_polar``).  With beta = 1/2, the exponent of every
    problem file, a row whose nodes all lie within _JUMP_LIMIT/2 of the
    anchor's direction sign = +-1 (H(0, 0) is real; ``_in_cone``) takes the
    square-root route (``_root_phase``) instead.  No step of such a row
    jumps or crosses the cut of that direction and the row does not wind,
    so it passes the tracker's checks, and its tracked argument is
    anchor + 2 pi*c + Arg(sign*H), c the column's turns up to the row.  So
    Phi there is exp(-i*anchor/2)*(-1)^c*(sign*H)^(-1/2), and the principal
    root is (s - i*sign*Im H)/(sqrt(2)*|H|*sqrt(s)), s = |H| + sign*Re H:
    two square roots and two divisions per node.  The constant factors,
    -i*(-1)^c/sqrt(2) over what ``_root_phase`` writes (``_root_factors``),
    go on the row's kept outputs.  Every other row, and every row at
    another beta, keeps the tan route bit for bit.

    Each block runs one row FFT, in place in the block's complex buffer,
    so no block allocates its transform, and keeps outputs -J..S of it,
    J = deg_y G, indices mod the row's length.  The
    half grid's nodes on an even row are every other node of that row, so
    output s of the half grid's row FFT is the mean of outputs s and
    s + N2/2 of the full row's; the block keeps that mean for its even
    rows.  Row N1 - k of a kept strip is phi times the conjugate of
    row k.  G is applied to the strips: output s of the row FFT of y^j*Phi
    is c2^j times output s - j of that of Phi, so output s of the row FFT
    of F is sum_j g_j(x)*c2^j*(output s - j), with g_j(x) = [y^j] G.  A
    column FFT on each N1 x (S + 1) strip gives the R + 1 rows (``fft2``'s
    DFT).

    Row N1 - k fails a check exactly when row k does.  Checks run in grid
    order; the first failure raises ``BranchTrackingError``: the column (H
    vanishing, then a jump), the ray, the column's winding, then each block
    of rows 0..N1/2 in theta1 order (vanishing, a jump, then winding; the
    rows of the square-root route can fail only the first).
    Before any of them, ``EvaluationOverflow`` (the CLI's exit 70) refuses
    a box and radii for which some ``c1^r * c2^s`` is not a finite nonzero
    double: entry (r, s) is the DFT output divided by it.
    """
    R, S = cfg.box
    c1, c2 = cfg.quadrature_radii
    N1, N2 = cfg.quadrature_grid
    with np.errstate(over="ignore", under="ignore"):
        scale = c1 ** np.arange(R + 1).reshape(-1, 1) * c2 ** np.arange(S + 1).reshape(1, -1)
    if not (np.isfinite(scale) & (scale != 0)).all():
        raise EvaluationOverflow(
            f"c1^r * c2^s leaves the double range in the box {cfg.box} "
            f"at radii ({c1:.6g}, {c2:.6g})"
        )
    b = float(to_mpf(beta))
    # H is taken over 2^e, the power of two just above its magnitude sum on
    # the torus: that rounds no product, and |H|^2 stays in the double range.
    floor = H.vanish_floor(c1, c2)
    e = math.frexp(1e9 * floor)[1]
    floor, shrink = math.ldexp(floor, -e), math.ldexp(1.0, -e)
    X = c1 * np.exp(1j * (2.0 * np.pi * np.arange(N1) / N1)).reshape(-1, 1)
    Y = c2 * np.exp(1j * (2.0 * np.pi * np.arange(N2) / N2)).reshape(1, -1)

    column = H.eval_array(X, Y[:, :1]).reshape(1, -1) * shrink
    sq, start = np.empty((2,) + column.shape)
    column_winds = _tracked_argument(column.real.copy(), column.imag.copy(), floor, sq, start)
    _, anchor = H.ray_argument(c1, c2, 1.0)
    _unwound(column_winds)
    start = start[0] + (anchor - start[0, 0])

    has_G = G is not None and G != BivariatePolynomial.constant(1)
    keep = np.arange(-(G.degree_y() if has_G else 0), S + 1)
    cols, upper = keep % N2, (keep + N2 // 2) % N2
    full = np.empty((N1, keep.size), dtype=np.complex128)
    half = np.empty((N1 // 2, keep.size), dtype=np.complex128)
    # H(0, 0) is real, so the anchor is 0 or pi: the direction +1 or -1.
    root, sign = beta == _HALF, 1.0 if anchor == 0.0 else -1.0
    routed = np.zeros(N1 // 2 + 1, dtype=bool)  # rows of the square-root route
    # Row pairs from row 0 on: the last pair may reach row N1/2 + 1.
    lre, lim, ypow = _power_basis(H.float_coeffs() * shrink, X[: N1 // 2 + 2, 0], c2, N2)
    step = 2 * max(1, _BLOCK_NODES // (2 * N2))
    W = np.empty((min(step, N1 // 2 + 2), N2), dtype=np.complex128)
    # Re H in the second half of W, the cone test's scratch in the first:
    # writing row k of W overwrites rows <= k of Re H, so each run of rows
    # below reads its own rows before it writes.
    spare, re = W.view(np.float64).reshape((2,) + W.shape)
    bufs = np.empty((3,) + W.shape)  # Im H, |H|^2, then a scratch array
    for lo in range(0, N1 // 2 + 1, step):
        hi = min(lo + step, N1 // 2 + 1)
        _pair_products(lre, lim, ypow, lo, (hi - lo + 1) // 2, re, bufs[0])
        w, r, (q, m, a) = W[: hi - lo], re[: hi - lo], bufs[:, : hi - lo]
        _squared_modulus(r, q, floor, m, a)
        if root:
            routed[lo:hi] = _in_cone(r, m, a, sign, spare[: hi - lo])
        winds = False
        for i, j, inside in _runs(routed[lo:hi]):
            if inside:
                _root_phase(r[i:j], q[i:j], m[i:j], a[i:j], sign, w[i:j])
            else:
                starts = start[lo + i : lo + j]
                winds |= _tan_phase(r[i:j], q[i:j], m[i:j], a[i:j], starts, b, w[i:j])
        _unwound(winds)
        np.fft.fft(w, axis=1, out=w)
        full[lo:hi] = w[:, cols]
        half[lo // 2 : (hi + 1) // 2] = (w[::2, cols] + w[::2, upper]) * 0.5
    if routed.any():
        factor = _root_factors(start[: N1 // 2 + 1], anchor).reshape(-1, 1)
        for strip, rows in ((full, slice(None)), (half, slice(None, None, 2))):
            part = strip[: routed[rows].size]
            np.multiply(part, factor[rows], out=part, where=routed[rows].reshape(-1, 1))
    phi = np.exp(-2j * b * anchor)  # Phi(conj x, conj y) = phi * conj Phi(x, y)
    for n, strip in ((N1 // 2, full), (N1 // 4, half)):
        strip[n + 1 :] = phi * np.conj(strip[n - 1 : 0 : -1])
    if has_G:
        full, half = _times_G(G, full, X, c2, S), _times_G(G, half, X[::2], c2, S)

    unit = 2.0 ** (-b * e)  # (2^e)^(-beta): Phi above is that of H over 2^e
    full, half = (
        np.fft.fft(strip, axis=0)[: R + 1] * (unit / (strip.shape[0] * n2)) / scale
        for strip, n2 in ((full, N2), (half, N2 // 2))
    )
    return CoefficientTable(values=full, errors=np.abs(full - half))


def _unwound(winds: bool) -> None:
    if winds:
        raise BranchTrackingError("branch tracking failed; H winds around 0 on the torus")


def _power_basis(
    A: np.ndarray, x: np.ndarray, c2: float, n2: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lre, lim, ypow)``: H = sum_j h_j(x)*y^j as real matrices.

    ``A[i, j]`` is [x^i y^j] H, ``x`` the grid's column of x and the y grid
    the ``n2`` points of the circle of radius ``c2``.  With h_j = polyval(x,
    A[:, j]), row n of ``lre`` is [Re h_j, -Im h_j] and of ``lim`` [Im h_j,
    Re h_j] at x[n], and ``ypow`` stacks the rows Re y^j over Im y^j, so Re H
    is ``lre @ ypow`` and Im H is ``lim @ ypow``.
    """
    hx = polyval(x, A).T
    m = np.arange(n2)
    yj = np.array(
        [c2**j * np.exp(1j * (2.0 * np.pi * (j * m % n2) / n2)) for j in range(A.shape[1])]
    )
    lre = np.concatenate((hx.real, -hx.imag), axis=1)
    lim = np.concatenate((hx.imag, hx.real), axis=1)
    return lre, lim, np.concatenate((yj.real, yj.imag))


def _pair_products(
    lre: np.ndarray,
    lim: np.ndarray,
    ypow: np.ndarray,
    lo: int,
    pairs: int,
    re: np.ndarray,
    im: np.ndarray,
) -> None:
    """Re H and Im H on rows lo..lo + 2*pairs - 1 into the first rows of ``re`` and ``im``.

    One matrix product per pair of rows (``_power_basis``): a 2-row product
    rounds the same whatever block it sits in, where BLAS rounds one
    product of a whole block differently as its row count changes.
    """
    k = 2 * pairs
    for coef, out in ((lre, re), (lim, im)):
        np.matmul(coef[lo : lo + k].reshape(pairs, 2, -1), ypow, out=out[:k].reshape(pairs, 2, -1))


def _squared_modulus(
    re: np.ndarray, im: np.ndarray, floor: float, sq: np.ndarray, scratch: np.ndarray
) -> None:
    """|W|^2 = re^2 + im^2 into ``sq``, and im^2 into ``scratch``, with no square root.

    Raises ``BranchTrackingError`` when |W|^2 is at most ``floor``^2
    somewhere.  ``re`` and ``im`` are left as they are.
    """
    np.multiply(re, re, out=sq)
    np.multiply(im, im, out=scratch)
    sq += scratch
    if sq.min() <= floor * floor:
        raise BranchTrackingError("branch tracking failed; H nearly vanishes on the torus")


def _tracked_argument(
    re: np.ndarray, im: np.ndarray, floor: float, sq: np.ndarray, arg: np.ndarray
) -> bool:
    """|W|^2 into ``sq``, arg W tracked along each row into ``arg``; whether a row winds.

    ``re`` and ``im`` hold Re W and Im W, and ``re`` may be overwritten; all
    four arrays are C-contiguous float arrays of one two-dimensional shape.
    Raises ``BranchTrackingError`` when |W|^2 is at most ``floor``^2
    somewhere (``_squared_modulus``), then when an argument step along a
    row is at least ``_JUMP_LIMIT`` (``_unwrapped_argument``).  The
    quadrature runs it on the theta2 = 0 column and, through
    ``_tan_phase``, on each run of a block's rows that does not take the
    square-root route: with beta = 1/2, a row whose nodes all lie within
    ``_JUMP_LIMIT``/2 of the anchor's direction (``_in_cone``) has no step
    that jumps or crosses the cut of that direction, so it cannot fail the
    checks and does not wind, and it skips the tracking.
    """
    _squared_modulus(re, im, floor, sq, arg)
    return _unwrapped_argument(re, im, arg)


def _unwrapped_argument(re: np.ndarray, im: np.ndarray, arg: np.ndarray) -> bool:
    """arg W tracked along each row into ``arg``; whether a row winds.

    Uses ``re`` as scratch.  Raises ``BranchTrackingError`` when an
    argument step along a row is at least ``_JUMP_LIMIT``.  A = arg W is
    one arctan2 per node: numpy's arctan2 runs faster on the contiguous
    parts than on the strided views of a complex array, with the same
    bits.  With d = A[n+1] - A[n], the true step is d when |d| <= pi and
    d -+ 2 pi when the row crosses the negative real axis, |d| > pi; a step
    is a jump when min(|d|, 2 pi - |d|) is at least the limit.  ``arg`` ends
    as A plus -2 pi*sign(d) after each crossing, so its first node stays
    A[0].  A row winds exactly when its signed crossings, the wrap step from
    the last node back to the first counted, do not sum to 0.  The steps
    are scanned only where a jump is possible: when max A - min A over the
    whole array is below the limit, every |d|, the wrap step's included, is
    too, so no step jumps or crosses, ``arg`` is A and no row winds.  A NaN
    fails that test and goes to the scan.
    """
    np.arctan2(im, re, out=arg)
    if arg.max() - arg.min() < _JUMP_LIMIT:
        return False  # no step, the wrap step included, can jump or cross
    # One pass over the flat buffer; column 0 would hold the step from the
    # row above, and holds 0.
    scratch = re
    flat = scratch.ravel()
    np.subtract(arg.ravel()[1:], arg.ravel()[:-1], out=flat[1:])
    scratch[:, 0] = 0.0
    np.abs(flat, out=flat)
    size = scratch[:, 1:]
    wrap = arg[:, 0] - arg[:, -1]
    turns = np.where(np.abs(wrap) > math.pi, np.sign(wrap), 0.0)
    if flat.max() >= _JUMP_LIMIT:
        if np.any((size >= _JUMP_LIMIT) & (size <= 2 * math.pi - _JUMP_LIMIT)):
            raise BranchTrackingError("branch tracking failed; refine grid")
        hot = np.flatnonzero(np.any(size > math.pi, axis=1))
        d = np.diff(arg[hot], axis=1)
        crossings = np.cumsum(np.where(np.abs(d) > math.pi, np.sign(d), 0.0), axis=1)
        arg[hot, 1:] -= 2 * math.pi * crossings
        turns[hot] += crossings[:, -1]
    return bool(turns.any())


def _tan_phase(
    re: np.ndarray,
    im: np.ndarray,
    sq: np.ndarray,
    arg: np.ndarray,
    start: np.ndarray,
    b: float,
    out: np.ndarray,
) -> bool:
    """Phi = |H|^(-b)*exp(-i*b*arg H) on rows of a block into ``out``; whether a row winds.

    ``re`` and ``im`` hold Re H and Im H, ``sq`` |H|^2 (``_squared_modulus``)
    and ``start`` the tracked argument of each row's first node, from the
    theta2 = 0 column; ``re``, ``im``, ``sq`` and ``arg`` are overwritten.
    arg H is tracked along each row (``_unwrapped_argument``, which raises
    on a jump) and moved to start from ``start``; |H|^(-b) is
    exp(-b/2 * log |H|^2), and the phase comes from tan(-b*arg/2)
    (``_polar``).
    """
    winds = _unwrapped_argument(re, im, arg)
    arg += (start - arg[:, 0]).reshape(-1, 1)
    arg *= -0.5 * b
    np.log(sq, out=sq)
    sq *= -0.5 * b
    np.exp(sq, out=sq)
    _polar(sq, arg, im, out=out)
    return winds


def _in_cone(
    re: np.ndarray, sq: np.ndarray, im2: np.ndarray, sign: float, scratch: np.ndarray
) -> np.ndarray:
    """Per row: whether every node lies within ``_JUMP_LIMIT``/2 of the direction ``sign``.

    ``re``, ``sq`` and ``im2`` hold Re H, |H|^2 and (Im H)^2.  A node lies
    in that cone when sign*Re H > 0 and (Im H)^2 < sin^2(_JUMP_LIMIT/2)*|H|^2.
    ``scratch`` is overwritten.
    """
    np.multiply(sq, _CONE_SIN2, out=scratch)
    scratch -= im2
    inside = scratch.min(axis=1) > 0
    inside &= re.min(axis=1) > 0 if sign > 0 else re.max(axis=1) < 0
    return inside


def _runs(flags: np.ndarray) -> List[Tuple[int, int, bool]]:
    """``(i, j, flag)`` for each maximal run ``flags[i:j]`` of one value."""
    edges = [0, *(np.flatnonzero(flags[1:] != flags[:-1]) + 1).tolist(), flags.size]
    return [(i, j, bool(flags[i])) for i, j in zip(edges, edges[1:])]


def _root_phase(
    re: np.ndarray, im: np.ndarray, sq: np.ndarray, s: np.ndarray, sign: float, out: np.ndarray
) -> None:
    """sqrt(2)*(sign*H)^(-1/2), times i for sign = 1, on rows of a block into ``out``.

    ``re`` and ``im`` hold Re H and Im H and ``sq`` |H|^2; ``re``, ``sq`` and
    ``s`` are overwritten.  With s = |H| + sign*Re H > 0, the principal
    (sign*H)^(-1/2) is (s - i*sign*Im H)/(sqrt(2)*|H|*sqrt(s)).  ``out``
    is sqrt(2) times it, and times i for sign = 1, so that neither part
    needs a sign change: (Im H + i*s)/(|H|*sqrt(s)) for sign = 1 and
    (s + i*Im H)/(|H|*sqrt(s)) for sign = -1.
    """
    np.sqrt(sq, out=sq)
    (np.add if sign > 0 else np.subtract)(sq, re, out=s)
    np.sqrt(s, out=re)
    sq *= re
    real, imag = (im, s) if sign > 0 else (s, im)
    np.divide(real, sq, out=out.real)
    np.divide(imag, sq, out=out.imag)


def _root_factors(start: np.ndarray, anchor: float) -> np.ndarray:
    """-i*(-1)^c/sqrt(2) per row: Phi over ``_root_phase``'s values on a row in the cone.

    ``start`` is the tracked argument of the theta2 = 0 column, ``anchor``
    (0 or pi) that of its first node.  A row in the cone about the anchor's
    direction has start - anchor = 2 pi*c + q with |q| < ``_JUMP_LIMIT``/2,
    c the column's net turns about 0 up to that row, and tracked argument
    anchor + 2 pi*c + arg(sign*H) at every node.  So Phi = H^(-1/2) there
    is exp(-i*anchor/2)*(-1)^c*(sign*H)^(-1/2), which is -i*(-1)^c/sqrt(2)
    times ``_root_phase``'s value at either anchor.
    """
    turns = np.rint((start - anchor) / (2 * math.pi))
    return np.where(turns % 2 == 0, -1j, 1j) / math.sqrt(2)


def _times_G(
    G: BivariatePolynomial, strip: np.ndarray, x: np.ndarray, c2: float, S: int
) -> np.ndarray:
    """Outputs 0..S of the row FFTs of G*Phi from outputs -J..S of Phi's.

    Column J + m of ``strip`` is output m of the row FFT of Phi at the row's
    x, J = deg_y G; the y grid has radius c2.  Output s of G*Phi's sums,
    over the terms g_ij*x^i*y^j of G, g_ij*x^i*c2^j times output s - j of
    Phi's.
    """
    J = G.degree_y()
    out = np.zeros((strip.shape[0], S + 1), dtype=np.complex128)
    for (i, j), g in G.terms.items():
        out += (float(g) * c2**j) * x**i * strip[:, J - j : J - j + S + 1]
    return out


def _polar(
    mod: np.ndarray, t: np.ndarray, q: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """mod * exp(2i*t) from tan t; overwrites ``t`` and ``q``.

    ``t`` holds the half angle.  With r = mod/(1 + tan^2 t), mod*cos 2t is
    2r - mod and mod*sin 2t is 2r*tan t: one tan, which numpy vectorises,
    in place of its cos and sin, which it does not.  The steps run in
    place, in the float scratch ``q`` and the complex ``out`` of mod's
    shape when given: a block's arrays stay in cache.
    """
    q = np.empty(mod.shape) if q is None else q
    out = np.empty(mod.shape, dtype=np.complex128) if out is None else out
    t = np.tan(t, out=t)
    np.multiply(t, t, out=q)
    q += 1.0
    np.divide(mod, q, out=q)
    q += q
    np.subtract(q, mod, out=out.real)
    np.multiply(q, t, out=out.imag)
    return out


def cauchy_quadrature(
    H: BivariatePolynomial,
    G: Optional[BivariatePolynomial],
    beta: Fraction,
    r: int,
    s: int,
    cfg: OracleConfig,
):
    """One coefficient by torus quadrature: (value, error_estimate)."""
    if not (0 <= r <= cfg.box[0] and 0 <= s <= cfg.box[1]):
        raise ConfigError("target outside the oracle box")
    table = quadrature_values(H, G, beta, cfg)
    return table.value(r, s), table.entry_error(r, s)


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------


def table_to_csv(table: CoefficientTable) -> str:
    """Deterministic CSV, LF endings; exact tables carry the prefactor header."""
    if table.series is not None:
        lines = [f"# prefactor: {table.prefactor}", "r,s,numerator,denominator,value"]
    else:
        lines = ["r,s,real,imag,error"]
    lines += [f"{r},{s},{cells}" for r, s, cells, _ in table.csv_cells()]
    return "\n".join(lines) + "\n"


def format_entry(v) -> str:
    """17-digit text of an exact entry; ``re+imj`` or ``re-imj`` when the prefactor is complex."""
    if isinstance(v, mpc):
        return f"{mp.nstr(v.real, 17)}+{mp.nstr(v.imag, 17)}j".replace("+-", "-")
    return mp.nstr(mpf(v), 17)
