"""The integer recurrence fill against the Fraction fill it replaced.

``coeff_recurrence`` fills a rescaled table of Python ints and builds one
Fraction per entry at the end.  The reference below is the earlier fill:
every step in ``Fraction`` arithmetic on the coefficients of H/h00, then
the product with G term by term and the scalar h00**(-beta) multiplied in
when it is rational.  The two tables must be equal entry for entry, with
the same prefactor, under both fill schedules.
"""

import itertools
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bivasym import BivariatePolynomial, coeff_linear_closed_form, coeff_recurrence, coefficients_at
from bivasym.oracle import _integer_rows
from bivasym.problem import parse_problem
from bivasym.rationals import hermite_basis
from bivasym.series import Prefactor
from tests.test_acceptance import _random_polynomials

ROOT = Path(__file__).resolve().parent.parent

BETAS = [F(1, 2), F(-3, 2), F(2, 3), F(3), F(-1), F(0)]


def reference_recurrence(H, G, beta, box):
    """(coefficient rows, prefactor) of G*H**(-beta) by the Fraction fill."""
    beta = F(beta)
    R, S = box
    h00 = H.constant_term()
    h = {ij: c / h00 for ij, c in H.terms.items()}
    dy = H.degree_y()
    f = [[F(0)] * (S + 1) for _ in range(R + 1)]
    f[0][0] = F(1)
    col = [h.get((0, j), F(0)) for j in range(dy + 1)]

    def fill_entry(a, b):
        if a == 0 and b == 0:
            return
        if a == 0:
            s = b - 1
            total = F(0)
            for j in range(1, min(dy, s + 1) + 1):
                cj = col[j]
                if cj:
                    total += cj * ((s - j + 1) + beta * j) * f[0][s - j + 1]
            f[0][b] = -total / (s + 1)
            return
        r = a - 1
        total = F(0)
        for (i, j), hij in h.items():
            if i == 0 and j == 0:
                continue
            rr = r - i + 1
            ss = b - j
            if rr < 0 or ss < 0:
                continue
            total += hij * ((r - i + 1) + beta * i) * f[rr][ss]
        f[a][b] = -total / (r + 1)

    for a in range(R + 1):
        for b in range(S + 1):
            fill_entry(a, b)

    if G is not None:
        out = [[F(0)] * (S + 1) for _ in range(R + 1)]
        for (i, j), c in G.terms.items():
            for r in range(i, R + 1):
                for s in range(j, S + 1):
                    out[r][s] += c * f[r - i][s - j]
        f = out
    prefactor = Prefactor(h00, -beta)
    rational = prefactor.rational_value()
    if rational is not None:
        f = [[rational * c for c in row] for row in f]
        prefactor = Prefactor()
    return f, prefactor


def _assert_parity(H, G, beta, box, orders=("rows", "antidiagonal")):
    coeffs, prefactor = reference_recurrence(H, G, beta, box)
    for order in orders:
        table = coeff_recurrence(H, G, beta, box, order=order)
        assert table.series.coeffs == coeffs, (order, box)
        assert table.prefactor == prefactor, order


def _poly(*items):
    return BivariatePolynomial.from_items(list(items))


@pytest.mark.parametrize("name", ["multinomial_sqrt", "color_swap"])
def test_problem_files_at_their_oracle_box(name):
    spec = parse_problem((ROOT / "problems" / f"{name}.json").read_text())
    _assert_parity(spec.H, spec.G, spec.beta, spec.effective_box(), orders=("rows",))


def test_criterion_4_family_at_20x20():
    gen = _random_polynomials(20260810)
    for H in itertools.islice(gen, 32):
        for beta in BETAS:
            _assert_parity(H, None, beta, (20, 20), orders=("rows",))


@pytest.mark.parametrize("h00", ["2", "-1", "4/9"])
@pytest.mark.parametrize("beta", BETAS)
def test_constant_terms_other_than_one(h00, beta):
    H = _poly((0, 0, h00), (1, 0, "-1"), (0, 1, "1/3"), (1, 1, "-2"))
    _assert_parity(H, None, beta, (8, 7))


@pytest.mark.parametrize("beta", BETAS)
def test_fractional_h_and_g(beta):
    H = _poly((0, 0, "3/5"), (1, 0, "-7/4"), (0, 2, "2/9"), (2, 1, "-5/6"), (0, 3, "1/7"))
    G = _poly((0, 0, "-2/3"), (1, 1, "5/2"), (0, 2, "-1/11"))
    _assert_parity(H, G, beta, (9, 11))


@pytest.mark.parametrize("h00", ["1", "2", "-1", "4/9"])
def test_constant_h(h00):
    H = BivariatePolynomial.constant(F(h00))
    G = _poly((0, 0, "1"), (2, 1, "-3/2"))
    for beta in BETAS:
        _assert_parity(H, None, beta, (3, 4))
        _assert_parity(H, G, beta, (3, 4))


@pytest.mark.parametrize("box", [(0, 12), (12, 0), (0, 0)])
def test_boxes_with_an_empty_side(box, color_swap_h, color_swap_g):
    H = _poly((0, 0, "4/9"), (2, 0, "-1"), (0, 1, "2/3"), (0, 3, "-1/5"), (1, 2, "1"))
    for beta in BETAS:
        _assert_parity(H, None, beta, box)
        _assert_parity(color_swap_h, color_swap_g, beta, box)


# H with and without pure-y terms (the row kernel's in-row pass runs or is
# skipped), h00 negative (complex prefactor) or a rational other than +-1
# (its rational power folded in), deg_x H = 3 and deg_y H = 3.
KERNEL_H = {
    "pure_y": [(0, 0, "1"), (1, 0, "-1"), (0, 1, "-2/3"), (0, 3, "1/4"), (3, 1, "1/2")],
    "no_pure_y": [(0, 0, "1"), (1, 0, "-2"), (1, 1, "1/3"), (3, 0, "-1"), (2, 3, "5/7")],
    "negative_h00": [(0, 0, "-1"), (1, 0, "1"), (0, 2, "3"), (3, 1, "-1"), (1, 3, "2")],
    "rational_h00": [(0, 0, "9/4"), (3, 0, "-1/2"), (0, 1, "-1"), (0, 3, "-3/5"), (1, 1, "4")],
}


@pytest.mark.parametrize("name", sorted(KERNEL_H))
@pytest.mark.parametrize("box", [(0, 0), (6, 0), (0, 6), (5, 2), (2, 5), (5, 7)])
def test_row_kernel_edges(name, box):
    """Empty sides, S < deg_y H (a pure-y term beyond the box) and R < deg_x H."""
    H = _poly(*KERNEL_H[name])
    G = _poly((0, 0, "1"), (1, 2, "-3/2"))
    for beta in BETAS:
        _assert_parity(H, None, beta, box)
        _assert_parity(H, G, beta, box)


def test_multinomial_400_corners_match_closed_form(multinomial_h):
    table = coeff_recurrence(multinomial_h, None, F(1, 2), (400, 400))
    assert table.prefactor.is_one()
    for r, s in [(400, 400), (400, 0), (0, 400), (400, 399), (217, 400)]:
        value, prefactor = coeff_linear_closed_form(F(1), F(-1), F(-1), F(1, 2), r, s)
        assert prefactor.is_one()
        assert table.series.coeffs[r][s] == value


# Support shapes that take the row kernel's skips: zero rows (x-exponent gcd
# above 1, or H with no x), columns beyond the bound the source rows give (no
# pure-y term), and each form of the pure-y pass.
SPARSE_H = {
    "no_y": [(0, 0, "1"), (1, 0, "-1"), (3, 0, "1/2")],
    "constant_only_x_free": [(0, 0, "1"), (1, 0, "-1"), (1, 2, "2/3"), (2, 1, "-1")],
    "gcd_2_2": [(0, 0, "1"), (2, 0, "-1"), (0, 2, "-1/3"), (2, 4, "1/2")],
    "gcd_3_3": [(0, 0, "1"), (3, 0, "-2"), (3, 3, "1"), (0, 6, "-1/4")],
    "gcd_2_3": [(0, 0, "1"), (2, 0, "1/2"), (2, 3, "-1"), (4, 6, "3")],
    "gcd_3_2": [(0, 0, "-2"), (3, 2, "1"), (3, 0, "5/3"), (0, 4, "1")],
    "lone_y": [(0, 0, "1"), (1, 0, "-1/2"), (0, 1, "-1"), (2, 1, "1/3")],
    "lone_y2": [(0, 0, "1"), (1, 1, "-1"), (0, 2, "-2/5"), (2, 0, "1")],
    "several_pure_y": [(0, 0, "1"), (1, 0, "-1"), (0, 1, "1/2"), (0, 2, "-1"), (0, 3, "2/3")],
    "no_x": [(0, 0, "1"), (0, 1, "-1"), (0, 3, "1/2")],
    # Lattices (A, B), (0, C) of the exponents whose rows keep only the cells
    # b = (a/A)*B mod C: C = 2 with t_a = a mod 2 and a pure-y term; B = -1,
    # C = 4 (family item 14's lattice); C = 3 and C = 4 with pure-y terms;
    # rank 1, one cell a row; pure-y terms only, C = 2.
    "moving_offset": [(0, 0, "1"), (1, 1, "-1"), (0, 2, "1/3")],
    "negative_b": [(0, 0, "1"), (2, 2, "-1/2"), (3, 1, "1"), (4, 0, "-2/3")],
    "c3_two_pure_y": [(0, 0, "1"), (1, 1, "-1"), (0, 3, "1/2"), (0, 6, "-1/5"), (2, 2, "1/4")],
    "c4_pure_y": [(0, 0, "1"), (1, 3, "-1"), (0, 4, "2/3")],
    "rank_1": [(0, 0, "1"), (2, 1, "-1")],
    "rank_1_two_terms": [(0, 0, "-1"), (2, 1, "1/2"), (4, 2, "3")],
    "pure_y_c2": [(0, 0, "1"), (0, 2, "-1"), (0, 4, "1/3")],
}
SPARSE_BETAS = [F(1, 2), F(-1, 2), F(2), F(1, 3), F(-7, 3)]


@pytest.mark.parametrize("name", sorted(SPARSE_H))
@pytest.mark.parametrize("box", [(0, 9), (9, 0), (1, 1), (9, 8)])
def test_sparse_supports_match_the_references(name, box):
    """Row and antidiagonal tables equal the Fraction fill; ``coefficients_at`` their entries."""
    H = _poly(*SPARSE_H[name])
    G = _poly((0, 0, "1"), (1, 1, "-3/2"), (0, 2, "1/4"))
    R, S = box
    targets = [(r, s) for r in range(R + 1) for s in range(S + 1)]
    for beta in SPARSE_BETAS:
        for g in (None, G):
            _assert_parity(H, g, beta, box)
            table = coeff_recurrence(H, g, beta, box)
            values, prefactor = coefficients_at(H, g, beta, targets)
            assert values == [table.series.coeffs[r][s] for r, s in targets], (beta, g)
            assert prefactor == table.prefactor


# Term lists (i, j, m) that no H gives: a division by a (or b) leaves a
# remainder.  The messages are those of the kernel before it skipped zero
# rows and columns past the source rows' bound, so the first inexact cell is
# still the one named.
FORGED = [
    ([(2, 0, 1), (2, 1, 1)], F(1, 2), (8, 8), "(4, 0)"),
    ([(2, 1, 3), (2, 2, 1)], F(1, 2), (8, 8), "(4, 2)"),
    ([(2, 2, 1), (3, 1, 1)], F(1, 3), (9, 9), "(6, 6)"),
    ([(2, 3, 2), (4, 4, 1)], F(-7, 3), (12, 12), "(6, 9)"),
    ([(0, 1, 1), (1, 0, 1)], F(1, 2), (4, 4), "(0, 2)"),
    ([(0, 1, 1), (1, 0, 1)], F(1, 2), (4, 1), "(2, 0)"),
    ([(0, 2, 1), (1, 0, 3), (2, 1, 1)], F(1, 3), (6, 6), "(0, 6)"),
    # C > 1 and rank-1 lattices: the named cell is t_a + C*k, from row a's
    # kept cells.
    ([(1, 3, 1), (0, 4, 2)], F(1, 2), (9, 12), "(2, 6)"),
    ([(2, 2, 1), (3, 1, 1), (4, 0, 1)], F(1, 2), (12, 12), "(4, 4)"),
    ([(1, 1, 1), (0, 3, 1), (0, 6, 1)], F(1, 2), (8, 9), "(0, 6)"),
    ([(2, 1, 1)], F(1, 2), (8, 8), "(4, 2)"),
]


@pytest.mark.parametrize("terms, beta, box, cell", FORGED)
def test_inexact_step_names_its_cell(terms, beta, box, cell):
    with pytest.raises(ArithmeticError, match=f"^{re.escape('inexact recurrence step at ' + cell)}$"):
        list(_integer_rows(terms, beta, *box))


def _skips_columns(H) -> bool:
    """Whether the row kernel keeps only every C-th column, C > 1, or one cell a row."""
    a, b, c = hermite_basis(H.terms)
    return c > 1 or (c == 0 and a > 0 and b > 0)


def main() -> int:
    """The row kernel against the antidiagonal fill on boxes larger than tier-1's.

    The first 64 criterion-4 family polynomials, beta in {1/2, -1/2, 2}, at
    80x80; the first 200, beta in {1/2, -1/2, 2, 1/3, -7/3}, at 40x40 and
    13x29, with G = 1 and G = 1 + 2x - y/3; and every problem file at its
    oracle box with its own G and beta: the zero rows, the column bounds
    and the lattice's cells of sparse supports reach further into the box
    than at 20x20.  Any refusal fails the scan.  Prints how many tables
    have a column step above 1 (the kernel keeps every C-th column, or one
    cell a row).
    """
    G = _poly((0, 0, "1"), (1, 0, "2"), (0, 1, "-1/3"))
    family = list(itertools.islice(_random_polynomials(20260810), 200))
    cases = [
        (f"family polynomial {k}, beta {beta}, box (80, 80)", H, None, beta, (80, 80))
        for k, H in enumerate(family[:64])
        for beta in (F(1, 2), F(-1, 2), F(2))
    ]
    cases += [
        (f"family polynomial {k}, beta {beta}, G {g}, box {box}", H, g, beta, box)
        for k, H in enumerate(family)
        for beta in SPARSE_BETAS
        for box in ((40, 40), (13, 29))
        for g in (None, G)
    ]
    for path in sorted((ROOT / "problems").glob("*.json")):
        spec = parse_problem(path.read_text())
        cases.append((path.name, spec.H, spec.G, spec.beta, spec.effective_box()))
    stepped = 0
    for name, H, g, beta, box in cases:
        rows, antidiagonal = (coeff_recurrence(H, g, beta, box, order=order) for order in ("rows", "antidiagonal"))
        if (rows.series.coeffs, rows.prefactor) != (antidiagonal.series.coeffs, antidiagonal.prefactor):
            print(f"{name}: the row kernel differs from the antidiagonal fill")
            return 1
        stepped += _skips_columns(H)
    print(f"{len(cases)} tables equal the antidiagonal fill; {stepped} have a column step above 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
