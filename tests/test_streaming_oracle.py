"""``coefficients_at`` streams the row kernel and keeps a few rows.

Its values and prefactor must equal the full table's entries, and its
traced memory must stay a small fraction of the table's, and for a tall
target a few of its one-cell rows.
"""

import itertools
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from bivasym import BivariatePolynomial, coeff_recurrence, coefficients_at
from bivasym.errors import ConfigError
from bivasym.problem import parse_problem
from tests.test_acceptance import _random_polynomials

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = sorted((ROOT / "problems").glob("*.json"))


def _assert_entries(H, G, beta, box, targets):
    table = coeff_recurrence(H, G, beta, box)
    values, prefactor = coefficients_at(H, G, beta, targets)
    assert prefactor == table.prefactor
    assert values == [table.series[t] for t in targets]


@pytest.mark.parametrize("path", PROBLEMS, ids=[p.stem for p in PROBLEMS])
def test_problem_files_at_targets_and_corners(path):
    spec = parse_problem(path.read_text())
    R, S = spec.effective_box()
    targets = spec.targets + [(0, 0), (R, 0), (0, S), (R, S)]
    _assert_entries(spec.H, spec.G, spec.beta, (R, S), targets)


def test_family_at_three_targets():
    targets = [(40, 40), (80, 40), (40, 120)]
    for H in itertools.islice(_random_polynomials(20260810), 64):
        _assert_entries(H, None, F(1, 2), (80, 120), targets)


def test_no_targets_and_negative_targets(color_swap_h, color_swap_g):
    values, prefactor = coefficients_at(color_swap_h, color_swap_g, F(1, 2), [])
    assert values == [] and prefactor.is_one()
    with pytest.raises(ConfigError):
        coefficients_at(color_swap_h, color_swap_g, F(1, 2), [(3, -1)])


def _traced_peak(compute) -> int:
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_memory_is_a_window(color_swap_h, color_swap_g):
    box = (600, 300)
    stream = _traced_peak(lambda: coefficients_at(color_swap_h, color_swap_g, F(1, 2), [box]))
    table = _traced_peak(lambda: coeff_recurrence(color_swap_h, color_swap_g, F(1, 2), box))
    assert stream < table / 10


def test_a_tall_target_keeps_a_few_one_cell_rows():
    # Rows of a target (r, 0) have one cell each, about as wide as the
    # target's scale 4**r; holding every power of w up to r would take
    # r/2 such cells.
    H = BivariatePolynomial({(0, 0): F(1), (1, 0): F(-1), (0, 1): F(-1)})
    target = (2000, 0)
    values = []
    peak = _traced_peak(lambda: values.append(coefficients_at(H, None, F(1, 2), [target])[0]))
    assert values[0] == [coeff_recurrence(H, None, F(1, 2), target).series[target]]
    assert peak < 64 * values[0].scales[0].bit_length() // 8
