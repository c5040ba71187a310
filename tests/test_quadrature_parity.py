"""Row-blocked torus quadrature against the full-grid route it replaced.

``quadrature_values`` walks the theta1 grid in blocks of rows, keeps the
first S + 1 outputs of each row FFT and finishes with one column FFT on the
kept strip.  The reference below is the earlier route: H, the anchored
argument and the integrand on the whole grid at once, then one ``fft2`` of
the full and of the half grid.  Values and error estimates must agree to
1e-14 of the largest entry, on a grid smaller than one block and on grids
of several blocks.

Each ``BranchTrackingError`` cause keeps its message.  The reference checks
the whole grid for a vanishing H, then the ray anchor, then every jump.  The
blocked route checks in grid order: the theta2 = 0 column (vanishing, then a
jump), the ray anchor, then each block in theta1 order (vanishing, then a
jump).  So where more than one cause holds, the first in that order wins,
and within one block a vanishing H wins over a jump.  The cases below pin it.
"""

from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from bivasym import BivariatePolynomial, OracleConfig
from bivasym.errors import BranchTrackingError
from bivasym.oracle import _JUMP_LIMIT, CoefficientTable, quadrature_values
from bivasym.precision import to_mpf
from bivasym.problem import parse_problem

ROOT = Path(__file__).resolve().parent.parent
GRIDS = [64, 256, 1024, 2048]
BOX = (10, 10)


def reference_quadrature(H, G, beta, cfg):
    """Full-grid quadrature table: one fft2 of the whole and the half grid."""
    R, S = cfg.box
    c1, c2 = cfg.quadrature_radii
    N1, N2 = cfg.quadrature_grid
    b = float(to_mpf(F(beta)))
    th1 = 2.0 * np.pi * np.arange(N1) / N1
    th2 = 2.0 * np.pi * np.arange(N2) / N2
    X = c1 * np.exp(1j * th1).reshape(-1, 1)
    Y = c2 * np.exp(1j * th2).reshape(1, -1)
    W = H.eval_array(X, Y)
    if np.min(np.abs(W)) <= H.vanish_floor():
        raise BranchTrackingError("branch tracking failed; H nearly vanishes on the torus")
    _, anchor = H.ray_argument(c1, c2, 1.0, 256)
    d0 = np.angle(W[1:, 0] / W[:-1, 0])
    d1 = np.angle(W[:, 1:] / W[:, :-1])
    if max(np.max(np.abs(d0)), np.max(np.abs(d1))) >= _JUMP_LIMIT:
        raise BranchTrackingError("branch tracking failed; refine grid")
    args = np.empty(W.shape, dtype=np.float64)
    args[0, 0] = anchor
    args[1:, 0] = anchor + np.cumsum(d0)
    args[:, 1:] = args[:, :1] + np.cumsum(d1, axis=1)
    F_ = np.exp(-b * (np.log(np.abs(W)) + 1j * args))
    if G is not None and G != BivariatePolynomial.constant(1):
        F_ = F_ * G.eval_array(X, Y)

    def extract(values):
        n1, n2 = values.shape
        spec = np.fft.fft2(values) / (n1 * n2)
        rows = np.arange(R + 1).reshape(-1, 1)
        cols = np.arange(S + 1).reshape(1, -1)
        return spec[: R + 1, : S + 1] / (c1**rows * c2**cols)

    full = extract(F_)
    half = extract(F_[::2, ::2])
    return CoefficientTable(values=full, errors=np.abs(full - half))


def _problem(name):
    spec = parse_problem((ROOT / "problems" / f"{name}.json").read_text())
    return spec.H, spec.G, spec.beta, spec.quadrature_radii


def _poly(*terms):
    return BivariatePolynomial.from_items(list(terms))


# (H, G, beta, radii); negative_origin has no radii in its file, and (1/4,
# 1/4) is half the modulus of its dominant point, as the CLI derives them.
CASES = {
    "multinomial_sqrt": _problem("multinomial_sqrt"),
    "color_swap": _problem("color_swap"),
    "negative_origin": _problem("negative_origin")[:3] + ((0.25, 0.25),),
    "irrational_prefactor": (
        _poly((0, 0, "2"), (1, 0, "-1"), (0, 1, "-1")), None, F(1, 2), (0.5, 0.5)
    ),
}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_blocked_quadrature_matches_full_grid(name, grid):
    H, G, beta, radii = CASES[name]
    cfg = OracleConfig(box=BOX, beta=beta, quadrature_radii=radii, quadrature_grid=(grid, grid))
    got = quadrature_values(H, G, beta, cfg)
    ref = reference_quadrature(H, G, beta, cfg)
    assert got.values.shape == ref.values.shape == (BOX[0] + 1, BOX[1] + 1)
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(got.values - ref.values)) <= 1e-14 * scale
    assert np.max(np.abs(got.errors - ref.errors)) <= 1e-14 * scale


VANISH = "branch tracking failed; H nearly vanishes on the torus"
JUMP = "branch tracking failed; refine grid"
RAY = "H vanishes on the ray from the origin"

# 2 + x**2 + y is zero on the unit torus at (x, y) = (+-i, -1): rows N/4 and
# 3N/4, column N/2, so not on the theta2 = 0 column nor in the first block.
ISOLATED_ZERO = _poly((0, 0, "2"), (2, 0, "1"), (0, 1, "1"))
# 1 - y + y**2 is zero at y = exp(+-i*pi/3), between grid points of |y| = 1,
# so the argument turns by nearly pi from one theta2 point to the next.
OFF_GRID_ZERO = _poly((0, 0, "1"), (0, 1, "-1"), (0, 2, "1"))

# name: (H, radii, the one cause that holds)
ONE_CAUSE = {
    "zero off the column, in a later block": (ISOLATED_ZERO, (1.0, 1.0), VANISH),
    "zero on the column": (_poly((0, 0, "1"), (1, 0, "2")), (0.5, 0.5), VANISH),
    "jump along theta2": (OFF_GRID_ZERO, (0.5, 1.0), JUMP),
    "jump down the column": (_poly((0, 0, "1"), (1, 0, "-1"), (2, 0, "1")), (1.0, 0.5), JUMP),
    "zero on the anchor ray": (_poly((0, 0, "1"), (1, 0, "-2")), (1.0, 0.5), RAY),
}

# name: (H, radii, message of the blocked route, message of the reference)
SEVERAL_CAUSES = {
    # The column and the anchor ray come before every block.
    "anchor ray, then a zero off the column": (
        _poly((0, 0, "1"), (1, 0, "-2")) * _poly((0, 0, "1"), (0, 1, "1")), (1.0, 1.0), RAY, VANISH
    ),
    # Block 0 jumps; the zero sits in block 2.
    "jump in the first block, zero in a later one": (
        ISOLATED_ZERO * OFF_GRID_ZERO, (1.0, 1.0), JUMP, VANISH
    ),
    # 1 + y**3: a zero at y = -1 and jumps at y = exp(+-i*pi/3), in every row.
    "zero and jump in one block": (_poly((0, 0, "1"), (0, 3, "1")), (0.5, 1.0), VANISH, VANISH),
}


def _message(route, H, radii):
    cfg = OracleConfig(
        box=(2, 2), beta=F(1, 2), quadrature_radii=radii, quadrature_grid=(1024, 1024)
    )
    with pytest.raises(BranchTrackingError) as info:
        route(H, None, F(1, 2), cfg)
    return str(info.value)


@pytest.mark.parametrize("name", sorted(ONE_CAUSE))
def test_each_cause_keeps_its_message(name):
    H, radii, message = ONE_CAUSE[name]
    assert _message(quadrature_values, H, radii) == message
    assert _message(reference_quadrature, H, radii) == message


@pytest.mark.parametrize("name", sorted(SEVERAL_CAUSES))
def test_first_cause_in_grid_order_wins(name):
    H, radii, blocked, full_grid = SEVERAL_CAUSES[name]
    assert _message(quadrature_values, H, radii) == blocked
    assert _message(reference_quadrature, H, radii) == full_grid
