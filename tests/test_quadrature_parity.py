"""Half-torus row-blocked quadrature against the full-grid route it replaced.

``quadrature_values`` evaluates rows 0..N1/2 of the theta1 grid only, in
blocks of an even number of rows holding about ``_BLOCK_NODES`` nodes, in
buffers allocated once per call.  A block's H is one real matrix product
per pair of rows from H's power basis in y (``_pair_products``), within
8*eps times H's magnitude sum of ``eval_array`` at every node.  arg H is
one arctan2 per node, with 2 pi added or taken away after each crossing
of the negative real axis, and |H|^2 is tested against the vanishing
floor squared (``_tracked_argument``).  A block whose arguments span
less than ``_JUMP_LIMIT`` skips the step scan;
``reference_tracked_argument`` scans every block, and the two give the
same |W|^2, argument, winding and errors on blocks below and above that
limit.  With beta = 1/2, a row whose nodes all lie within
``_JUMP_LIMIT``/2 of the anchor's direction (``_in_cone``) takes
Phi = H^(-1/2) from two square roots per node instead (``_root_phase``),
and its kept outputs take the factor -i*(-1)^c/sqrt(2), c the column's
turns up to that row (``_root_factors``); every other row, and every row
at another beta, keeps the tan route bit for bit.  Each block runs one row
FFT of Phi = H^(-beta), in place, and keeps its outputs -deg_y G..S; on
even rows, output s of the half grid's row FFT is the mean of outputs s
and s + N2/2 of that one.  H and G have
real coefficients and the radii are real, so
Phi(conj x, conj y) = phi*conj Phi(x, y) with phi = exp(-2i*beta*anchor),
and row N1 - k of a kept strip is phi times the conjugate of row k.  G is
applied to the strip: output s of the row FFT of y^j*Phi is c2^j times
output s - j of Phi's, indices mod the row's length.  One column FFT on the
strip finishes.  The reference below is the earlier route: H, the anchored
argument and the integrand F = G*Phi on the whole grid at once, then one
``fft2`` of the full and of the half grid.  The values do not equal
``fft2``'s bit for bit: the mirrored rows, the shifted outputs and the
half grid's means are a different rounding of the same sums, and the
blocked route takes the phase from tan(-beta*arg/2) or from square roots
where the reference takes exp.  So values and error estimates must agree
to a roundoff floor per entry, 4*eps*max|G*H^(-beta)| / (c1^r*c2^s) with the max over the
grid, and no entry may lie further from the exact recurrence's table than
the reference's entry does, plus one floor.  This holds on a grid of one
block, on grids of several blocks, where phi is not real, and where
deg_y G exceeds the half grid's row, and where the rows split between
the square-root and the tan route.  The block size changes no value: the
blocked route gives the same bits at every block size, where phi is real,
where it is not and where the rows split, and no block holds more than
max(_BLOCK_NODES, 2*N2) nodes.  Scaling H by 10^200 or 10^-200, where |H|^2 leaves the double
range, scales the values by the power -beta of it.
``python -m tests.test_quadrature_parity`` prints a digest of the values
and errors on every problem file that gives radii, at 256^2 and 2048^2,
then those of four cases at other exponents, and fails when one of these
differs from the one stored in ``tests/data/quadrature_pinned.json``; CI
requires equal output under 1 and 2 BLAS threads.  Those digests hold on
the machine and BLAS kernel they were taken with, so the tests check the
four cases as they check beta = 1/2: within the roundoff floor of the
reference, and bit for bit across block sizes.

Each ``BranchTrackingError`` cause keeps its message.  The reference checks
the whole grid for a vanishing H, then the ray anchor, then every jump.  The
half-torus route checks in grid order: the theta2 = 0 column (vanishing,
then a jump), the ray anchor, then each block of rows 0..N1/2 in theta1
order (vanishing, then a jump).  Row N1 - k fails a check exactly when row k
does.  So where more than one cause holds, the first in that order wins,
and within one block a vanishing H wins over a jump.  The cases below pin
it, and each problem file's outcome at 64^2 and 512^2 is stored.
"""

import hashlib
import json
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from bivasym import BivariatePolynomial, OracleConfig
from bivasym.errors import BranchTrackingError
from bivasym import oracle
from bivasym.oracle import (
    _JUMP_LIMIT,
    CoefficientTable,
    _polar,
    _root_factors,
    _root_phase,
    _tracked_argument,
    coeff_recurrence,
    quadrature_values,
)
from bivasym.precision import to_mpf
from bivasym.problem import parse_problem

ROOT = Path(__file__).resolve().parent.parent
GRIDS = [64, 256, 1024, 2048]
BOX = (10, 10)


def _torus(cfg):
    """The grid's x column and y row."""
    c1, c2 = cfg.quadrature_radii
    N1, N2 = cfg.quadrature_grid
    th1 = 2.0 * np.pi * np.arange(N1) / N1
    th2 = 2.0 * np.pi * np.arange(N2) / N2
    return c1 * np.exp(1j * th1).reshape(-1, 1), c2 * np.exp(1j * th2).reshape(1, -1)


def reference_quadrature(H, G, beta, cfg):
    """Full-grid quadrature table: one fft2 of the whole and the half grid."""
    R, S = cfg.box
    c1, c2 = cfg.quadrature_radii
    b = float(to_mpf(F(beta)))
    X, Y = _torus(cfg)
    W = H.eval_array(X, Y)
    if np.min(np.abs(W)) <= H.vanish_floor(c1, c2):
        raise BranchTrackingError("branch tracking failed; H nearly vanishes on the torus")
    _, anchor = H.ray_argument(c1, c2, 1.0)
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


def _roundoff_floor(H, G, beta, cfg):
    """4*eps*max|G*H^(-beta)| over the grid, over c1^r*c2^s, per entry."""
    R, S = cfg.box
    c1, c2 = cfg.quadrature_radii
    X, Y = _torus(cfg)
    mod = np.abs(H.eval_array(X, Y)) ** -float(beta)
    if G is not None:
        mod = mod * np.abs(G.eval_array(X, Y))
    rows = np.arange(R + 1).reshape(-1, 1)
    cols = np.arange(S + 1).reshape(1, -1)
    return 4 * np.finfo(float).eps * np.max(mod) / (c1**rows * c2**cols)


def _assert_matches_references(H, G, beta, radii, grid):
    cfg = OracleConfig(box=BOX, beta=beta, quadrature_radii=radii, quadrature_grid=(grid, grid))
    got = quadrature_values(H, G, beta, cfg)
    ref = reference_quadrature(H, G, beta, cfg)
    assert got.values.shape == ref.values.shape == (BOX[0] + 1, BOX[1] + 1)
    floor = _roundoff_floor(H, G, beta, cfg)
    assert np.all(np.abs(got.values - ref.values) <= floor)
    assert np.all(np.abs(got.errors - ref.errors) <= floor)
    table = coeff_recurrence(H, G, beta, BOX)
    exact = np.array(
        [[complex(table.value(r, s)) for s in range(BOX[1] + 1)] for r in range(BOX[0] + 1)]
    )
    assert np.all(np.abs(got.values - exact) <= np.abs(ref.values - exact) + floor)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_blocked_quadrature_matches_full_grid(name, grid):
    _assert_matches_references(*CASES[name], grid)


# H(c1, c2) < 0, so the anchor is pi and phi = exp(-2i*pi*beta) is not real.
PHASE_H = _poly((0, 0, "-1"), (1, 0, "1"), (0, 1, "1"), (1, 1, "1/2"))
PHASE_G = _poly((0, 0, "1"), (1, 0, "-1"), (0, 2, "3"))


@pytest.mark.parametrize("grid", [64, 256, 1024])
@pytest.mark.parametrize("beta", [F(1, 3), F(3, 2), F(5, 7)])
def test_mirror_with_a_complex_phase(beta, grid):
    _assert_matches_references(PHASE_H, PHASE_G, beta, (0.25, 0.3), grid)


MULT_H = CASES["multinomial_sqrt"][0]


@pytest.mark.parametrize(
    "H, G, radii, grids",
    [
        # G in x alone: only output s - 0 of each row FFT is read.
        (MULT_H, _poly((0, 0, "1"), (1, 0, "-2"), (3, 0, "3/2")), (0.3, 0.3), [64, 256, 1024]),
        (MULT_H, _poly((0, 0, "-3/2")), (0.3, 0.3), [64, 256, 1024]),
        # The half grid has 32 points in theta2, so outputs s - 40 wrap.
        (CASES["color_swap"][0], _poly((0, 0, "1"), (1, 40, "1")), (0.2, 0.8), [64]),
    ],
    ids=["G in x alone", "constant G", "G = 1 + x*y**40"],
)
def test_G_applied_to_the_kept_strip(H, G, radii, grids):
    for grid in grids:
        _assert_matches_references(H, G, F(1, 2), radii, grid)


# arg (1 + x)^2 reaches 0.64 pi on |x| = 0.85, so the rows about theta1 =
# +-0.82 pi leave the cone about the positive axis and take the tan route,
# and the others take the square-root route; -H does the same about pi.
SPLIT_H = _poly((0, 0, "1"), (1, 0, "2"), (2, 0, "1"), (0, 1, "1/64"))
SPLIT = {
    "(1 + x)^2 + y/64": (SPLIT_H, None, F(1, 2), (0.85, 0.5)),
    "-(1 + x)^2 - y/64, PHASE_G": (SPLIT_H.scale(F(-1)), PHASE_G, F(1, 2), (0.85, 0.5)),
}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", sorted(SPLIT))
def test_rows_split_between_the_routes_match_full_grid(name, grid):
    _assert_matches_references(*SPLIT[name], grid)


def _track(W, floor=1e-9):
    """(tracked argument, whether a row winds) of the rows of W."""
    W = np.atleast_2d(W)
    sq, arg = np.empty((2,) + W.shape)
    winds = _tracked_argument(W.real.copy(), W.imag.copy(), floor, sq, arg)
    assert np.array_equal(sq, W.real**2 + W.imag**2)
    return arg, winds


T = 2.0 * np.pi * np.arange(2048) / 2048
RHO = 1.0 + 0.5 * np.cos(3 * T)


def reference_tracked_argument(re, im, floor, sq, arg):
    """``_tracked_argument`` with the step scan on every block, whatever its argument range."""
    np.arctan2(im, re, out=arg)
    np.multiply(re, re, out=sq)
    np.multiply(im, im, out=im)
    sq += im
    if sq.min() <= floor * floor:
        raise BranchTrackingError("branch tracking failed; H nearly vanishes on the torus")
    scratch = re
    flat = scratch.ravel()
    np.subtract(arg.ravel()[1:], arg.ravel()[:-1], out=flat[1:])
    scratch[:, 0] = 0.0
    np.abs(flat, out=flat)
    size = scratch[:, 1:]
    wrap = arg[:, 0] - arg[:, -1]
    turns = np.where(np.abs(wrap) > np.pi, np.sign(wrap), 0.0)
    if flat.max() >= _JUMP_LIMIT:
        if np.any((size >= _JUMP_LIMIT) & (size <= 2 * np.pi - _JUMP_LIMIT)):
            raise BranchTrackingError("branch tracking failed; refine grid")
        hot = np.flatnonzero(np.any(size > np.pi, axis=1))
        d = np.diff(arg[hot], axis=1)
        crossings = np.cumsum(np.where(np.abs(d) > np.pi, np.sign(d), 0.0), axis=1)
        arg[hot, 1:] -= 2 * np.pi * crossings
        turns[hot] += crossings[:, -1]
    return bool(turns.any())


def _outcome(tracker, W):
    """(|W|^2, tracked argument, winds) of the rows of W, or the error's message."""
    sq, arg = np.empty((2,) + W.shape)
    try:
        winds = tracker(W.real.copy(), W.imag.copy(), 1e-9, sq, arg)
    except BranchTrackingError as exc:
        return str(exc)
    return sq, arg, winds


def _nan_at(W, n):
    W = W.copy()
    W.flat[n] = np.nan
    return W


CALM = np.stack([RHO * np.exp(1j * k * 0.3 * np.sin(T + k)) for k in range(1, 4)])
CROSSING = RHO * np.exp(1j * (np.pi + 2.5 * np.sin(T)))
JUMP_ROW = RHO * np.exp(0.96j * np.pi * (np.arange(T.size) >= T.size // 2))
# name: (block of rows, whether its arguments span less than _JUMP_LIMIT,
# whether a row winds or the error's message)
TRACKED_BLOCKS = {
    "calm rows": (CALM, True, False),
    "arguments from -0.47 pi to 0.47 pi": (
        np.stack([RHO * np.exp(0.47j * np.pi * np.sin(T))]), True, False
    ),
    "arguments from -0.48 pi to 0.48 pi": (
        np.stack([RHO * np.exp(0.48j * np.pi * np.sin(T))]), False, False
    ),
    "calm rows and a row crossing the cut": (np.vstack([CALM, CROSSING]), False, False),
    "a jump": (np.stack([JUMP_ROW]), False, "branch tracking failed; refine grid"),
    "a winding row": (np.vstack([CALM, RHO * np.exp(1j * T)]), False, True),
    "a zero": (
        np.vstack([CALM, RHO * np.sin(T)]), False,
        "branch tracking failed; H nearly vanishes on the torus",
    ),
    "a NaN among calm rows": (_nan_at(CALM, 5000), False, False),
    "a NaN in a row crossing the cut": (_nan_at(np.vstack([CALM, CROSSING]), 7000), False, False),
}


@pytest.mark.parametrize("name", sorted(TRACKED_BLOCKS))
def test_step_scan_only_where_a_jump_is_possible(name):
    W, below_limit, outcome = TRACKED_BLOCKS[name]
    A = np.arctan2(W.imag, W.real)
    assert (np.max(A) - np.min(A) < _JUMP_LIMIT) == below_limit
    got, want = _outcome(_tracked_argument, W), _outcome(reference_tracked_argument, W)
    if isinstance(want, str):
        assert got == want == outcome
        return
    assert got[2] == want[2] == outcome
    for a, b in zip(got[:2], want[:2]):
        assert np.array_equal(a, b, equal_nan=True)


# Half a step later, the wrap step from the last node to the first crosses
# the cut too.
@pytest.mark.parametrize("shift", [0.0, np.pi / T.size])
def test_tracking_across_the_cut_many_times(shift):
    theta = np.pi + 2.5 * np.sin(T + shift)
    W = RHO * np.exp(1j * theta)
    assert np.max(np.abs(np.angle(W) - theta)) > np.pi  # arg W does cross the cut
    arg, winds = _track(W)
    # The first node keeps its principal argument; the rest follow it.
    assert np.max(np.abs(arg[0] - arg[0, 0] + theta[0] - theta)) <= 1e-12
    assert not winds


def test_tracking_a_row_that_winds_once():
    arg, winds = _track(RHO * np.exp(1j * T))
    assert np.max(np.abs(arg[0] - T)) <= 1e-12
    assert winds
    # One winding row among rows that do not.
    _, winds = _track(np.stack([RHO + 0j, RHO * np.exp(1j * T), -RHO + 0j]))
    assert winds


def test_argument_is_arctan2_on_rows_that_do_not_cross():
    # Rows that stay off the negative real axis: made-up ones, and those of
    # a block of color_swap's H on its torus.
    rows = [RHO * np.exp(1j * k * 0.3 * np.sin(T + k)) for k in range(1, 11)]
    H, _, _, (c1, c2) = CASES["color_swap"]
    X, Y = _torus(OracleConfig(box=BOX, beta=F(1, 2), quadrature_radii=(c1, c2)))
    block = H.eval_array(X[:32], Y)
    A = np.arctan2(block.imag, block.real)
    steps = np.abs(np.diff(np.concatenate((A, A[:, :1]), axis=1), axis=1))
    calm = block[np.all(steps <= np.pi, axis=1)]
    assert len(calm) > 0
    for W in (np.stack(rows), calm):
        arg, winds = _track(W)
        assert np.array_equal(arg, np.arctan2(W.imag, W.real))
        assert not winds


@pytest.mark.parametrize("base", [0.0, 0.6 * np.pi])
def test_a_step_of_0_96_pi_is_a_jump(base):
    # From 0.6 pi the step ends past the cut, where the raw difference of
    # arg W is -1.04 pi.
    theta = base + 0.96 * np.pi * (np.arange(T.size) >= T.size // 2)
    with pytest.raises(BranchTrackingError, match="refine grid"):
        _track(RHO * np.exp(1j * theta))


def _record_routes(monkeypatch):
    """Each block's ``_in_cone`` rows, and the row count of each call of either route."""
    calls = {"cone": [], "root": [], "tan": []}
    in_cone, root_phase, tan_phase = oracle._in_cone, oracle._root_phase, oracle._tan_phase

    def cone(*args):
        inside = in_cone(*args)
        calls["cone"].append(inside.copy())
        return inside

    def root(re, im, sq, s, sign, out):
        calls["root"].append(len(out))
        root_phase(re, im, sq, s, sign, out)

    def tan(re, im, sq, arg, start, b, out):
        calls["tan"].append(len(out))
        return tan_phase(re, im, sq, arg, start, b, out)

    for name, f in (("_in_cone", cone), ("_root_phase", root), ("_tan_phase", tan)):
        monkeypatch.setattr(oracle, name, f)
    return calls


@pytest.mark.parametrize("grid", [1024, 2048])
@pytest.mark.parametrize("name", ["color_swap", "multinomial_sqrt"])
def test_bench_problems_take_the_square_root_route_on_every_row(name, grid, monkeypatch):
    H, G, beta, radii = CASES[name]
    calls = _record_routes(monkeypatch)
    cfg = OracleConfig(box=BOX, beta=beta, quadrature_radii=radii, quadrature_grid=(grid, grid))
    quadrature_values(H, G, beta, cfg)
    assert sum(calls["root"]) == grid // 2 + 1
    assert calls["tan"] == []


@pytest.mark.parametrize("grid", [64, 256, 1024])
@pytest.mark.parametrize("name", ["negative_origin", *sorted(SPLIT)])
def test_rows_in_the_cone_take_the_square_root_route(name, grid, monkeypatch):
    H, G, beta, radii = {**CASES, **SPLIT}[name]
    cfg = OracleConfig(box=BOX, beta=beta, quadrature_radii=radii, quadrature_grid=(grid, grid))
    # The anchor's direction, +-1: the sign of H(0, 0).
    direction = 1.0 if H.constant_term() > 0 else -1.0
    X, Y = _torus(cfg)
    angles = np.angle(direction * H.eval_array(X[: grid // 2 + 1], Y))
    cone = np.all(np.abs(angles) < _JUMP_LIMIT / 2, axis=1)
    calls = _record_routes(monkeypatch)
    quadrature_values(H, G, beta, cfg)
    routed = np.concatenate(calls["cone"])
    assert np.array_equal(routed, cone)
    assert sum(calls["root"]) == routed.sum()
    assert sum(calls["tan"]) == routed.size - routed.sum()
    if name == "negative_origin":
        assert direction < 0 and routed.all()  # the route about pi, on every row
    else:
        assert 0 < routed.sum() < routed.size


def test_root_factor_counts_the_column_turns():
    # start - anchor = 2 pi*c + q with |q| < _JUMP_LIMIT/2: (-1)^c times -i/sqrt(2).
    c = np.repeat(np.arange(-3, 4), 5)
    q = np.tile(np.linspace(-0.47, 0.47, 5) * np.pi, 7)
    for anchor in (0.0, np.pi):
        got = _root_factors(anchor + 2 * np.pi * c + q, anchor)
        assert np.array_equal(got, np.where(c % 2 == 0, -1j, 1j) / np.sqrt(2))


@pytest.mark.parametrize("anchor", [0.0, np.pi])
def test_square_root_route_gives_the_tracked_branch(anchor):
    # A row whose tracked argument is anchor + 2 pi*c + q, |q| < 0.47 pi: the
    # route's values times the row's factor are |H|^(-1/2)*exp(-i*arg/2).
    eps = np.finfo(float).eps
    for c in range(-2, 3):
        arg = anchor + 2 * np.pi * c + 0.47 * np.pi * np.sin(T + c)
        W = RHO * np.exp(1j * arg)
        re, im = W.real.reshape(1, -1).copy(), W.imag.reshape(1, -1).copy()
        sq, s = re * re + im * im, np.empty(re.shape)
        out = np.empty(re.shape, dtype=np.complex128)
        _root_phase(re, im, sq, s, np.cos(anchor), out)
        got = _root_factors(arg[:1], anchor) * out[0]
        assert np.max(np.abs(got - RHO**-0.5 * np.exp(-0.5j * arg))) <= 8 * eps


def _record_evaluations(monkeypatch, H):
    """The shapes of H's two-dimensional ``eval_array`` calls, in call order."""
    shapes = []
    eval_array = BivariatePolynomial.eval_array

    def recording(poly, x, y):
        out = eval_array(poly, x, y)
        if poly is H and out.ndim == 2:
            shapes.append(out.shape)
        return out

    monkeypatch.setattr(BivariatePolynomial, "eval_array", recording)
    return shapes


def _record_pairs(monkeypatch):
    """The rows of each block's pair products, one list per block, in call order."""
    blocks = []
    pair_products = oracle._pair_products

    def recording(lre, lim, ypow, lo, pairs, re, im):
        blocks.append(list(range(lo, lo + 2 * pairs)))
        pair_products(lre, lim, ypow, lo, pairs, re, im)

    monkeypatch.setattr(oracle, "_pair_products", recording)
    return blocks


def _assert_half_torus(blocks, N1):
    """Rows 0..N1/2 each once, plus at most row N1/2 + 1, in theta1 order."""
    rows = [n for block in blocks for n in block]
    assert rows in (list(range(N1 // 2 + 1)), list(range(N1 // 2 + 2)))


def _record_ffts(monkeypatch):
    """The axis of each ``np.fft.fft`` call, in call order."""
    axes = []
    fft = np.fft.fft

    def recording(a, *args, axis=-1, **kwargs):
        axes.append(axis)
        return fft(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recording)
    return axes


@pytest.mark.parametrize("grid", [256, 2048])
def test_quadrature_evaluates_half_the_torus(grid, monkeypatch):
    H, G, beta, radii = CASES["color_swap"]
    shapes = _record_evaluations(monkeypatch, H)
    blocks = _record_pairs(monkeypatch)
    axes = _record_ffts(monkeypatch)
    cfg = OracleConfig(box=BOX, beta=beta, quadrature_radii=radii, quadrature_grid=(grid, grid))
    quadrature_values(H, G, beta, cfg)
    # eval_array gives the theta2 = 0 column alone (the ray's samples are
    # one-dimensional); the blocks' pair products give rows 0..N1/2.
    assert shapes == [(grid, 1)]
    _assert_half_torus(blocks, grid)
    # One row transform per block gives the full and the half grid's
    # outputs; then one column transform of each strip.
    assert axes == [1] * len(blocks) + [0, 0]


@pytest.mark.parametrize("grid", [(256, 256), (1024, 1024), (128, 4096)])
def test_values_do_not_depend_on_the_block_size(grid, monkeypatch):
    N1, N2 = grid
    # color_swap, and a case whose mirror multiplies by a non-real phi.
    for H, G, beta, radii in (CASES["color_swap"], (PHASE_H, PHASE_G, F(1, 3), (0.25, 0.3))):
        cfg = OracleConfig(box=BOX, beta=beta, quadrature_radii=radii, quadrature_grid=grid)
        with monkeypatch.context() as patch:
            blocks = _record_pairs(patch)
            default = quadrature_values(H, G, beta, cfg)
            # 1 gives blocks of 2 rows; 3*N2 would give 3 rows, and odd first
            # rows, were the count not rounded down to an even one; N1*N2
            # gives one block.
            for nodes in (1, 3 * N2, 6 * N2, N1 * N2):
                patch.setattr(oracle, "_BLOCK_NODES", nodes)
                del blocks[:]
                got = quadrature_values(H, G, beta, cfg)
                assert np.array_equal(got.values, default.values)
                assert np.array_equal(got.errors, default.errors)
                _assert_half_torus(blocks, N1)
                assert max(len(rows) * N2 for rows in blocks) <= max(nodes, 2 * N2)


@pytest.mark.parametrize("grid", [(256, 256), (1024, 1024), (128, 4096)])
def test_split_rows_do_not_depend_on_the_block_size(grid, monkeypatch):
    # A block may hold rows of both routes, in runs.
    N1, N2 = grid
    for H, G, beta, radii in SPLIT.values():
        cfg = OracleConfig(box=BOX, beta=beta, quadrature_radii=radii, quadrature_grid=grid)
        with monkeypatch.context() as patch:
            calls = _record_routes(patch)
            default = quadrature_values(H, G, beta, cfg)
            assert 0 < sum(calls["root"]) < N1 // 2 + 1
            for nodes in (1, 3 * N2, 6 * N2, N1 * N2):
                patch.setattr(oracle, "_BLOCK_NODES", nodes)
                got = quadrature_values(H, G, beta, cfg)
                assert np.array_equal(got.values, default.values)
                assert np.array_equal(got.errors, default.errors)


@pytest.mark.parametrize("grid", [(2048, 2048), (256, 16384)])
def test_quadrature_memory_does_not_grow_with_the_grid(grid):
    H, G, beta, radii = CASES["color_swap"]
    cfg = OracleConfig(box=BOX, beta=beta, quadrature_radii=radii, quadrature_grid=grid)
    tracemalloc.start()
    try:
        quadrature_values(H, G, beta, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_pair_products_match_eval_array():
    # Each H on its own torus, or on (0.3, 0.4) when its file gives no radii.
    polys = [(PHASE_H, (0.25, 0.3))]
    for path in sorted((ROOT / "problems").glob("*.json")):
        spec = parse_problem(path.read_text())
        polys.append((spec.H, spec.quadrature_radii or (0.3, 0.4)))
    eps = np.finfo(float).eps
    for H, radii in polys:
        cfg = OracleConfig(box=BOX, beta=F(1, 2), quadrature_radii=radii, quadrature_grid=(64, 64))
        X, Y = _torus(cfg)
        lre, lim, ypow = oracle._power_basis(H.float_coeffs(), X[:, 0], radii[1], Y.size)
        re, im = np.empty((2, X.size, Y.size))
        oracle._pair_products(lre, lim, ypow, 0, X.size // 2, re, im)
        magnitude = np.polynomial.polynomial.polyval2d(*radii, np.abs(H.float_coeffs()))
        assert np.all(np.abs(re + 1j * im - H.eval_array(X, Y)) <= 8 * eps * magnitude)


# |H|^2 of these leaves the double range; H is taken over a power of two
# near its magnitude sum, so the values only scale by k^(-beta).
@pytest.mark.parametrize("k", [F(10) ** 200, F(1, 10**200)])
def test_values_scale_with_H(k):
    H, G, beta, radii = CASES["color_swap"]
    cfg = OracleConfig(box=BOX, beta=beta, quadrature_radii=radii, quadrature_grid=(256, 256))
    base = quadrature_values(H, G, beta, cfg)
    got = quadrature_values(H.scale(k), G, beta, cfg)
    factor = float(k) ** -float(beta)
    floor = _roundoff_floor(H.scale(k), G, beta, cfg)
    assert np.all(np.abs(got.values - factor * base.values) <= floor)
    assert np.all(np.abs(got.errors - factor * base.errors) <= floor)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt counts pages on Linux")
def test_quadrature_reuses_its_block_buffers():
    # Blocks of 16 x 2048 nodes: a complex temporary of each block would be
    # 512 KB, which the allocator maps and unmaps, about 8,300 page faults
    # a call; the buffers allocated once per call take a few hundred.
    # Blocks of 2 x 16384 nodes: an FFT output of each block's own would be
    # 512 KB too, 46,000-54,000 page faults a call; the row FFT runs in
    # place in the block's buffer.
    import resource

    H, G, beta, radii = CASES["color_swap"]
    for grid in ((2048, 2048), (512, 16384)):
        cfg = OracleConfig(box=BOX, beta=beta, quadrature_radii=radii, quadrature_grid=grid)
        quadrature_values(H, G, beta, cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        quadrature_values(H, G, beta, cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 2500, (grid, faults)


def test_polar_matches_cos_and_sin():
    pi = np.pi
    points = [0.0, pi / 2, -pi / 2, pi, -pi, 3 * pi, -3 * pi]
    points += [sign * pi + d for sign in (1, -1) for d in (1e-12, -1e-12)]
    a = np.concatenate((points, np.linspace(-8 * pi, 8 * pi, 200_001)))
    got = _polar(np.ones(a.size), 0.5 * a)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got.real - np.cos(a)) <= 4 * eps)
    assert np.all(np.abs(got.imag - np.sin(a)) <= 4 * eps)


VANISH = "branch tracking failed; H nearly vanishes on the torus"
JUMP = "branch tracking failed; refine grid"
RAY = "H vanishes on the ray from the origin"
WINDS = "branch tracking failed; H winds around 0 on the torus"

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
    # Block 0 jumps; the zero sits in a later block.
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


def test_a_row_that_winds_off_the_column_is_refused():
    # 1 + x + y/4 on radii (0.9, 0.5): the column, 1.125 + x, does not wind,
    # but the rows about theta1 = pi, where |1 + x| < 1/8, do.  They lie in
    # the last block and off the cone, so the tan route refuses them.
    H = _poly((0, 0, "1"), (1, 0, "1"), (0, 1, "1/4"))
    assert _message(quadrature_values, H, (0.9, 0.5)) == WINDS


PINNED = json.loads((ROOT / "tests" / "data" / "quadrature_pinned.json").read_text())


def _problem_outcome(name, grid):
    """The ``BranchTrackingError`` message of a problem file's quadrature, or None."""
    spec = parse_problem((ROOT / "problems" / f"{name}.json").read_text())
    cfg = OracleConfig(
        box=BOX, beta=spec.beta, quadrature_radii=spec.quadrature_radii or (0.25, 0.25),
        quadrature_grid=(grid, grid),
    )
    try:
        quadrature_values(spec.H, spec.G, spec.beta, cfg)
    except BranchTrackingError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(PINNED["outcomes"]))
def test_problem_files_keep_their_outcomes(name):
    assert [_problem_outcome(name, grid) for grid in (64, 512)] == PINNED["outcomes"][name]


def _digest(cases, grids) -> str:
    """SHA-256 of the values and errors of each case at each grid, box 10x10.

    A refused case contributes its ``BranchTrackingError`` message.
    """
    sha = hashlib.sha256()
    for H, G, beta, radii in cases:
        for grid in grids:
            cfg = OracleConfig(
                box=(10, 10), beta=beta, quadrature_radii=radii, quadrature_grid=(grid, grid)
            )
            try:
                table = quadrature_values(H, G, beta, cfg)
            except BranchTrackingError as exc:
                sha.update(str(exc).encode())
            else:
                sha.update(table.values.tobytes() + table.errors.tobytes())
    return sha.hexdigest()


def digest(grids=(256, 2048)) -> str:
    """SHA-256 of the values and errors on every problem file that gives radii."""
    specs = [parse_problem(path.read_text()) for path in sorted((ROOT / "problems").glob("*.json"))]
    return _digest(
        [(s.H, s.G, s.beta, s.quadrature_radii) for s in specs if s.quadrature_radii], grids
    )


# Exponents other than 1/2 take the tan route on every row.
OTHER_EXPONENTS = {
    f"PHASE_H, PHASE_G, beta = {beta}": (PHASE_H, PHASE_G, beta, (0.25, 0.3))
    for beta in (F(1, 3), F(3, 2), F(5, 7))
}
OTHER_EXPONENTS["color_swap, beta = 1/3"] = (
    CASES["color_swap"][:2] + (F(1, 3),) + CASES["color_swap"][3:]
)


def exponent_digests(grids=(256, 2048)) -> dict:
    return {name: _digest([case], grids) for name, case in OTHER_EXPONENTS.items()}


def test_other_exponents_match_the_references(monkeypatch):
    """The digest cases: within the roundoff floor of the references, bit for bit across blocks.

    Their digests depend on the BLAS kernel that rounds ``_pair_products``'
    sums (OpenBLAS picks it by CPU, with fused multiply-adds or without), so
    only this module's ``__main__`` checks them, on a known machine.
    """
    for H, G, beta, radii in OTHER_EXPONENTS.values():
        for grid in (256, 2048):
            _assert_matches_references(H, G, beta, radii, grid)
            cfg = OracleConfig(
                box=BOX, beta=beta, quadrature_radii=radii, quadrature_grid=(grid, grid)
            )
            default = quadrature_values(H, G, beta, cfg)
            with monkeypatch.context() as patch:
                for nodes in (1, 3 * grid, 6 * grid, grid * grid):
                    patch.setattr(oracle, "_BLOCK_NODES", nodes)
                    got = quadrature_values(H, G, beta, cfg)
                    assert np.array_equal(got.values, default.values)
                    assert np.array_equal(got.errors, default.errors)


if __name__ == "__main__":
    # Run under several OPENBLAS_NUM_THREADS settings: the output must agree,
    # and the other exponents' digests must equal the stored ones.
    print(digest())
    digests = exponent_digests()
    for name, value in digests.items():
        print(f"{value}  {name}")
    sys.exit(digests != PINNED["digests"])
