"""The benchmark workloads: their items, output checks and set-up.

An item is one unit of work with its own check.  Running it returns a
record with its outcome, one of

* ``confirmed``: an estimate from a class the probe accepted, which the
  exact oracle confirms (for oracle-scale: the oracles agree);
* ``refused``: a typed ``BivasymError``, no critical point, or a CLI exit
  code other than 0;
* ``unconfirmed``: an estimate from a class the probe did not accept, or
  one the oracle does not confirm, or output that differs from the stored
  rows, or oracles that disagree;
* ``crashed``: any other exception; the record keeps its type.

``unconfirmed`` and ``crashed`` items are the run's failures.  A record
also carries ``correct``, which is false only when a check with a fixed
expected answer fails: the stored ``compare`` rows, the agreement of the
oracles, or the fingerprint of the random family.

Times in a record, in CPU seconds: ``estimate_s`` (spec to estimate; for
oracle-scale the numeric quadrature route), ``verify_s`` (exact oracle plus
comparison) and ``oracle_s`` with ``entries`` (the exact-oracle call alone
and the table entries it produced).  ``run.py`` scales them to the
reference speed of ``calibration.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List

from calibration import clock

HERE = Path(__file__).resolve().parent

# random-solve: the family of criterion 4 in tests/test_acceptance.py.
FAMILY_SEED = 20260810
FAMILY_ITEMS = 32
# sha256 of the first FAMILY_ITEMS polynomials of the family at FAMILY_SEED.
FAMILY_FINGERPRINT = "405345ebf3b4df0f6b00aee39ece901dc51cf43bac8257c9d194913972dc5ef6"
RANDOM_TARGET = (40, 40)
# Leading-term estimates at n = 40 are off by O(1/n); the accepted items of
# the family sit within 0.04-0.14 of the exact coefficient.
CONFIRM_TOLERANCE = 0.25
# An estimate of an exact zero is confirmed when its per-point
# contributions cancel to at least this many digits.
ZERO_CANCEL_DIGITS = 15
# Stored compare rows: estimate columns may move by this relative amount
# (the planned mpmath gamma changes digits below 1e-15); exact columns
# must match byte for byte.
COMPARE_REL_TOLERANCE = 1e-12
# Criterion 3 of the acceptance suite: quadrature against exact.
QUADRATURE_TOLERANCE = 1e-8
QUADRATURE_BOX = (10, 10)


@dataclass
class Item:
    id: str
    run: Callable[[], dict]


@dataclass
class Workload:
    name: str
    items: List[Item]
    # Wall time of one pass on a 2-core x86-64 machine at the seed commit;
    # it turns --seconds into a fixed number of passes, so that both sides
    # of a comparison do the same work.
    reference_pass_s: float
    correct: bool = True


def random_polynomials(seed: int):
    """The ``_random_polynomials`` recipe of the acceptance suite."""
    from bivasym import BivariatePolynomial

    rng = random.Random(seed)
    while True:
        terms = {(0, 0): Fraction(1)}
        for _ in range(rng.randint(2, 5)):
            i = rng.randint(0, 4)
            j = rng.randint(0, 4 - i)
            if (i, j) == (0, 0):
                continue
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if c:
                terms[(i, j)] = c
        if len(terms) > 1:
            yield BivariatePolynomial(terms)


def family_fingerprint(polys) -> str:
    text = ";".join(
        ",".join(f"{i}:{j}:{c}" for (i, j), c in p.sorted_terms()) for p in polys
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _record(item_id: str, outcome: str, **extra) -> dict:
    rec = {"id": item_id, "outcome": outcome, "correct": True}
    rec.update(extra)
    return rec


def _crash(item_id: str, exc: BaseException, **extra) -> dict:
    return _record(item_id, "crashed", error=type(exc).__name__, **extra)


# ----------------------------------------------------------------------
# random-solve, part 1: the CLI compare command on the regression problems
# ----------------------------------------------------------------------


def _rows_match(lines: List[str], expected: List[str]) -> bool:
    if len(lines) != len(expected) or lines[0] != expected[0]:
        return False
    for got, want in zip(lines[1:], expected[1:]):
        g, w = got.split(","), want.split(",")
        if len(g) != len(w) or [g[i] for i in (0, 1, 4, 5)] != [w[i] for i in (0, 1, 4, 5)]:
            return False
        for i in (2, 3, 6):
            if g[i] == w[i]:
                continue
            try:
                gv, wv = float(g[i]), float(w[i])
            except ValueError:
                return False
            if abs(gv - wv) > COMPARE_REL_TOLERANCE * abs(wv):
                return False
    return True


def _compare_item(path: Path, spec, expected: List[str]) -> dict:
    from bivasym import cli, oracle
    from mpmath import mp, mpf

    item_id = f"compare-{path.stem}"
    out = io.StringIO()
    t0 = clock()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(["compare", "--spec", str(path)])
    except Exception as exc:  # an untyped escape is a crash, counted below
        return _crash(item_id, exc, estimate_s=clock() - t0)
    estimate_s = clock() - t0
    if code != 0:
        return _record(item_id, "refused", exit=code, estimate_s=estimate_s)

    lines = out.getvalue().splitlines()
    rows_ok = _rows_match(lines, expected)
    t1 = clock()
    try:
        table = oracle.coeff_recurrence(spec.H, spec.G, spec.beta, spec.effective_box())
    except Exception as exc:
        return _crash(item_id, exc, estimate_s=estimate_s)
    oracle_s = clock() - t1
    # Rows that differ from the stored ones are not parsed any further.
    agrees = rows_ok
    for row in lines[1:] if rows_ok else ():
        r, s, _, estimate, _, exact, _ = row.split(",")
        value = table.value(int(r), int(s))
        if mp.nstr(mpf(value), 17) != exact or value == 0:
            agrees = False
        elif abs(mpf(estimate) / value - 1) > CONFIRM_TOLERANCE:
            agrees = False
    verify_s = clock() - t1
    R, S = table.box
    return _record(
        item_id,
        "confirmed" if agrees else "unconfirmed",
        correct=rows_ok,
        estimate_s=estimate_s,
        verify_s=verify_s,
        oracle_s=oracle_s,
        entries=(R + 1) * (S + 1),
    )


def compare_items(root: Path) -> List[Item]:
    """``bivasym compare`` on both regression problems, run in-process."""
    from bivasym import cli
    from bivasym.problem import parse_problem

    expected = json.loads((HERE / "expected_compare.json").read_text())
    items = []
    for stem in ("color_swap", "multinomial_sqrt"):
        path = root / "problems" / f"{stem}.json"
        spec = parse_problem(path.read_text())
        items.append(Item(
            f"compare-{stem}", lambda p=path, s=spec, e=expected[stem]: _compare_item(p, s, e)
        ))
        with redirect_stdout(io.StringIO()):
            cli.main(["compare", "--spec", str(path), "--dump-spec"])
    return items


# ----------------------------------------------------------------------
# random-solve, part 2: the criterion-4 random family
# ----------------------------------------------------------------------


def _agrees(estimate, exact) -> bool:
    from mpmath import mp

    if exact == 0:
        if estimate.value == 0:
            return True
        biggest = max(c["log10_modulus"] for c in estimate.contributions)
        return mp.log(abs(estimate.value), 10) <= biggest - ZERO_CANCEL_DIGITS
    return abs(estimate.value / exact - 1) <= CONFIRM_TOLERANCE


def _random_item(index: int, spec) -> dict:
    from bivasym import oracle, pipeline
    from bivasym.critical import PROBABLY_STRICTLY_MINIMAL
    from bivasym.errors import BivasymError

    item_id = f"{index:02d}"
    r, s = RANDOM_TARGET
    estimate = solved = None
    refusal = None
    t0 = clock()
    try:
        solved = pipeline.run_solve(spec)
        if solved.dominant is None:
            refusal = "no critical point"
        else:
            estimate = pipeline.estimate_target(spec, solved, r, s)
    except BivasymError as exc:
        refusal = type(exc).__name__
    except Exception as exc:  # an untyped escape is a crash, counted below
        return _crash(item_id, exc, index=index, estimate_s=clock() - t0)
    estimate_s = clock() - t0

    t1 = clock()
    try:
        table = oracle.coeff_recurrence(spec.H, spec.G, spec.beta, RANDOM_TARGET)
    except Exception as exc:
        return _crash(item_id, exc, index=index, estimate_s=estimate_s)
    oracle_s = clock() - t1
    exact = table.value(r, s)
    extra = {}
    if estimate is None:
        outcome = "refused"
        extra["reason"] = refusal
    else:
        verdicts = sorted({pt.minimality for pt in solved.dominant.points if pt.smooth})
        accepted = verdicts == [PROBABLY_STRICTLY_MINIMAL]
        agrees = _agrees(estimate, exact)
        outcome = "confirmed" if accepted and agrees else "unconfirmed"
        extra["verdicts"] = verdicts
        extra["ratio"] = None if exact == 0 else float(abs(estimate.value / exact))
    verify_s = clock() - t1
    return _record(
        item_id,
        outcome,
        index=index,
        exact_zero=bool(exact == 0),
        estimate_s=estimate_s,
        verify_s=verify_s,
        oracle_s=oracle_s,
        entries=(r + 1) * (s + 1),
        **extra,
    )


def random_solve(root: Path, seed: int, family_seed: int = FAMILY_SEED) -> Workload:
    from bivasym import Direction
    from bivasym.problem import ProblemSpec

    gen = random_polynomials(family_seed)
    polys = [next(gen) for _ in range(FAMILY_ITEMS)]
    correct = family_seed != FAMILY_SEED or family_fingerprint(polys) == FAMILY_FINGERPRINT
    items = []
    for k, H in enumerate(polys):
        spec = ProblemSpec(
            H=H, beta=Fraction(1, 2), direction=Direction(1, 1), targets=[RANDOM_TARGET]
        )
        items.append(Item(f"{k:02d}", lambda k=k, spec=spec: _random_item(k, spec)))
    items += compare_items(root)
    _warm_solve()
    return Workload("random-solve", items, reference_pass_s=30.0, correct=correct)


# ----------------------------------------------------------------------
# oracle-scale
# ----------------------------------------------------------------------


def _exact_item(item_id: str, compute, check, box) -> dict:
    t0 = clock()
    try:
        table = compute()
    except Exception as exc:
        return _crash(item_id, exc)
    oracle_s = clock() - t0
    ok = check(table)
    verify_s = clock() - t0
    R, S = box
    return _record(
        item_id,
        "confirmed" if ok else "unconfirmed",
        correct=ok,
        verify_s=verify_s,
        oracle_s=oracle_s,
        entries=(R + 1) * (S + 1),
    )


def _quadrature_error(quad, exact) -> float:
    """Worst relative error on the box, with criterion 3's rule for zeros."""
    R, S = QUADRATURE_BOX
    scale = max(abs(float(exact.value(r, s))) for r in range(R + 1) for s in range(S + 1))
    worst = 0.0
    for r in range(R + 1):
        for s in range(S + 1):
            e = float(exact.value(r, s))
            q = complex(quad.values[r, s])
            if e != 0:
                worst = max(worst, abs(q - e) / abs(e))
            elif abs(q) > max(10 * quad.entry_error(r, s), QUADRATURE_TOLERANCE * scale):
                # Above the tolerance by the rule's own condition.
                worst = max(worst, abs(q) / scale)
    return worst


def _quadrature_item(item_id: str, spec, grid: int, exact) -> dict:
    from bivasym import OracleConfig, oracle

    cfg = OracleConfig(
        box=QUADRATURE_BOX,
        beta=spec.beta,
        quadrature_radii=spec.quadrature_radii,
        quadrature_grid=(grid, grid),
    )
    t0 = clock()
    try:
        quad = oracle.quadrature_values(spec.H, spec.G, spec.beta, cfg)
    except Exception as exc:
        return _crash(item_id, exc)
    worst = _quadrature_error(quad, exact)
    estimate_s = clock() - t0
    ok = worst < QUADRATURE_TOLERANCE
    return _record(
        item_id,
        "confirmed" if ok else "unconfirmed",
        correct=ok,
        estimate_s=estimate_s,
        quadrature_max_rel_err=worst,
    )


def oracle_scale(root: Path, seed: int) -> Workload:
    from bivasym import oracle
    from bivasym.oracle import coeff_linear_closed_form
    from bivasym.problem import parse_problem
    from mpmath import mp, mpf

    mult = parse_problem((root / "problems" / "multinomial_sqrt.json").read_text())
    swap = parse_problem((root / "problems" / "color_swap.json").read_text())
    expected = json.loads((HERE / "expected_compare.json").read_text())
    stored_exact = {
        name: rows[1].split(",")[5] for name, rows in expected.items()
    }
    rng = random.Random(seed)
    H, beta = mult.H, mult.beta
    c0, c1, c2 = H.constant_term(), H.coefficient(1, 0), H.coefficient(0, 1)

    # Reference tables for the checks; these are also the warm-up calls of
    # the oracle layer.
    cf_box = (40, 40)
    mult_ref = oracle.coeff_recurrence(H, None, beta, cf_box)
    swap_ref = oracle.coeff_recurrence(swap.H, swap.G, swap.beta, (20, 10), order="antidiagonal")
    quad_ref = {
        "mult": oracle.coeff_recurrence(H, None, beta, QUADRATURE_BOX),
        "swap": oracle.coeff_recurrence(swap.H, swap.G, swap.beta, QUADRATURE_BOX),
    }
    oracle.closed_form_table(H, beta, (4, 4))
    _quadrature_item("warm-up", mult, 64, quad_ref["mult"])

    def prefix_equal(table, ref) -> bool:
        R, S = ref.box
        return ref.prefactor == table.prefactor and all(
            table.series.coeffs[r][s] == ref.series.coeffs[r][s]
            for r in range(R + 1)
            for s in range(S + 1)
        )

    def nstr_at(table, r, s) -> str:
        return mp.nstr(mpf(table.value(r, s)), 17)

    def check_mult(n):
        positions = [(n, n)] + [(rng.randint(0, n), rng.randint(0, n)) for _ in range(8)]

        def check(table) -> bool:
            ok = table.prefactor.is_one() and nstr_at(table, 100, 100) == stored_exact["multinomial_sqrt"]
            for r, s in positions:
                value, prefactor = coeff_linear_closed_form(c0, c1, c2, beta, r, s)
                ok = ok and prefactor.is_one() and table.series.coeffs[r][s] == value
            return ok

        return check

    def check_swap(table) -> bool:
        return prefix_equal(table, swap_ref) and nstr_at(table, 70, 35) == stored_exact["color_swap"]

    items = []
    for n in (100, 150, 200):
        items.append(Item(
            f"recurrence-multinomial-{n}x{n}",
            lambda n=n, check=check_mult(n): _exact_item(
                f"recurrence-multinomial-{n}x{n}",
                lambda: oracle.coeff_recurrence(H, None, beta, (n, n)),
                check,
                (n, n),
            ),
        ))
    for box in ((140, 70), (200, 100)):
        name = f"recurrence-color_swap-{box[0]}x{box[1]}"
        items.append(Item(
            name,
            lambda name=name, box=box: _exact_item(
                name,
                lambda: oracle.coeff_recurrence(swap.H, swap.G, swap.beta, box),
                check_swap,
                box,
            ),
        ))
    items.append(Item(
        "closed_form-multinomial-40x40",
        lambda: _exact_item(
            "closed_form-multinomial-40x40",
            lambda: oracle.closed_form_table(H, beta, cf_box),
            lambda table: table.series == mult_ref.series and table.prefactor == mult_ref.prefactor,
            cf_box,
        ),
    ))
    for label, spec in (("mult", mult), ("swap", swap)):
        for grid in (1024, 2048):
            name = f"quadrature-{label}-{grid}"
            items.append(Item(
                name,
                lambda name=name, spec=spec, grid=grid, ref=quad_ref[label]: _quadrature_item(
                    name, spec, grid, ref
                ),
            ))
    return Workload("oracle-scale", items, reference_pass_s=8.0)


def _warm_solve() -> None:
    """One untimed call into each layer of the estimate chain."""
    from bivasym import oracle, pipeline
    from bivasym.problem import parse_problem

    spec = parse_problem(
        '{"H": [[0, 0, "1"], [1, 0, "-1"], [0, 1, "-1"]], "beta": "1/2", "direction": "1:1"}'
    )
    solved = pipeline.run_solve(spec)
    pipeline.estimate_target(spec, solved, 4, 4)
    oracle.coeff_recurrence(spec.H, None, spec.beta, (4, 4))


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "random-solve": random_solve,
    "oracle-scale": oracle_scale,
}
