"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _items(workload, ids):
    chosen = [item for item in workload.items if item.id in ids]
    assert len(chosen) == len(ids)
    return chosen


def test_traced_run_emits_every_span():
    chosen = (
        _items(
            workloads.random_solve(ROOT, 0),
            {"05", "compare-color_swap", "compare-multinomial_sqrt"},
        )
        + _items(
            workloads.oracle_scale(ROOT, 0),
            {"quadrature-mult-1024", "closed_form-multinomial-40x40"},
        )
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        for item in chosen:
            with tracer.item(item.id):
                assert item.run()["outcome"] == "confirmed"
    assert sorted({span.name for span in tracer.spans}) == tracing.SPAN_NAMES

    metrics = tracing.layer_metrics(tracer, passes=1)
    assert set(metrics) == set(tracing.PER_LAYER_METRICS)
    # Layer self times partition the items' traced CPU time.
    partition = [name for name in tracing.SELF_TIME_METRICS if name != "estimates.winding_s"]
    total = sum(metrics[name] for name in partition)
    assert total == pytest.approx(metrics["bench.item_s"], rel=1e-9)
    assert metrics["bench.self_s"] < 0.05 * metrics["bench.item_s"]


def test_wrappers_are_removed_after_tracing():
    import bivasym.pipeline

    original = bivasym.pipeline.minimality_probe
    with tracing.Tracer().installed():
        assert bivasym.pipeline.minimality_probe is not original
    assert bivasym.pipeline.minimality_probe is original


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "oracle-scale",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert printed == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_random_family_is_the_acceptance_family():
    from tests.test_acceptance import _random_polynomials

    ours = workloads.random_polynomials(workloads.FAMILY_SEED)
    theirs = _random_polynomials(workloads.FAMILY_SEED)
    first = [next(ours) for _ in range(60)]
    assert first == [next(theirs) for _ in range(60)]
    fingerprint = workloads.family_fingerprint(first[: workloads.FAMILY_ITEMS])
    assert fingerprint == workloads.FAMILY_FINGERPRINT


def test_known_defects_count_as_failures():
    """Items 29 and 30 estimate from classes the probe rejected."""
    wl = workloads.random_solve(ROOT, 0)
    for item in _items(wl, {"29", "30"}):
        rec = item.run()
        assert rec["outcome"] == "unconfirmed"
        assert rec["verdicts"] == ["violated"]


def test_exact_zero_rule():
    from types import SimpleNamespace

    from mpmath import mpc, mpf

    contributions = [{"log10_modulus": mpf(15)}]
    cancelled = SimpleNamespace(value=mpc(1e-21, 0), contributions=contributions)
    left_over = SimpleNamespace(value=mpc(1e3, 0), contributions=contributions)
    assert workloads._agrees(cancelled, mpf(0))
    assert not workloads._agrees(left_over, mpf(0))


def test_compare_rows_tolerate_low_digits_only():
    expected = json.loads((HERE / "expected_compare.json").read_text())["color_swap"]
    head, row = expected
    cells = row.split(",")
    nudged = cells[:6] + [repr(float(cells[6]) * (1 + 1e-15))]
    assert workloads._rows_match([head, ",".join(nudged)], expected)
    moved = cells[:6] + [repr(float(cells[6]) * (1 + 1e-9))]
    assert not workloads._rows_match([head, ",".join(moved)], expected)
    exact_changed = cells[:5] + ["3.59820787321576e+39", cells[6]]
    assert not workloads._rows_match([head, ",".join(exact_changed)], expected)


def test_calibration_scales_to_the_reference_speed():
    ref = calibration.REFERENCE_KERNEL_S
    # A host at half the reference speed doubles the kernel time.
    assert calibration.factors([2 * ref] * 20) == [0.5] * 20
    # Each item takes the WINDOW samples around it, moved inward at the ends.
    samples = [ref] * 10 + [2 * ref] * 10
    scaled = calibration.factors(samples)
    assert len(scaled) == len(samples)
    assert scaled[0] == 1.0 and scaled[-1] == 0.5
    # With fewer samples than the window, every item takes all of them.
    assert calibration.factors([ref, 2 * ref, 4 * ref]) == [0.5] * 3
