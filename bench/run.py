"""Benchmark of bivasym: one command, two workloads, every output checked.

Run from the root of a checkout:

    python3 bench/run.py --workload random-solve --seed 1 --seconds 52 --trace 0

The load model is one process and one caller in a closed loop: each item
starts when the previous one has finished.  ``--seconds`` sets how many
passes over the workload's items a run makes; ``--seed`` sets the order of
the items in each pass and, on oracle-scale, the table entries checked.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` the run makes the same passes once untraced and
once with span-recording wrappers installed, and reports per-layer metrics
and the tracing overhead.  Every time is CPU time of this process, scaled
to a reference speed that is measured alongside the items (see
``calibration.py``).  A ``# result`` line before it, and a file under
``bench/out/``, hold the outcome of every item, the environment and the
sample counts.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One caller and no extra threads: numpy's BLAS gets a single thread.  This
# must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402  (none of these needs bivasym at import time)
import tracing  # noqa: E402
import workloads  # noqa: E402
from calibration import clock  # noqa: E402

SETUP_SAMPLES = 3
# The tail is the highest percentile with at least this many samples above it.
TAIL_ABOVE = 10

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "estimate_p50_s": "s",
    "estimate_tail_s": "s",
    "verify_p50_s": "s",
    "verify_tail_s": "s",
    "entries_per_s": "1/s",
    "confirmed_share": "ratio",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--family-seed",
        type=int,
        default=None,
        help="random-solve: seed of the random polynomial family (default 20260810)",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(args):
    """Import bivasym, build the workload's inputs and warm up each layer."""
    extra = {}
    if args.workload == "random-solve" and args.family_seed is not None:
        extra["family_seed"] = args.family_seed
    return workloads.WORKLOADS[args.workload](ROOT, args.seed, **extra)


def timed_setup(args):
    """Set up; return the workload and the set-up time, scaled and raw."""
    t0 = clock()
    workload = setup(args)
    cpu_s = clock() - t0
    kernel = [calibration.sample() for _ in range(calibration.SETUP_KERNEL_SAMPLES)]
    return workload, cpu_s * calibration.scale(kernel), cpu_s


def _setup_in_subprocess(argv):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {proc.stderr.strip()[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["setup_cpu_s"]


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    return int(getattr(handle, symbol)())
    except OSError:
        pass
    return None


def environment() -> dict:
    import mpmath
    import numpy

    from bivasym import get_precision

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "precision_bits": get_precision(),
        "machine": platform.machine(),
        "load_model": "closed loop, 1 process, 1 caller",
        "clock": "CPU time of the measuring process, scaled to the reference speed of calibration.py",
    }


# Times in an item's record; run_passes scales them to the reference speed.
TIMES = ("item_s", "estimate_s", "verify_s", "oracle_s")


def run_passes(workload, passes: int, seed: int, tracer=None):
    """Run ``passes`` passes over the items.

    The calibration kernel is timed once before each item.  Returns the
    records, with every time scaled to the reference speed and the CPU
    times kept under ``cpu``; the time of each pass's items at that speed;
    the wall time of each pass, checks and kernel included; and the kernel
    samples.
    """
    rng = random.Random(seed)
    records, wall_times, kernel_samples = [], [], []
    for number in range(passes):
        order = rng.sample(workload.items, len(workload.items))
        wall0 = time.perf_counter()
        for position, item in enumerate(order):
            gc.collect()
            kernel_samples.append(calibration.sample())
            t0 = clock()
            if tracer is None:
                rec = item.run()
            else:
                with tracer.item(item.id) as root:
                    rec = item.run()
                    if "quadrature_max_rel_err" in rec:
                        root.attrs["quadrature_max_rel_err"] = rec["quadrature_max_rel_err"]
            rec["item_s"] = clock() - t0
            rec.update({"pass": number, "position": position})
            records.append(rec)
        wall_times.append(time.perf_counter() - wall0)
    factors = calibration.factors(kernel_samples)
    for rec, kernel_s, factor in zip(records, kernel_samples, factors):
        rec["cpu"] = {key: rec[key] for key in TIMES if key in rec}
        for key in rec["cpu"]:
            rec[key] *= factor
        rec.update({"kernel_s": kernel_s, "speed_scale": factor})
    pass_times = [sum(r["item_s"] for r in records if r["pass"] == n) for n in range(passes)]
    return records, pass_times, wall_times, kernel_samples


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of ``values``.

    A mean of the ordered values, weighted by the beta density with
    parameters q (n + 1) and (1 - q) (n + 1), integrated over each value's
    share of [0, 1].  It estimates the same quantile as the order statistic
    at that rank, but draws on the values around the rank too, so that it
    moves less when noise reorders them.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 100 * n
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def p50_and_tail(records, key):
    """Median item time and the highest percentile with TAIL_ABOVE samples above it.

    The median is taken over the items of the workload, each at its own
    median over the passes: with items of a few distinct sizes, the plain
    median of all samples would sit on the gap between two sizes and jump
    with noise.  The tail is taken over all samples; with 2 * TAIL_ABOVE
    samples or fewer that percentile would not lie above the median, and
    the tail is the maximum.  Both are Harrell-Davis estimates.
    """
    by_item = {}
    for r in records:
        if key in r:
            by_item.setdefault(r["id"], []).append(r[key])
    samples = [t for times in by_item.values() for t in times]
    n = len(samples)
    if n == 0:
        return None, None, 0
    p50 = harrell_davis([harrell_davis(t, 0.5) for t in by_item.values()], 0.5)
    tail = harrell_davis(samples, (n - TAIL_ABOVE) / n) if n > 2 * TAIL_ABOVE else max(samples)
    return p50, tail, n


def accounting(records) -> dict:
    counts = {k: 0 for k in ("confirmed", "refused", "unconfirmed", "crashed")}
    for rec in records:
        counts[rec["outcome"]] += 1
    attempted = len(records)
    failed = counts["unconfirmed"] + counts["crashed"]
    return {
        "attempted": attempted,
        **counts,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 0.0,
        "failed_items": sorted({r["id"] for r in records if r["outcome"] in ("unconfirmed", "crashed")}),
        "crashes": [
            {"item": r["id"], "pass": r["pass"], "error": r["error"]}
            for r in records
            if r["outcome"] == "crashed"
        ],
        "refusals": sorted({f'{r["id"]}:{r.get("reason") or r.get("exit")}' for r in records if r["outcome"] == "refused"}),
    }


def end_to_end(records, pass_times, setup_s) -> tuple[dict, dict]:
    est_p50, est_tail, est_n = p50_and_tail(records, "estimate_s")
    ver_p50, ver_tail, ver_n = p50_and_tail(records, "verify_s")
    oracle_s = sum(r["oracle_s"] for r in records if "oracle_s" in r)
    entries = sum(r["entries"] for r in records if "entries" in r)
    confirmed = sum(r["outcome"] == "confirmed" for r in records)
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(pass_times),
        "estimate_p50_s": est_p50,
        "estimate_tail_s": est_tail,
        "verify_p50_s": ver_p50,
        "verify_tail_s": ver_tail,
        "entries_per_s": entries / oracle_s if oracle_s else None,
        "confirmed_share": confirmed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "passes": len(pass_times),
        "estimate_samples": est_n,
        "verify_samples": ver_n,
        "tail_percentile": {
            "estimate": _tail_percentile(est_n),
            "verify": _tail_percentile(ver_n),
        },
    }
    return values, samples


def _tail_percentile(n: int):
    if n == 0:
        return None
    return round(100.0 * (n - TAIL_ABOVE) / n, 2) if n > 2 * TAIL_ABOVE else 100.0


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    if not (ROOT / "src" / "bivasym").is_dir() or not (ROOT / "problems").is_dir():
        sys.stderr.write(f"bench: no bivasym sources under {ROOT}; run from a full checkout\n")
        return 2

    workload, own_setup_s, own_setup_cpu_s = timed_setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s, "setup_cpu_s": own_setup_cpu_s}))
        return 0
    setups = [(own_setup_s, own_setup_cpu_s)]
    if not args.trace:
        setups += [_setup_in_subprocess(argv) for _ in range(SETUP_SAMPLES - 1)]
    setup_s = statistics.median(scaled for scaled, _ in setups)

    share = 2 if args.trace else 1
    passes = max(1, round(args.seconds / share / workload.reference_pass_s))
    records, pass_times, wall_times, kernel = run_passes(workload, passes, args.seed)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_samples_s": [scaled for scaled, _ in setups],
        "setup_cpu_s": [raw for _, raw in setups],
        "pass_s": pass_times,
        "pass_cpu_s": [
            sum(r["cpu"]["item_s"] for r in records if r["pass"] == n) for n in range(passes)
        ],
        "pass_wall_s": wall_times,
        "kernel_s": {
            "reference": calibration.REFERENCE_KERNEL_S,
            "median": statistics.median(kernel),
            "min": min(kernel),
            "max": max(kernel),
        },
    }
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced_records, traced_times, _, traced_kernel = run_passes(
                workload, passes, args.seed, tracer
            )
        # Spans hold CPU times; one scale for the traced passes keeps the
        # layer self times adding up to bench.item_s.
        factor = calibration.scale(traced_kernel)
        values = {
            name: value * factor if name.endswith("_s") else value
            for name, value in tracing.layer_metrics(tracer, passes).items()
        }
        untraced, traced = statistics.median(pass_times), statistics.median(traced_times)
        values.update({
            "trace.untraced_run_s": untraced,
            "trace.traced_run_s": traced,
            "trace.overhead_s": traced - untraced,
            "trace.overhead_share": (traced - untraced) / untraced,
        })
        metrics = _metrics(values, tracing.PER_LAYER_METRICS)
        records = records + traced_records
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{workload.name}-seed{args.seed}.json")
    else:
        values, samples = end_to_end(records, pass_times, setup_s)
        detail["samples"] = samples
        metrics = _metrics(values, END_TO_END)

    acct = accounting(records)
    correct = workload.correct and all(r["correct"] for r in records)
    detail.update({"correct": correct, "accounting": acct, "metrics": metrics, "items": records})
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n"
    )
    summary = {k: v for k, v in detail.items() if k != "items"}
    print("# result " + json.dumps(summary, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": acct["attempted"],
        "failed": acct["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
