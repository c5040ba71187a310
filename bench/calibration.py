"""The speed of the host, measured alongside the workload.

The benchmark runs on a few cores of a shared host.  The speed at which
one process runs Python there drifts by 10-25 % from minute to minute, and
by as much from one second to the next, with the load that other guests
put on the host.  The drift is common to all Python code: a fixed kernel of
standard-library arithmetic slows down and speeds up with the workload's
items.  So the benchmark times that kernel before every item and reports
each time at the reference speed:

    reported time = CPU time * REFERENCE_KERNEL_S / kernel time nearby

where the kernel time nearby is the median of the kernel samples taken
before the ``WINDOW`` items around it.  The kernel uses the standard
library only, so no change to bivasym changes its speed; a change that
makes bivasym faster makes the reported times smaller by the same share.
The raw CPU times are kept beside the reported ones in the result file.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import process_time
from typing import List

# Every time the benchmark takes is CPU time of its own process.  The
# process has one thread doing the work, so this is the wall time the code
# takes when it has a core to itself; on a shared virtual machine it leaves
# out the stretches in which the host runs other guests instead (steal).
clock = process_time

# Median kernel time on the 2-core x86-64 machine behind the seed numbers
# in README.md.  It fixes the unit of the reported times and nothing else.
REFERENCE_KERNEL_S = 0.02
# Kernel samples in the median that scales one item's time.
WINDOW = 9
# Kernel samples taken after each set-up.
SETUP_KERNEL_SAMPLES = 9


def kernel() -> Fraction:
    """A fixed mix of exact, float and container work: about 20 ms."""
    acc = Fraction(0)
    table = {}
    x = 0.5
    for i in range(1, 3000):
        acc += Fraction(i % 17 - 8, i + 3)
        table[i % 101] = table.get(i % 101, 0) + i * i
        x = x * 0.999 + (i % 7) * 1e-3
    return acc + sum(table.values()) + Fraction(x)


def sample() -> float:
    """CPU time of one run of the kernel."""
    t0 = clock()
    kernel()
    return clock() - t0


def scale(samples: List[float]) -> float:
    """Factor from CPU time at the speed the samples show to reference time."""
    return REFERENCE_KERNEL_S / statistics.median(samples)


def factors(samples: List[float], window: int = WINDOW) -> List[float]:
    """For the k-th of a run of items, the scale of the samples around it."""
    half = window // 2
    n = len(samples)
    out = []
    for k in range(n):
        lo = max(0, min(k - half, n - window))
        out.append(scale(samples[lo:lo + window]))
    return out
