"""Host-speed probe for normalising times.

The host's CPUs are shared, and its speed drifts by up to half for tens of
seconds at a time, far longer than any filtering inside a run can hide.  A
fixed kernel timed alongside the workload slows down with it, so
``measured seconds * REFERENCE_S / probe()`` is steady: it is the time the
work would take on this host when the kernel takes REFERENCE_S.

The kernel mixes interpreter loops, small numpy calls and one streaming
numpy pass, like satsched's own hot paths, and touches no satsched code, so
a change to the package cannot move it.
"""

import statistics
import time

import numpy as np

# the kernel's time on the reference host (2-vCPU Intel Xeon, Python 3.11,
# numpy 2.4) when nothing else contends for it
REFERENCE_S = 0.0028
RUNS = 3

_DATA = np.random.default_rng(0).exponential(10.0, 32)


def _kernel() -> float:
    acc = 0.0
    for i in range(600):
        acc += float(np.sort(_DATA)[i % 32])
        for j in range(40):
            acc += j * 0.5
    return acc + float(np.cumsum(np.arange(100_000, dtype=float))[-1])


def probe() -> float:
    """Seconds the kernel takes now: the median of RUNS back-to-back runs."""
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
