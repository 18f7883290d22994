"""A fixed piece of pure-Python work that measures the machine's speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x within a
minute, so a job's wall time says as much about the host as about the
program.  The benchmark therefore runs `kernel()` next to every job and
reports times scaled to a machine on which the kernel takes `REF_MS`.  The
kernel is exact `Fraction` arithmetic, the same kind of work the program
spends its time on, and it belongs to the benchmark: no change to the program
can make it faster or slower.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_MS = 1.0  # scaled times are for a machine that runs kernel() in 1 ms


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(i % 97, i % 89 + 1) * Fraction(3, 7)
    return s


def sample_ms() -> float:
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


def median_ms(n: int) -> float:
    return statistics.median(sample_ms() for _ in range(n))


def scale(latencies_ms: list[float], kernel_ms: list[float], half_window: int = 8) -> list[float]:
    """Each latency times REF_MS over the median kernel time of the samples
    taken after the `half_window` jobs before it, after it and after the
    `half_window` jobs that follow."""
    out = []
    for k, lat in enumerate(latencies_ms):
        near = kernel_ms[max(0, k - half_window): k + half_window + 1]
        out.append(lat * REF_MS / statistics.median(near))
    return out
