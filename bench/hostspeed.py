"""Host-speed calibration: a fixed interpreter kernel timed between operations.

On a host whose cores are shared with other tenants, speed can drift by a
third within seconds, and the drift moves this kernel and the program's
operations together (measurements in bench/README.md).  Reported times
are scaled to a host on which one kernel pass takes REFERENCE_S: each
operation by the kernel passes just before and just after it, and sums over
a whole phase by the median pass of the run.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0025       # about the median pass on a 2.1 GHz Xeon vCPU
INTERVAL_S = 0.05          # operation time between two kernel passes


def kernel() -> float:
    """Exact rational bisection, list rewriting and a float loop: the three
    kinds of interpreter work the workloads are made of."""
    lo, hi, y = Fraction(0), Fraction(1), Fraction(1, 3)
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid * (mid * mid + 1) / 2 <= y:
            lo = mid
        else:
            hi = mid
    word = []
    for _ in range(4):
        word = list(range(160))
        for i in range(120):
            word = word[:i] + [i, -i] + word[i + 2:]
    x = 0.1
    for _ in range(6750):
        x += 0.01 * math.sin(6.283185307179586 * x)
    return float(lo) + x + len(word)


class Calibration:
    def __init__(self):
        self.times: list[float] = []         # start of each kernel pass
        self.samples: list[float] = []       # its duration
        self._since = 0.0

    def sample(self) -> float:
        start = time.perf_counter()
        kernel()
        self.times.append(start)
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def after_op(self, seconds: float) -> None:
        """Take a kernel pass once INTERVAL_S of operation time has passed."""
        self._since += seconds
        if self._since >= INTERVAL_S:
            self._since = 0.0
            self.sample()

    def scale(self) -> float:
        """Factor turning this run's seconds into reference-host seconds."""
        return REFERENCE_S / statistics.median(self.samples)

    def local_scales(self, starts) -> list[float]:
        """The factor for an operation started at each time, from the median
        of the two kernel passes before it and the two after it."""
        out = []
        for t in starts:
            after = bisect.bisect_right(self.times, t)
            near = self.samples[max(after - 2, 0):after + 2]
            out.append(REFERENCE_S / statistics.median(near))
        return out
