"""Machine-speed probe for normalising latencies on a shared, noisy host.

On a virtual machine that shares its cores, the same computation runs up to
1.5x slower for seconds at a time.  A fixed reference task that does not use
hermitia (Python bytecode plus small LAPACK calls, like the program's own hot
loops) is timed every ``EVERY_S`` seconds between jobs.  A job's latency is
scaled by ``NOMINAL_S`` over the median of the probes nearest to it in time,
which reports it in seconds at the nominal speed.  In 60-second tests on a
2-core VM, probe and CLI job times correlated at 0.75 over 4-second blocks
in a calm minute (scaling cut the job's block-to-block variation from 5.3% to
3.5%) and at 0.96 in a busy one (from 14% to 5%, with a similar probe).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.0095  # the reference task's median time on a calm 2-core VM
EVERY_S = 0.25
NEAREST = 5

_A = np.random.default_rng(0).standard_normal((8, 8))
_A = _A + _A.T


def reference_task() -> float:
    acc = 0.0
    for _ in range(800):
        acc += float(np.linalg.eigvalsh(_A)[0])
        for j in range(60):
            acc += j * 0.5
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, duration)
        self._last = -1e300

    def probe(self) -> None:
        start = time.perf_counter()
        reference_task()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2.0, end - start))
        self._last = end

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median of the probes nearest to [start, end]."""
        mid = (start + end) / 2.0
        near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]
        return NOMINAL_S / statistics.median(d for _, d in near)
