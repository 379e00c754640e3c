"""How fast the host runs right now, from a fixed reference loop.

The host this benchmark was tuned on, a 2-vCPU virtual machine, steps
between speed levels up to 1.5x apart that last for minutes.  CPU time
tracks wall time, both vCPUs behave alike and no hardware counter is
exposed, so nothing inside the machine sees the steps, and a wall-clock
figure moves with them.  A run therefore times this loop before every
set-up and every round and scales its timings by ``REFERENCE_S`` over the
median sample: a host phase moves both alike, so the scaled figures
compare code, not phases.  The loop uses the benchmark's own numpy and
pure-Python geometry and no library code, so a change to the library
cannot move it.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from checks import Mesh

# Median length of one sample on the reference host at its slower level.
REFERENCE_S = 0.025


class HostSpeed:
    """Samples of the reference loop taken through one run."""

    def __init__(self):
        rng = random.Random("hostspeed")
        self._mesh = Mesh([[tuple(rng.uniform(-5.0, 5.0) for _ in range(3)) for _ in range(3)]
                           for _ in range(400)])
        self._points = [tuple(rng.uniform(-5.0, 5.0) for _ in range(3)) for _ in range(10)]
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        for p in self._points:
            self._mesh.clearance(p, reach=1.5)
        self.samples.append(perf_counter() - t0)

    def factor(self) -> float:
        """How many times faster than the reference the host ran in this run."""
        return REFERENCE_S / statistics.median(self.samples)
