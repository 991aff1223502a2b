"""How fast the host runs Python right now, independent of the library.

The host this benchmark was built on shares its cores with other tenants,
and its speed for the same Python code swings by up to 40% over tens of
seconds (CPU time stays equal to wall time, so it is contention, not
preemption).  Runs made minutes apart then differ by more than any bound a
regression gate can use.  `SpeedProbe` runs two fixed loops between the
benchmark's timed operations: one compute-bound (attribute and dict work),
one memory-bound (a walk through a 4 MiB index array).  Their geometric
mean is the host's current speed; `scale` is its median over the run
divided by `NOMINAL`, so a time multiplied by `scale` (and a rate divided
by it) reads as if the host ran at the nominal speed.
"""

from __future__ import annotations

import statistics
import time
from array import array

NOMINAL = 400.0   # probe speed of an uncontended host of the reference machine
_STEPS = 15_000
_WALK = 1 << 20   # entries of the index array: 4 MiB of int32


class _Cell:
    __slots__ = ("a", "b")


class SpeedProbe:
    def __init__(self):
        mask = _WALK - 1
        # a full-period LCG over the array's indexes: every step lands on an
        # unpredictable cache line, as the tree's pointer chasing does
        self.walk = array("i", ((i * 1103515245 + 12345) & mask for i in range(_WALK)))
        self.cells = [_Cell() for _ in range(64)]
        self.at = 0
        self.samples = []

    def _compute_ns(self) -> int:
        cells = self.cells
        table = {}
        t0 = time.perf_counter_ns()
        for i in range(_STEPS):
            c = cells[i & 63]
            c.a = i
            c.b = c.a + 1
            table[i & 255] = c
            table.get((i * 7) & 255)
        return time.perf_counter_ns() - t0

    def _memory_ns(self) -> int:
        walk = self.walk
        i = self.at
        t0 = time.perf_counter_ns()
        for _ in range(_STEPS):
            i = walk[i]
        dt = time.perf_counter_ns() - t0
        self.at = i
        return dt

    def sample(self) -> None:
        """Measure once; about 5 ms.  Call it outside every timed region."""
        self.samples.append(1e9 / (self._compute_ns() * self._memory_ns()) ** 0.5)

    @property
    def speed(self) -> float:
        return statistics.median(self.samples)

    @property
    def scale(self) -> float:
        return self.speed / NOMINAL
