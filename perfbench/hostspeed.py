"""Host-speed correction for the benchmark's timings.

The machine the benchmark was built on is a 2-vCPU VM shared with
other tenants; its speed drifts by 10-50% over tens of seconds to
minutes, which no statistic inside one run can average away.  So every
timed phase is bracketed or interleaved with short *reference slices*:
a fixed, interpreter-bound loop that lives here (not in the simulator)
and allocates no container objects, so no change to the simulator can
make it faster or slower, nor trigger garbage collection inside it.

A phase's raw times are multiplied by ``NOMINAL_SLICE_S / mean slice
time`` measured around it, which expresses them in seconds on a host
where one slice takes ``NOMINAL_SLICE_S``.  On the 2-vCPU VM, over ten
passes while the host slowed by a third, this cut the coefficient of
variation of a pass's time from 0.062 to 0.028.
"""

from __future__ import annotations

import time
from typing import List

#: Slice length in loop iterations, and its time on the nominal host
#: (the 2-vCPU 2.1 GHz Xeon VM at its fast state).
SLICE_ITERS = 20_000
NOMINAL_SLICE_S = 0.016

_TABLE = {i: i for i in range(1 << 15)}
_SLOTS = list(range(1 << 15))


def _reference(n: int) -> int:
    table, slots = _TABLE, _SLOTS
    x = 12345
    acc = 0
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 0x7FFF
        v = table[k] + 1
        table[k] = v & 0xFFFF
        slots[(k * 7) & 0x7FFF] = v
        acc ^= slots[k]
    return acc


class SpeedProbe:
    """Collects reference-slice times for one timed phase."""

    def __init__(self) -> None:
        self.slices: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            _reference(SLICE_ITERS)
            self.slices.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        return speed_factor(self.slices)


def speed_factor(slices: List[float]) -> float:
    """Multiplier from raw seconds to seconds on the nominal host."""
    if not slices:
        raise ValueError("no reference slices measured")
    return NOMINAL_SLICE_S * len(slices) / sum(slices)
