"""The host's speed, measured with a fixed piece of work beside the ops.

On a shared host the cores run faster or slower by a quarter or more, for
seconds to minutes at a time, as other tenants come and go.  A run that
falls in a slow spell reads slow however long it is.  So the operation
timings are taken against a reference: a fixed block of pure-Python work
that never calls pwlham, timed between operations (see
``run.run_scaled_pass``).  Each timing is scaled by ``NOMINAL_S /
reference time`` measured around it, which reports it as it would read on
a host that runs the block in ``NOMINAL_S``.  A change to pwlham moves the
ops and not the block, so it shows in full; a change of host speed moves
both and cancels.

The block mixes what pwlham's layers do: exact ``Fraction`` arithmetic,
float ``math`` calls, and small tuples, lists and dicts.  It runs with the
garbage collector off, so that objects a program keeps alive cannot slow
the block and make the ops read faster than they ran.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from fractions import Fraction

# Scaled timings read as on a host that runs one block in this time: about
# what a 2-vCPU cloud VM (Python 3.11) takes, so that they read close to
# wall time there.
NOMINAL_S = 5e-4

# Timed blocks per measurement; their median is the measurement.
BLOCKS = 3

# Ops run between reference measurements for about this long.
EVERY_S = 0.05

# Measurements on each side of a segment of ops that set its scale factor.
NEIGHBOURS = 3


def block() -> tuple:
    acc = Fraction(0)
    x = 0.0
    rows = []
    seen = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 7)
        x += math.sqrt(i) * math.exp(-i / 120.0) + math.atan2(i, 7.0)
        rows.append((acc.numerator % 97, x))
        seen[i % 31] = rows[-1]
    rows.sort()
    return acc, x, len(seen)


def block_time() -> float:
    """Seconds one block takes now: the median of BLOCKS timed blocks."""
    perf = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(BLOCKS):
            start = perf()
            block()
            times.append(perf() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Reference:
    """The block measurements of one run, in the order taken."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def take(self) -> int:
        """Takes one measurement; returns its index in ``times``."""
        self.times.append(block_time())
        return len(self.times) - 1

    def scale(self, before: int) -> float:
        """Factor for the ops between measurement ``before`` and the next.

        A single measurement is itself off by a sixth either way, so the
        factor is NOMINAL_S over the median of up to NEIGHBOURS
        measurements on each side of the ops.
        """
        near = self.times[max(0, before + 1 - NEIGHBOURS) : before + 1 + NEIGHBOURS]
        return NOMINAL_S / statistics.median(near)
