"""The host's current speed, read from a fixed reference loop.

On a shared virtual machine the speed of the CPU the benchmark gets swings
by up to 2x within tens of seconds, and user+system CPU time swings with it,
since the slowdown comes from other tenants sharing the core, not from
waiting. The benchmark therefore times a fixed pure-Python loop right before
each timed unit of work (a query or a command process) and rescales that
unit's CPU time to a host on which the loop takes ``REFERENCE_MS``:

    adjusted = cpu * REFERENCE_MS / reference

A change to the program moves the adjusted time as it moves the raw time;
a change in the host's speed moves both the unit and the loop and cancels.
The loop does what the program spends most of its time on: it maps edge
masks through fixed edge permutations, as the automorphism scans do, with
tuple indexing, integer bit arithmetic and dict updates. It tracked the
host's speed better than a loop of plain arithmetic and set lookups.
"""

from __future__ import annotations

import random
import statistics
import time

REFERENCE_MS = 2.0      # nominal CPU time of one reference loop
EDGES = 15
PERMUTATIONS = tuple(tuple(random.Random(i).sample(range(EDGES), EDGES)) for i in range(120))
MASK_STEP = 1024        # 32 masks


def _loop_ms() -> float:
    start = time.process_time_ns()
    images = {}
    for mask in range(0, 1 << EDGES, MASK_STEP):
        bits = [i for i in range(EDGES) if mask >> i & 1]
        for perm in PERMUTATIONS:
            image = 0
            for i in bits:
                image |= 1 << perm[i]
            images[image] = images.get(image, 0) + 1
    elapsed = time.process_time_ns() - start
    if len(images) < 2:     # keeps the loop's result live
        raise AssertionError(images)
    return elapsed / 1e6


def reference_ms(repeats: int = 1) -> float:
    """CPU milliseconds of the reference loop, the median of ``repeats``
    runs."""
    return statistics.median(_loop_ms() for _ in range(repeats))


def adjusted(cpu: float, reference: float) -> float:
    """``cpu`` rescaled to a host on which the reference loop takes
    ``REFERENCE_MS``."""
    return cpu * REFERENCE_MS / reference
