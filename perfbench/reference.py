"""A fixed unit of CPU work, timed next to each measurement to rescale it
to a reference machine speed.

The machine this benchmark was tuned on is a 2-vCPU virtual machine whose
speed drifts with its neighbours' load, by up to 40% over minutes, with no
steal time reported and CPU time equal to wall time. The median of one
workload over 24 s windows spread by 0.21 (interquartile distance over
median) whatever the window length. Dividing each timed call by the time of
this unit, measured just before and just after it, brought that spread down
to 0.08-0.14. The unit mixes the kinds of work the program does: big-int
mask arithmetic as in ``mclp``, float formatting and JSON encoding as in
the artifact writers, and numpy passes over a 1 MB array as in ``overlay``.
It does not depend on the program under test.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Time of one unit at the reference speed. Rescaled times are in seconds
# at that speed; the constant only sets the scale.
UNIT_S = 0.007

# Preallocated, so the unit's time does not depend on the allocator state
# the program leaves behind (fresh 1 MB arrays took 3 ms in a new process
# and 1.2 ms after a large iteration had raised malloc's mmap threshold).
PASSES = 8
_ARRAY = np.arange(131072, dtype=float)
_OUT = np.empty_like(_ARRAY)


def unit() -> int:
    mask = (1 << 1024) - 1
    covered = 0
    pops = {}
    for i in range(3000):
        gain = (mask >> (i % 900)) & ~covered
        covered |= gain >> 7
        pops[i % 97] = gain.bit_count()
    text = json.dumps([{"score": repr(x * 0.37)} for x in range(1400)])
    for _ in range(PASSES):
        np.multiply(_ARRAY, _ARRAY, out=_OUT)
        np.add(_OUT, 1.0, out=_OUT)
        np.sqrt(_OUT, out=_OUT)
        np.minimum(_OUT, _ARRAY, out=_OUT)
    return len(text) + len(pops)


def unit_time(budget_s: float) -> float:
    """Mean time of one unit, running units for ``budget_s`` (at least two)."""
    n = 0
    t0 = time.perf_counter()
    while True:
        unit()
        n += 1
        elapsed = time.perf_counter() - t0
        if n >= 2 and elapsed >= budget_s:
            return elapsed / n


def rescale(times: list[float], units: list[float]) -> list[float]:
    """Each time in reference seconds; ``units`` has one more entry than
    ``times``: the unit time before the first call and after each call."""
    return [t * UNIT_S * 2.0 / (units[k] + units[k + 1])
            for k, t in enumerate(times)]
