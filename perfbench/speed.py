"""Host-speed calibration for timings taken on a shared host.

On the reference host (a 2 vCPU x86-64 VM shared with other tenants) the
same process runs, for stretches of tens of seconds, up to 2 times slower
than usual, in every instruction stream at once.  No statistic of the timed
calls alone can tell such a stretch from a slower library.  The loop
therefore times this fixed calibration routine between calls.  It runs no
scorerlib code, only the kinds of work the library does (interpreted
complex arithmetic and numpy calls on 15-element arrays), so it slows down
with the host and never with a change to the library.

``slowdown(ticks)`` is the lower quartile of the calibration times over
``REFERENCE_NS``; a timing divided by it is the timing the reference host
would have shown in its usual state.
"""

from __future__ import annotations

import time

import numpy as np

#: Time of :func:`calibration` that counts as no slowdown.  It only sets
#: the scale of the reported timings (CPython 3.11.7, numpy 2.4.6).
REFERENCE_NS = 70_000

_X = np.linspace(0.05, 3.0, 15)


def calibration() -> complex:
    """A fixed mix of interpreted complex arithmetic and small numpy calls."""
    s = 0j
    z = 0.3 + 0.2j
    for i in range(200):
        s = s * z + 1.0 / (i + 1)
    for _ in range(6):
        y = np.exp(-(_X * _X) * (0.5 + 0.1j)) * np.cos(_X)
        s += float(np.sum(np.abs(y)))
    return s


def tick() -> int:
    """Time one run of the calibration routine, in ns."""
    t0 = time.perf_counter_ns()
    calibration()
    return time.perf_counter_ns() - t0


def low_quartile(values: list) -> float:
    """The value a quarter of the way up ``values``; the smallest of fewer
    than four."""
    ordered = sorted(values)
    return ordered[len(ordered) // 4]


def slowdown(ticks: list[int]) -> float:
    """How much slower than its usual state the host ran while ``ticks``
    were taken (1.0 when there are none).

    Uses the lower quartile of the ticks, as the per-call latencies use the
    lower quartile of each call's repetitions.  On a shared host whose fast
    spells fill only a few percent of the time, a lower decile of either
    flips between the fast and the slow state from one process to the next.
    """
    return low_quartile(ticks) / REFERENCE_NS if ticks else 1.0
