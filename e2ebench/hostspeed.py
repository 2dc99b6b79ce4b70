"""Host-speed probe: fixed work, timed between repetitions.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x within minutes: on a 2-core VM the same cold stress-events repetition
took 2.7 s and, two minutes later, 5.2 s, and the program's own import time
moved in step.  A median over one run cannot remove a drift that lasts
longer than the run, so the time metrics are reported at a reference host
speed instead: the run's medians are multiplied by
``PROBE_REFERENCE_S / median(probes)``, the probes being taken before the
first repetition and after each one.

The probe runs none of the program's code, so a change to the program moves
the scaled times as much as the raw ones.  It is a fixed dict-heavy Python
loop and numpy passes over freshly allocated 64 MB arrays, in this process:
the program is bound by the same interpreter and memory traffic, and a
probe that stays in cache missed the drift.
"""

from __future__ import annotations

import time

import numpy as np

#: The probe's duration on a quiet 2-core VM (Python 3.11, numpy 2.4): the
#: host speed the scaled times refer to.
PROBE_REFERENCE_S = 0.30


def probe() -> float:
    """Seconds the fixed work takes on this host now."""
    started = time.monotonic()
    counts: dict = {}
    for i in range(300_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    for _ in range(3):
        # Fresh pages each pass, as a cold repetition's arrays are.
        array = np.random.default_rng(0).random((64, 128 * 1024))
        sums = np.cumsum(array, axis=1)
        np.searchsorted(sums[0], sums[1, ::97])
        sorted(array[0, :20000].tolist())
        del array, sums
    return time.monotonic() - started
