"""How fast this host runs Python right now, for normalizing timings.

On the 2-core sandbox the benchmark was built on, the host's speed drifts by
up to a third over minutes: the same 25 distributed instances took from 4.4 s
to 7.1 s, with no steal time, and process CPU time moved with wall time.  A
fixed slice of pure-Python work, timed next to each measurement, drifts with
it; a timing divided by the slice's (relative to `QUIET_S`) is steady where
wall time is not.

This module imports nothing from structctl, so a fresh interpreter can time
its import of structctl first and then this slice.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

# The slice's time on a quiet 2-core host.  It only sets the unit of the
# normalized timings, so that they read close to quiet-host seconds.
QUIET_S = 0.0037
BURST = 5


def reference_slice() -> float:
    """Seconds for a fixed piece of work of the kinds the program does:
    tuple-keyed dicts and sets, sorting, JSON and generator switches."""
    t0 = perf_counter()
    table: dict = {}
    for i in range(4000):
        table.setdefault(("x", i % 997), []).append(i)
    sorted(frozenset((i * 7919 % 1009, i) for i in range(3000)))
    text = json.dumps({str(k): v for k, v in list(table.items())[:300]}, sort_keys=True)
    json.loads(text)

    def echo():
        x = 0
        while True:
            x = yield x + 1

    gen = echo()
    next(gen)
    for i in range(3000):
        gen.send(i)
    return perf_counter() - t0


def burst() -> float:
    """The median of `BURST` reference slices, in seconds."""
    return statistics.median(reference_slice() for _ in range(BURST))
