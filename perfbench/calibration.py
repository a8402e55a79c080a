"""A fixed interpreter-bound loop that measures the machine's current speed.

On a shared host the same work can take 1.5 to 1.8 times longer for
minutes at a time (seen here with a bare arithmetic loop as well as with
the workloads).  Each timed case is therefore bracketed by two runs of
this loop, and its wall time is scaled by NOMINAL_S over their mean: the
reported times are wall seconds at the machine speed at which the loop
takes NOMINAL_S.  The loop is benchmark code, so the program cannot
change it.  The loop does the kind of work the program does: tuples,
dict lookups and inserts, small sorts and calls.
"""

from __future__ import annotations

from time import perf_counter

# Seconds the loop takes on this 2-vCPU host when nothing else contends.
NOMINAL_S = 0.0025


def _loop():
    table = {}
    total = 0
    for i in range(1500):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0) + 1
        total += len(key) + (i & 7)
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return total + len(ordered)


def measure(repeat=1):
    """Seconds one run of the loop takes now: the median of `repeat` runs."""
    times = []
    for _ in range(repeat):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return sorted(times)[len(times) // 2]


def scale(seconds, before, after):
    """Wall seconds rescaled to the speed at which the loop takes NOMINAL_S."""
    return seconds * NOMINAL_S * 2 / (before + after)
