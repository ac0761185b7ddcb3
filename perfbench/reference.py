"""A fixed reference computation that measures how fast the host runs now.

The benchmark host is shared: the same pure-Python work takes up to about
twice as long for minutes at a time, in CPU time as well as wall time, so
raw times from runs minutes apart differ by more than any useful
regression bound.  The worker therefore runs this reference between ops
and reports every time in calibrated seconds::

    calibrated = measured * NOMINAL_S / (median reference time in that batch)

i.e. the time the op would take on the host at the speed at which the
reference takes ``NOMINAL_S``.  The reference does not touch isofib, so no
change to the program can move it.  Its mix (an interpreter loop with
integer arithmetic, dict stores and tuple allocation, plus big-integer
multiplication) follows what the workloads spend their time on.
"""

from __future__ import annotations

from time import perf_counter

# Median reference time on an unloaded 2-vCPU host (Python 3.11.7); it sets
# the scale of calibrated seconds only.
NOMINAL_S = 0.008


def _work() -> int:
    table = {}
    items = []
    acc = 0
    for i in range(12000):
        acc = (acc * 31 + i * i) % 1000003
        table[i & 511] = (acc, i)
        items.append((i, acc & 7))
    big = 7**12000
    for _ in range(4):
        big = (big * big) >> 16000
    return acc + len(items) + len(table) + (big & 1)


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    start = perf_counter()
    _work()
    return perf_counter() - start
