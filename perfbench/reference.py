"""A fixed reference computation that measures how fast the machine runs.

On a shared host the speed of a CPU drifts by 10-30 % over seconds to
minutes, so two runs of the same code can differ by that much in their
medians. The benchmark therefore times short bursts of this fixed pure-Python
work (tuples, dict updates, sorting: the kind of work the program's Python
layers do) all through a run, around each worker spawn and between the
operations, and scales a run's median by the mean time of the bursts taken
around the samples it is the median of::

    scaled = measured * NOMINAL_S / mean(bursts)

A scaled time is the time on a machine on which one burst takes exactly
``NOMINAL_S`` seconds. The work of a burst is fixed here and the program never
runs it, so a change to the program moves the measured times and not the
reference. A single burst is as noisy as the host, so only the mean over a
run is used.
"""

import time

CALLS = 150
NOMINAL_S = 0.1


def _call() -> int:
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(1500):
        key = ((i * 7919) % 1543, i % 17)
        table[key] = table.get(key, 0) + i
        acc ^= key[0] + key[1]
    order = sorted(table, key=table.__getitem__)
    return acc + len(order)


def burst(clock=time.perf_counter) -> float:
    """Seconds taken by one burst of the fixed reference work."""
    t0 = clock()
    for _ in range(CALLS):
        _call()
    return clock() - t0


def factor(bursts: list[float]) -> float:
    """What a run's measured times are multiplied by, given its bursts."""
    return NOMINAL_S * len(bursts) / sum(bursts)
