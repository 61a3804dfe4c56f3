"""Interpreter-speed calibration.

On a shared machine the same CPU-bound Python code runs at speeds that
drift by +-20% within seconds, as neighbours load the cores.  To keep
run-to-run spread below the bounds, timed work is interleaved with a
short fixed loop of the kind of work greenchar does (Fraction
arithmetic, tuple hashing, dict updates), run in the same process, and
each interval is scaled to the reference speed at which that loop takes
REFERENCE_S:

    scaled = measured * REFERENCE_S / mean(nearby loop times)

A CLI request or setup child runs one loop first and one last.  A sweep
child runs one every TICK_S (sweep.py), and an interval's nearby loops
are the REACH before it and the REACH after it.  The loop never touches
greenchar, so a change to the program moves scaled times as it moves
measured ones.  Both are reported.
"""

from bisect import bisect
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0065
REACH = 3


def loop():
    seen = {}
    for _ in range(5):
        acc = Fraction(0)
        for i in range(1, 500):
            acc += Fraction(i, 3 + i % 11)
            seen[(i % 17, acc.denominator % 13)] = acc
    return len(seen)


def measure() -> float:
    start = perf_counter()
    loop()
    return perf_counter() - start


def scale(seconds, cals):
    """seconds scaled by the mean of the calibration times cals."""
    return seconds * REFERENCE_S * len(cals) / sum(cals)


def scale_timeline(events):
    """Scaled seconds of every ("work", seconds) event, in order, from a
    list that interleaves it with ("cal", seconds) events."""
    cals = [i for i, (kind, _) in enumerate(events) if kind == "cal"]
    if not cals:
        raise ValueError("no calibration in the timeline")
    out = []
    for i, (kind, seconds) in enumerate(events):
        if kind != "work":
            continue
        after = bisect(cals, i)
        near = [events[j][1] for j in cals[max(after - REACH, 0):after + REACH]]
        out.append(scale(seconds, near))
    return out
