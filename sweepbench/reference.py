"""A fixed yardstick of machine speed, measured in the same run as hullflow.

On a shared host the same pure-Python loop ran 54% slower at one time of
day than at another, so raw wall times of two sets of runs an hour apart
differ by more than any useful regression bound.  Each run therefore also
times this fixed work, which shares no code with hullflow, and scales its
timings to a reference machine on which the work takes `NOMINAL_S`
seconds.  A change to hullflow moves the timings and not the yardstick.

`SETUP_CODE` is the matching yardstick for start-up: a fresh interpreter
importing the standard-library modules that `hullflow.cli` imports.
"""

from __future__ import annotations

import time

#: Seconds `work()` takes on the reference machine: its fastest time on the
#: 2-core Xeon VM (CPython 3.11.7) where the README's figures were taken.
NOMINAL_S = 0.0075

#: Seconds a fresh interpreter takes to run `SETUP_CODE` there (median).
SETUP_NOMINAL_S = 0.070

SETUP_CODE = (
    "import argparse, dataclasses, enum, functools, itertools, json, random, typing, sys; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def _compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(f[i] for i in g)


def work() -> int:
    """Group closure on five points and closure tables over 2^6 subsets:
    the mix of tuple building, set lookups and bitmask loops that sweeps
    spend their time on."""
    ident = (0, 1, 2, 3, 4)
    total = 0
    for gens in (((1, 2, 3, 4, 0), (1, 0, 2, 3, 4)), ((1, 0, 3, 4, 2), (0, 2, 1, 3, 4))):
        seen, frontier = {ident}, [ident]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    c = _compose(g, e)
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        total += len(seen)
    x = 12345
    for _ in range(80):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        family = [m for m in range(64) if x >> (m % 31) & 1]
        for z in range(64):
            acc = -1
            for m in family:
                if m & z == z:
                    acc &= m
            total += acc & 63
    return total


def time_work(reps: int = 3) -> float:
    """Fastest of a few timings of `work()`."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best
