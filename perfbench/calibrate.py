"""Machine-speed calibration: times are reported in reference seconds.

The shared host this benchmark was built on runs a fixed pure-Python loop at
speed states up to 1.7x apart, each lasting from under a second to minutes, so
raw times of the same code differ by more than any useful bound between runs.
The benchmark therefore runs a fixed calibration loop every few tens of
milliseconds and scales each measured interval by `REF_S / loop time`, the
loop time taken at its two ends.  A scaled time is the time the work would
take on a machine where the loop takes `REF_S`: one reference second is the
time of 1 / REF_S loops.

The loop uses the standard library only (no `revcat`, no numpy), so no change
to the program under test can move it.  It allocates tuples, frozensets and
small objects, as the library's table code does, and tracks the library's
slowdowns more closely than plain integer arithmetic.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

REF_S = 1e-3  # the loop's time on the reference machine, by definition
LOOPS_PER_SAMPLE = 2  # a sample is the fastest of this many loops
EVERY_S = 0.04  # the sampling period within a measured step


class _Pair:
    __slots__ = ("key", "size")

    def __init__(self, key: tuple, size: int) -> None:
        self.key = key
        self.size = size


def loop() -> int:
    """The calibration loop: about 1.2 ms of allocation-heavy Python."""
    table = {}
    for i in range(800):
        table[(i % 37, i // 37)] = frozenset((i, i + 1, i * 7 % 11))
    pairs = [_Pair(k, len(v)) for k, v in sorted(table.items())]
    return sum(p.size for p in pairs if p.key[0] & 1)


def sample() -> float:
    """Seconds per calibration loop now, with the collector paused so that the
    size of the benchmark's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(LOOPS_PER_SAMPLE):
            t0 = perf_counter()
            loop()
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """An interval measured between two samples, in reference seconds."""
    return seconds * REF_S * 2 / (before + after)


def timed(fn) -> tuple[float, float]:
    """Run `fn` once, sampling the loop every EVERY_S from a timer signal:
    (raw s, reference s).  The time spent in the samples is left out of both;
    each stretch of work between two samples is scaled by those two."""
    marks: list[tuple[float, float, float]] = []  # (start, end, loop s)

    def tick(signum=None, frame=None) -> None:
        t0 = perf_counter()
        c = sample()
        marks.append((t0, perf_counter(), c))

    previous = signal.signal(signal.SIGALRM, tick)
    tick()
    try:
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    tick()
    raw = scaled = 0.0
    for (_, end, c0), (start, _, c1) in zip(marks, marks[1:]):
        raw += start - end
        scaled += scale(start - end, c0, c1)
    return raw, scaled
