"""A fixed reference loop that measures how fast the machine runs right now.

On a shared machine the speed of one core drifts by tens of percent within
seconds and minutes (on a 2-core shared Linux container a one-minute probe
read 211 to 412 loops per two seconds).  The benchmark times this loop every quarter second, also while a
job runs, and reports times at the reference speed: each measured time t
becomes t * NOMINAL_S / probe, where probe is the loop's mean duration
around that time.  The loop does the kind
of work trialg does (Fraction arithmetic, dict updates, tuples) and none of
trialg's code, so a slower program still reports slower times, while a slower
machine does not.  The collector is off while the loop runs, so the size of
the program's heap does not change the probe.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# the loop's duration at the reference speed; any fixed value works, this one
# is about its median on the machine the README's figures come from
NOMINAL_S = 0.0090
REPEATS = 6


def _work():
    acc = Fraction(0)
    row: dict = {}
    for i in range(1, 121):
        f = Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
        acc += f
        key = (i % 13, i % 7)
        nv = row.get(key, 0) - f
        if nv:
            row[key] = nv
        else:
            row.pop(key, None)
    return acc, len(row)


def probe() -> float:
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the reference loop every ``every_s`` seconds of wall time, from a
    SIGALRM handler, so that long jobs are sampled while they run.  The
    handler runs in the main thread between bytecodes and records the interval
    it took, so that a Timer can take it out of what it measures."""

    def __init__(self, every_s: float = 0.25, tracer=None):
        self.every_s = every_s
        self.tracer = tracer  # records each probe as a span, so layers exclude it
        self.probes: list = []  # (handler start, handler end, loop seconds)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        span = self.tracer.open("speed.probe") if self.tracer else None
        d = probe()
        if self.tracer:
            self.tracer.close(span)
        self.probes.append((t0, time.perf_counter(), d))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] the handler took."""
        return sum(max(0.0, min(e, t1) - max(s, t0)) for s, e, _ in self.probes)

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S / the mean loop time of the probes within one interval of
        [t0, t1] (the nearest probe if none is)."""
        lo, hi = t0 - self.every_s, t1 + self.every_s
        near = [d for s, e, d in self.probes if lo <= (s + e) / 2 <= hi]
        if not near:
            near = [min(self.probes, key=lambda p: min(abs(p[0] - t1), abs(p[1] - t0)))[2]]
        return NOMINAL_S * len(near) / sum(near)


class Timer:
    """Records spans of work while a Sampler runs; ``settle`` takes the
    handler's time out of each span and scales it to the reference speed."""

    def __init__(self, sampler: Sampler):
        self.sampler = sampler
        self.spans: list = []  # (tag, t0, t1)

    def start(self) -> float:
        return time.perf_counter()

    def stop(self, tag, t0: float):
        self.spans.append((tag, t0, time.perf_counter()))

    def settle(self) -> list:
        """(tag, seconds at the reference speed) for every span, in order."""
        sm = self.sampler
        return [(tag, (t1 - t0 - sm.busy(t0, t1)) * sm.factor(t0, t1))
                for tag, t0, t1 in self.spans]

    def speeds(self) -> list:
        """The machine's speed relative to the reference at each probe."""
        return [NOMINAL_S / d for _, _, d in self.sampler.probes]
