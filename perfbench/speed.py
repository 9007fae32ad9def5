"""Timing at a nominal host speed, for a shared host whose speed drifts.

On a few cores of a shared host, the same pure-Python work can take 40%
longer from one second to the next.  ``Meter`` times a block of code and
rescales it: every ``INTERVAL_S`` a timer signal interrupts the block and
times a fixed reference loop, and the wall and CPU time since the previous
sample are multiplied by ``REF_S`` over the mean of the reference times at
the two ends.  The samples themselves are not counted.  The reference loop
is the benchmark's own code, so no change to gridsyn can move it.
"""

from __future__ import annotations

import resource
import signal
import time

INTERVAL_S = 0.025
#: The reference loop's median time on a 2-vCPU Xeon VM, so that rescaled
#: times read close to seconds on that machine.
REF_S = 0.0012


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_loop() -> int:
    """Fixed pure-Python work: ints, short strings and a dict."""
    counts: dict[str, int] = {}
    acc = 0
    for i in range(2000):
        key = str(i * 7919 % 1000)
        counts[key] = counts.get(key, 0) + i
        acc += len(key) ^ i
    return acc


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Meter:
    """``with Meter() as m:`` times its block; ``m.wall`` and ``m.cpu`` are
    rescaled to the nominal speed, ``m.raw_wall`` and ``m.raw_cpu`` are not."""

    def __enter__(self) -> "Meter":
        self.wall = self.cpu = self.raw_wall = self.raw_cpu = 0.0
        self.samples = 0
        self._busy = False
        self._ref = reference_time()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t, self._c = time.perf_counter(), cpu_seconds()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        wall, cpu = time.perf_counter() - self._t, cpu_seconds() - self._c
        ref = reference_time()
        scale = REF_S / ((self._ref + ref) / 2)
        self.raw_wall += wall
        self.raw_cpu += cpu
        self.wall += wall * scale
        self.cpu += cpu * scale
        self.samples += 1
        self._ref = ref
        self._t, self._c = time.perf_counter(), cpu_seconds()
        self._busy = False
