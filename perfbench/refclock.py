"""Wall time in reference seconds.

The benchmark's virtual machine shares its physical cores with other
machines: the same code runs up to twice as slowly while a neighbour is
busy, in spells from a fraction of a second to minutes, and the slowdown
shows in CPU time as much as in wall time.  `RefClock` times a fixed
pure-Python loop every `PERIOD_S` seconds, from a SIGALRM handler, so
between bytecodes of whatever code runs meanwhile.  Each stretch between
two probes is rescaled by the loop's speed at its two ends, and an
interval reads as the time it would take while the loop runs in
`REFERENCE_S`.  Time spent in the probes themselves is left out.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.005
# About the loop's time on an idle core of the two-vCPU machine the
# benchmark was written on, so reference seconds stay close to seconds.
REFERENCE_S = 0.00002


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _step(pair, i):
    return pair.a + i, pair.b


# Calls, attribute reads and small tuples, as in most of finspan's time.
# Of the loops tried (dict inserts, integer arithmetic, random list reads,
# this one), this one's slowdowns tracked finspan's best: rescaled by
# it, the workloads' process times spread least.
def _loop():
    pair = _Pair(1, 2)
    out = None
    for i in range(250):
        out = _step(pair, i)
    return out


class RefClock:
    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end) of each probe

    def start(self) -> None:
        for _ in range(10):  # warm the loop up before its first timed run
            _loop()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def probe(self) -> None:
        t0 = time.perf_counter()
        _loop()
        self.probes.append((t0, time.perf_counter()))

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds, reference seconds) of [t0, t1] spent outside the probes.

        Only the part of the interval between the first and the last probe
        counts, so start the clock before `t0` and stop it after `t1`.
        """
        raw = ref = 0.0
        for (a0, a1), (b0, b1) in zip(self.probes, self.probes[1:]):
            lo, hi = max(a1, t0), min(b0, t1)
            if hi > lo:
                raw += hi - lo
                ref += (hi - lo) * 2 * REFERENCE_S / ((a1 - a0) + (b1 - b0))
        return raw, ref
