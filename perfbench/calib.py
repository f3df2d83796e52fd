"""Calibrated time: wall time corrected for how fast the host runs right now.

On a shared host the same deterministic work takes from 1x to 2x its best
time, in phases that last from milliseconds to minutes, because other
tenants contend for the physical cores.  Medians over a run cannot remove
phases longer than the run.  So while timed code runs, a SIGALRM timer
interrupts it every PERIOD_S seconds and times a fixed pure-Python loop.
The loop is slowed by the same contention as the code around it, and

    calibrated seconds = (wall seconds - loop seconds)
                         * REF_S / (mean loop seconds per sample)

is the time the code would have taken at the loop's nominal speed REF_S.
The loop uses no numpy and no freeflow, so it cannot import either early,
and it touches no state of the code it interrupts: outputs stay bit for bit
the same.  Timers do not survive fork(), so each process times its own.
"""
from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
REF_S = 0.0015  # about the loop's best time on one core of a 2.1 GHz Xeon
_REF_ITERS = 6000


def _loop() -> float:
    # scalar complex Newton steps: the interpreter work freeflow's solvers do
    z, acc = 0.3 + 1.0j, 0.0
    for i in range(_REF_ITERS):
        if i % 50:
            z = z - (z * z - (1.0 + 1.0j)) / (2.0 * z)
        else:
            z = 0.3 + 1.0j * (1.0 + i * 1e-6)
        acc += abs(z)
    return acc


class Calibrated:
    """Times a `with` block.  On exit, `wall_s` is its wall time without the
    loop samples, and `seconds` is its calibrated time."""

    def __init__(self):
        self.ref_total = 0.0
        self.samples = 0
        self.wall_s = self.seconds = float("nan")

    def _sample(self, *_):
        t0 = time.perf_counter()
        _loop()
        self.ref_total += time.perf_counter() - t0
        self.samples += 1

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._inner0 = self.ref_total
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - self._t0  # holds every timer sample
        signal.signal(signal.SIGALRM, self._old)
        self.wall_s = wall - (self.ref_total - self._inner0)
        self._sample()
        self.seconds = self.wall_s * REF_S / (self.ref_total / self.samples)
        return False
