"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of the same code drifts by up to 2x, in
phases that last from a fraction of a second to more than a run (see
README.md). While a workload runs, a wall-clock timer therefore interrupts
it every ``INTERVAL_S`` and runs small fixed reference kernels in a signal
handler, recording their slowness: their time over their time in a quiet
phase. A timed piece of work is divided by the mean slowness of the samples
taken during it or within ``WINDOW_S`` of it, so it reads as the wall time
the work takes in a quiet phase. Time spent in samples is never counted in
a metric, and the raw wall times are kept in the result record.

Sampling on a timer, not at the boundaries of the work, matters because the
speed switches between a fast and a slow mode within one three-second round:
a few samples next to a round say little about the speed during it.

Not all code slows alike: in a slow phase the pure-Python loops of the
agglomeration slow about as much as ``python`` and ``small_numpy`` below,
while BLAS-bound training and NumPy array passes slow like ``blas``. Each
workload names the kernels that match where its round time goes. The
kernels belong to the benchmark, not to the simulator, so no change to the
program can move them.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

__all__ = ["INTERVAL_S", "KERNELS", "SpeedLog", "WINDOW_S"]

INTERVAL_S = 0.2
WINDOW_S = 0.5

_rng = np.random.default_rng(20240826)
_TABLE = {(i, j): float(v) for (i, j), v in np.ndenumerate(_rng.integers(0, 1000, (60, 60))) if i < j}
_SMALL = _rng.normal(size=(48, 20))
_LEFT = _rng.normal(size=(64, 256))
_RIGHT = _rng.normal(size=(256, 64))


def _python() -> None:
    """A dict scan with a key function, like the agglomeration's merge loop."""
    table = _TABLE
    for _ in range(12):
        min(table, key=lambda k: (table[k], k))


def _small_numpy() -> None:
    """Thousands of tiny NumPy calls, like the per-pair cosine loop."""
    for u in _SMALL:
        for v in _SMALL:
            float(np.dot(u, v))


def _blas() -> None:
    """Dense matrix products, like mini-batch SGD."""
    for _ in range(40):
        _LEFT @ _RIGHT


# name -> (kernel, its time in a quiet phase of a 2-core x86-64 VM with
# Python 3.11, NumPy 2.4 and single-threaded OpenBLAS). The quiet times only
# set the scale: rescaled times keep their ratios whatever they are.
KERNELS = {
    "python": (_python, 0.0027),
    "small_numpy": (_small_numpy, 0.0017),
    "blas": (_blas, 0.0022),
}


class SpeedLog:
    """Calibration samples of one run and the rescaling they give."""

    def __init__(self, kernels, clock=time.perf_counter):
        self.kernels = [KERNELS[name] for name in kernels]
        self.clock = clock
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slowness: list[float] = []

    def sample(self) -> None:
        ratios = []
        start = self.clock()
        for kernel, quiet_s in self.kernels:
            begun = self.clock()
            kernel()
            ratios.append((self.clock() - begun) / quiet_s)
        self.starts.append(start)
        self.ends.append(self.clock())
        self.slowness.append(sum(ratios) / len(ratios))

    @contextmanager
    def sampling(self, interval_s: float = INTERVAL_S):
        """Take a sample on entry, every ``interval_s`` of wall time inside
        the block, and on exit. Python runs the handler between bytecodes of
        the main thread, so a sample never splits a clock reading of the
        timed code."""
        busy = False

        def handler(signum, frame):
            nonlocal busy
            if not busy:  # a sample longer than the interval is not re-entered
                busy = True
                try:
                    self.sample()
                finally:
                    busy = False

        self.sample()
        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def inside(self, t0: float, t1: float) -> float:
        """Time spent sampling within ``[t0, t1]``."""
        return sum(e - s for s, e in zip(self.starts, self.ends) if t0 <= s and e <= t1)

    def rescaled(self, t0: float, t1: float) -> float:
        """Wall time of ``[t0, t1]`` outside samples, divided by the mean
        slowness of the samples that start within ``WINDOW_S`` of it."""
        near = [
            x
            for s, x in zip(self.starts, self.slowness)
            if t0 - WINDOW_S <= s <= t1 + WINDOW_S
        ]
        if not near:
            raise ValueError("no calibration sample near the interval")
        return (t1 - t0 - self.inside(t0, t1)) * len(near) / sum(near)
