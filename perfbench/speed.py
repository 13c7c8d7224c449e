"""Host-speed normalization of measured seconds.

The shared hosts this benchmark runs on change speed by up to +-25% over
tens of seconds, as other tenants come and go; run-to-run medians of raw
host time drift with them.  :class:`SpeedScale` measures a fixed,
program-independent calibration kernel between ops and rescales each op's
host seconds by how fast the host ran around it, so that reported seconds
are seconds on the nominal machine.  A change to the program leaves the
kernel's time alone, so a faster program still reads faster.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Sequence

#: Mean seconds per ``calibration_kernel`` run on the nominal machine: the
#: 2-CPU container the committed numbers were taken on, Python 3.11.7.
NOMINAL_KERNEL_S = 0.005
#: Kernel runs per calibration (~65 ms), long enough to average the
#: millisecond-scale jitter of a shared core.
KERNEL_RUNS = 10


def calibration_kernel() -> None:
    """Fixed interpreter work shaped like a simulation kernel: a timed-event
    heap resuming generator processes held in a dict."""

    def process():
        total = 0
        while True:
            total += yield total & 7

    procs = {}
    heap = []
    for i in range(64):
        gen = process()
        next(gen)
        procs[i] = gen
        heapq.heappush(heap, (i, i))
    for _ in range(6000):
        when, i = heapq.heappop(heap)
        heapq.heappush(heap, (when + 1 + procs[i].send(when), i))


def kernel_seconds() -> float:
    start = time.perf_counter()
    for _ in range(KERNEL_RUNS):
        calibration_kernel()
    return (time.perf_counter() - start) / KERNEL_RUNS


class SpeedScale:
    """Rescales timed items by calibrations taken before and after them.

    Items are held until at least ``interval_s`` of their host time has
    accumulated; a calibration then closes the batch, and every item in it
    is scaled by ``NOMINAL_KERNEL_S`` over the mean of the calibrations
    that bracket the batch.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.factors: List[float] = []
        self._pending: List[tuple] = []
        self._pending_s = 0.0
        self._last = kernel_seconds()

    def add(self, item: object, seconds: float, attrs: Sequence[str] = ("seconds",)) -> None:
        """Queue ``item``'s ``attrs`` for scaling; ``seconds`` is its host time."""
        self._pending.append((item, attrs))
        self._pending_s += seconds
        if self._pending_s >= self.interval_s:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        now = kernel_seconds()
        factor = NOMINAL_KERNEL_S / ((self._last + now) / 2)
        for item, attrs in self._pending:
            for attr in attrs:
                setattr(item, attr, getattr(item, attr) * factor)
        self.factors.append(factor)
        self._pending = []
        self._pending_s = 0.0
        self._last = now
