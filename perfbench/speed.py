"""Machine speed during a run, from a fixed reference kernel interleaved with the work.

The shared 2-vCPU host this benchmark was written on slows every process
down and speeds it up again, by 30% to 50%, switching within seconds,
while steal time stays near zero; CPU time slows down with wall time.
A fixed kernel that uses neither fpdedup nor anything a change to it could
alter slows down in step. Each run times the kernel every SAMPLE_GAP_S
while it works, leaves that time out of what it measures, and rescales
each measured time by the kernel timings taken while it ran:

    reported = measured * NOMINAL_S / median(kernel times from WINDOW_S
                                             before it to WINDOW_S after it)

Reported times are therefore times on a machine where the kernel takes
NOMINAL_S, about its time on that host. The kernel has to run between
calls the benchmark makes, so batch work is sampled at the calls it makes
anyway: per record in ingest, and whenever the dedup sweep reads its
matcher parameters.
The raw times are printed too.
"""

from __future__ import annotations

import bisect
import statistics
import time
from collections.abc import Callable
from dataclasses import fields

import numpy as np

from fpdedup.matcher import MatchParams

NOMINAL_S = 0.0013
SAMPLE_GAP_S = 0.1
WINDOW_S = 1.0
KERNELS_PER_SAMPLE = 5

_TEXT = "\n".join(f"{(i * 37) % 350};{(i * 91) % 350};{i * 0.0123:.12f};{i % 2}"
                  for i in range(120))
_POINTS = np.random.default_rng(12345).random((48, 2)) * 350.0


def reference_kernel() -> None:
    """Fixed work shaped like the library's: text parsing, small objects, small arrays."""
    rows = []
    for line in _TEXT.splitlines():
        x, y, theta, kind = line.split(";")
        rows.append((int(x), int(y), float(theta), int(kind)))
    rows.sort(key=lambda r: (r[2], r[0]))
    counts = [0] * 25
    for x, y, _, _ in rows:
        counts[min(x // 70, 4) * 5 + min(y // 70, 4)] += 1
    "-".join(map(str, counts))
    for _ in range(8):
        diff = _POINTS[:, None, :] - _POINTS[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        order = np.argsort(dist, axis=1, kind="stable")[:, :4]
        np.searchsorted(np.sort(dist[0]), dist[order[:, 1], 0])


class SpeedProbe:
    """Reference-kernel timings taken between calls, and the time they took."""

    def __init__(self) -> None:
        self.taken_at: list[float] = []
        self.kernel_s: list[float] = []
        self.spent_s = 0.0  # wall time inside sample(), to leave out of measurements
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(KERNELS_PER_SAMPLE):
            before = time.perf_counter()
            reference_kernel()
            self.taken_at.append(before)
            self.kernel_s.append(time.perf_counter() - before)
        self._last = time.perf_counter()
        self.spent_s += self._last - start

    def tick(self) -> None:
        """Sample if the last sample is SAMPLE_GAP_S old."""
        if time.perf_counter() - self._last >= SAMPLE_GAP_S:
            self.sample()

    def call(self, name: str, fn: Callable, *args):
        """``fn(*args)`` after a tick; same signature as ``Tracer.call``."""
        self.tick()
        return fn(*args)

    def factor(self, start: float, end: float) -> float:
        """Multiplier taking a time measured from ``start`` to ``end`` to NOMINAL_S speed."""
        lo = bisect.bisect_left(self.taken_at, start - WINDOW_S)
        hi = bisect.bisect_right(self.taken_at, end + WINDOW_S)
        if lo == hi:  # nothing that close: take the nearest sample on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.taken_at))
        return NOMINAL_S / statistics.median(self.kernel_s[lo:hi])


class SampledParams(MatchParams):
    """Default matcher parameters that let the probe tick whenever the matcher reads them.

    The matcher reads its parameters on every feature build and every
    comparison, so a sweep handed these is sampled all through, not only
    between buckets. The values are those of ``MatchParams()``.
    """

    def __init__(self, probe: SpeedProbe):
        object.__setattr__(self, "_probe", probe)
        super().__init__()

    def __getattribute__(self, name: str):
        if name in _MATCHER_READS:
            object.__getattribute__(self, "_probe").tick()
        return object.__getattribute__(self, name)


_MATCHER_READS = frozenset(f.name for f in fields(MatchParams))
