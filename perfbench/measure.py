"""Percentiles by the benchmark's rule, process memory and machine facts."""

from __future__ import annotations

import math
import os
import platform
import resource
import sys

import numpy as np

CANDIDATE_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% of samples at or below it."""
    return sorted(samples)[_rank(len(samples), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct`` percentile."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> float | None:
    """The highest candidate percentile with at least MIN_BEYOND samples beyond it.

    None when even the median lacks that many, i.e. under 20 samples.
    """
    admissible = [p for p in CANDIDATE_PERCENTILES if beyond(count, p) >= MIN_BEYOND]
    return admissible[-1] if admissible else None


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_info() -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": sys.platform,
    }
