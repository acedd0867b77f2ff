"""Per-corpus clustering metrics, regression over them, and workload forecasts.

`corpus_stats` condenses one indexed corpus into the standard row:
size, class count, mean/min/max bucket occupancy, dispersion,
penetration rates, detected duplicates, and wall time; `sweep_stats`
runs and times the sweep that fills the last two, and `scaling_run`
gives that row for a fresh synthetic corpus per size. One column table
defines the row's CSV header, its ``fpdedup stats`` text keys and its
cell formats.
`fit_regression` / `predict_avg` model how the mean occupancy grows
with database size, and `estimate_workload` turns a size and mean
occupancy into expected comparison counts and wall time.

REFERENCE_ROWS carries published benchmark measurements of this index
scheme on the public FVC/NIST corpora; the (size, mean occupancy)
columns of those rows are the standard regression input.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .cluster import ClusterTable, build_table
from .dedup import DuplicateReport, deduplicate
from .grid import GridParams, compute_index
from .matcher import MatchParams
from .signature import SerializedStore, Signature
from .synth import GenSpec, derive_seed, iter_records


def format_rate(rate: float) -> str:
    """Percentage with 4 decimals, e.g. 0.003125 -> '0.3125%'."""
    return f"{100.0 * rate:.4f}%"


_FIXED4 = "{:.4f}".format

# (CSV header, text key = CorpusStats field, cell) of each column after the
# corpus name, which is the CSV's "FBD" column and the text's "name" key.
_COLUMNS = (
    ("Size", "size", str),
    ("Nb class", "nb_class", str),
    ("Avg.", "avg", _FIXED4),
    ("Min P.", "min_p", str),
    ("Max P.", "max_p", str),
    ("Std dev", "std_dev", _FIXED4),
    ("Min P. Rate", "min_rate", format_rate),
    ("Max P. Rate", "max_rate", format_rate),
    ("Duplicates", "duplicates", str),
    ("Duration deduplication (s)", "duration_s", _FIXED4),
)

TABLE_COLUMNS = ["FBD", *(header for header, _key, _cell in _COLUMNS)]


@dataclass
class CorpusStats:
    """One corpus row in the standard column layout."""

    size: int
    nb_class: int
    avg: float
    min_p: int
    max_p: int
    std_dev: float
    min_rate: float
    max_rate: float
    duplicates: int
    duration_s: float

    def _cells(self, name: str) -> list[tuple[str, str]]:
        """The (text key, cell) of each column, the corpus name first."""
        return [("name", name), *((key, cell(getattr(self, key))) for _h, key, cell in _COLUMNS)]

    def csv_row(self, name: str) -> str:
        """The row under TABLE_COLUMNS."""
        return ",".join(cell for _key, cell in self._cells(name))

    def text_lines(self, name: str) -> list[str]:
        """One ``key<TAB>cell`` line per column, as ``fpdedup stats`` prints them."""
        return [f"{key}\t{cell}" for key, cell in self._cells(name)]


def sweep_stats(table: ClusterTable,
                store: Mapping[str, Signature],
                params: MatchParams = MatchParams()) -> tuple[DuplicateReport, CorpusStats]:
    """Run one duplicate sweep, timed on a monotonic clock, and its statistics row.

    The row's ``duration_s`` is the sweep's wall time alone.
    """
    start = time.perf_counter()
    report = deduplicate(table, store, params)
    return report, corpus_stats(table, report, time.perf_counter() - start)


def materialize_corpus(spec: GenSpec,
                       grid: GridParams = GridParams()) -> tuple[ClusterTable, SerializedStore]:
    """Generate a corpus into a compact store plus its cluster table."""
    store = SerializedStore()
    entries = []
    for signature, _source in iter_records(spec):
        store.add(signature)
        entries.append((signature.record_id, compute_index(signature, grid).key_text))
    return build_table(entries), store


def scaling_run(sizes: list[int],
                spec: GenSpec,
                grid: GridParams = GridParams(),
                params: MatchParams = MatchParams()) -> list[CorpusStats]:
    """The statistics row of a fresh corpus of each size, from one timed sweep each.

    Sizes must be given and ascending; each replaces ``spec.subjects``,
    and the corpus seed is derived from ``spec.seed`` and the size.
    """
    if not sizes:
        raise ValueError("no sizes given")
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly ascending")
    rows = []
    for size in sizes:
        sized = replace(spec, subjects=size, seed=derive_seed(spec.seed, size))
        rows.append(sweep_stats(*materialize_corpus(sized, grid), params)[1])
    return rows


def corpus_stats(table: ClusterTable,
                 report: DuplicateReport | None = None,
                 duration_s: float = 0.0) -> CorpusStats:
    """Compute the standard metrics row for one indexed corpus.

    ``report`` must come from the same corpus; without one the
    duplicates column is zero.
    """
    if not table.buckets:
        raise ValueError("cannot compute statistics of an empty table")
    sizes = [len(bucket) for bucket in table.buckets.values()]
    size = table.size
    nb_class = len(sizes)
    duplicates = report.duplicate_count() if report is not None else 0
    if duplicates > size - nb_class:
        # Groups never span buckets, so each bucket of c records yields
        # at most c-1 duplicates; a violation means corrupt inputs.
        raise ValueError(
            f"duplicate count {duplicates} exceeds size - nb_class = {size - nb_class}; "
            "table and report disagree"
        )
    return CorpusStats(
        size=size,
        nb_class=nb_class,
        avg=size / nb_class,
        min_p=min(sizes),
        max_p=max(sizes),
        std_dev=float(np.std(sizes)),  # population standard deviation
        min_rate=min(sizes) / size,
        max_rate=max(sizes) / size,
        duplicates=duplicates,
        duration_s=duration_s,
    )


# ---------------------------------------------------------------------------
# Regression of mean bucket occupancy against database size


@dataclass
class RegressionFit:
    slope: float      # occupancy growth per record
    intercept: float


def fit_regression(points: list[tuple[float, float]]) -> RegressionFit:
    """Ordinary least squares fit of Y (mean occupancy) on X (size).

    Closed form on centred values. Each axis is first scaled by the power
    of two that brings its largest magnitude into [0.5, 1), which is
    exact, so that no sum overflows or underflows at extreme but finite
    points; the fit is scaled back at the end. Raises ValueError when
    the slope or the intercept lies beyond the float range.
    """
    if len(points) < 2:
        raise ValueError("regression needs at least 2 points")
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("regression points must be finite")
    if np.all(x == x[0]):
        raise ValueError("regression is degenerate: all X values are equal")
    ex, ey = (math.frexp(float(np.abs(v).max()))[1] for v in (x, y))
    x, y = np.ldexp(x, -ex), np.ldexp(y, -ey)
    mx, my = x.mean(), y.mean()
    dx = x - mx
    slope = float(dx @ (y - my) / (dx @ dx))
    try:
        return RegressionFit(math.ldexp(slope, ey - ex), math.ldexp(float(my - slope * mx), ey))
    except OverflowError:
        raise ValueError("regression fit overflows") from None


def predict_avg(fit: RegressionFit, n: float) -> float:
    """Extrapolated mean bucket occupancy for a database of n records."""
    if not math.isfinite(n):
        raise ValueError(f"database size must be finite, got {n!r}")
    if n < 0:
        raise ValueError("database size cannot be negative")
    avg = fit.slope * n + fit.intercept
    if not math.isfinite(avg):
        raise ValueError(f"prediction at {n!r} overflows")
    return avg


# ---------------------------------------------------------------------------
# Workload forecast


@dataclass
class WorkloadEstimate:
    classes: float
    comparisons: float
    wall_time_ms: float

    def wall_time_human(self) -> str:
        ms = self.wall_time_ms
        seconds, ms = divmod(ms, 1000.0)
        minutes, seconds = divmod(int(seconds), 60)
        hours, minutes = divmod(minutes, 60)
        return f"{hours}h{minutes:02d}m{seconds:02d}s" + (f"+{ms:g}ms" if ms else "")


def estimate_workload(n: float, avg: float, ms_per_comparison: float) -> WorkloadEstimate:
    """Forecast deduplication work for n records at a given mean occupancy.

    classes = n / avg, each class costs avg*(avg-1)/2 comparisons, and
    wall time is the comparison total times the per-comparison cost.
    """
    for name, value in (("n", n), ("avg", avg), ("ms_per_comparison", ms_per_comparison)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if avg < 1:
        raise ValueError("avg must be >= 1")
    if ms_per_comparison < 0:
        raise ValueError("ms_per_comparison cannot be negative")
    classes = n / avg
    per_class = avg * (avg - 1) / 2.0
    comparisons = classes * per_class
    wall_time_ms = comparisons * ms_per_comparison
    if not (math.isfinite(comparisons) and math.isfinite(wall_time_ms)):
        raise ValueError("workload forecast overflows")
    return WorkloadEstimate(classes, comparisons, wall_time_ms)


# ---------------------------------------------------------------------------
# Published reference measurements (public FVC/NIST corpora)


@dataclass(frozen=True)
class ReferenceRow:
    name: str
    size: int
    nb_class: int
    avg: float
    min_p: int
    max_p: int
    std_dev: float
    min_rate_pct: float   # printed percentages, 4 decimals
    max_rate_pct: float
    duplicates: int
    duration_s: float


REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow("FVC2000", 320, 320, 1.0, 1, 1, 0.0, 0.3125, 0.3125, 0, 0.7191),
    ReferenceRow("FVC2002", 320, 320, 1.0, 1, 1, 0.0, 0.3125, 0.3125, 0, 0.7411),
    ReferenceRow("BDAutres", 1011, 1009, 1.002, 1, 2, 0.0632, 0.0989, 0.1978, 4, 1.7444),
    ReferenceRow("FVC2004", 4001, 3991, 1.0025, 1, 7, 0.1026, 0.0250, 0.1750, 0, 4.6645),
    ReferenceRow("BD10000", 10000, 9986, 1.0014, 1, 5, 0.0566, 0.0100, 0.0500, 2, 10.7835),
    ReferenceRow("BD20000", 20000, 19934, 1.0033, 1, 22, 0.1752, 0.0050, 0.1100, 0, 21.9237),
    ReferenceRow("BD30000", 30000, 29823, 1.0059, 1, 38, 0.2806, 0.0033, 0.1267, 9, 32.7862),
    ReferenceRow("BD40000", 40000, 39791, 1.0053, 1, 36, 0.2591, 0.0025, 0.0900, 12, 45.0318),
    ReferenceRow("BD50000", 50000, 49754, 1.0049, 1, 42, 0.2671, 0.0020, 0.0840, 13, 57.5517),
    ReferenceRow("NIST09", 54000, 53713, 1.0053, 1, 46, 0.2911, 0.0019, 0.0852, 20, 65.2882),
    ReferenceRow("NIST14", 54000, 53740, 1.0048, 1, 43, 0.2697, 0.0019, 0.0796, 15, 65.5147),
    ReferenceRow("BD_GLO", 113609, 112643, 1.0086, 1, 91, 0.4167, 0.0009, 0.0801, 749, 163.2234),
)

# The ten distinct (size, mean occupancy) pairs used for the regression
# study: the first row of each size, as NIST14 shares its size with
# NIST09 and FVC2002 with FVC2000.
REFERENCE_SIZE_AVG_PAIRS: tuple[tuple[float, float], ...] = tuple(
    (row.size, row.avg) for i, row in enumerate(REFERENCE_ROWS)
    if all(row.size != earlier.size for earlier in REFERENCE_ROWS[:i])
)
