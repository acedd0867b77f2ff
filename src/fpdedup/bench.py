"""Scaling measurements: per-phase wall times and cluster statistics by size.

One run generates a fresh corpus per requested size (seed derived from
the base seed and the size), builds the cluster table, sweeps it for
duplicates, and times a sample of identifications. Each timing is the
median of a configurable repetition count on a monotonic clock. Rows
are plain data; CSV rendering is provided for external plotting, and no
plotting dependency is pulled in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from statistics import median

from .cluster import ClusterTable, build_table
from .dedup import deduplicate
from .grid import GridParams, compute_index
from .identify import identify
from .matcher import MatchParams
from .signature import SerializedStore, Signature
from .stats import corpus_stats
from .synth import GenSpec, derive_seed, iter_records

BENCH_CSV_COLUMNS = ["size", "nb_class", "avg", "max_p", "max_rate", "std_dev",
                     "generate_s", "index_s", "dedup_s", "identify_ms_median", "reps"]


@dataclass
class BenchRow:
    size: int
    nb_class: int
    avg: float
    max_p: int
    max_rate: float
    std_dev: float
    generate_s: float
    index_s: float
    dedup_s: float
    identify_ms_median: float
    reps: int

    def csv_row(self) -> str:
        return ",".join([
            str(self.size), str(self.nb_class), f"{self.avg:.6f}", str(self.max_p),
            f"{self.max_rate:.8f}", f"{self.std_dev:.6f}", f"{self.generate_s:.4f}",
            f"{self.index_s:.4f}", f"{self.dedup_s:.4f}",
            f"{self.identify_ms_median:.4f}", str(self.reps),
        ])


def materialize_corpus(spec: GenSpec,
                       grid: GridParams = GridParams()) -> tuple[ClusterTable, SerializedStore, list[Signature], float]:
    """Generate a corpus into a compact store plus its cluster table.

    Returns (table, store, query_sample, generation_seconds); the query
    sample holds up to 100 evenly spaced signatures for latency probes.
    """
    store = SerializedStore()
    entries: list[tuple[str, str]] = []
    sample: list[Signature] = []
    stride = max(1, (spec.subjects + spec.duplicate_count) // 100)
    start = time.perf_counter()
    for position, (signature, _source) in enumerate(iter_records(spec)):
        store.add(signature)
        entries.append((signature.record_id, compute_index(signature, grid).key_text))
        if position % stride == 0 and len(sample) < 100:
            sample.append(signature)
    generate_s = time.perf_counter() - start
    return build_table(entries), store, sample, generate_s


def median_identify_ms(table: ClusterTable,
                       store: SerializedStore,
                       queries: list[Signature],
                       grid: GridParams = GridParams(),
                       params: MatchParams = MatchParams()) -> float:
    """Median identification latency in milliseconds over the queries."""
    latencies = []
    for query in queries:
        start = time.perf_counter()
        identify(query, table, store, grid, params)
        latencies.append((time.perf_counter() - start) * 1000.0)
    return median(latencies)


def scaling_run(sizes: list[int],
                spec: GenSpec,
                grid: GridParams = GridParams(),
                params: MatchParams = MatchParams(),
                reps: int = 3) -> list[BenchRow]:
    """Measure every pipeline phase at each corpus size.

    Sizes must be ascending. Per size the corpus is generated once; the
    index pass (parse, key and table build per record) and the duplicate
    sweep are repeated ``reps`` times and the medians reported.
    """
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly ascending")
    if reps < 1:
        raise ValueError("reps must be >= 1")

    rows: list[BenchRow] = []
    for size in sizes:
        sized = replace(spec, subjects=size, seed=derive_seed(spec.seed, size))
        table, store, sample, generate_s = materialize_corpus(sized, grid)

        index_times = []
        for _ in range(reps):
            start = time.perf_counter()
            build_table((rid, compute_index(store[rid], grid).key_text) for rid in store)
            index_times.append(time.perf_counter() - start)

        dedup_times = []
        report = None
        for _ in range(reps):
            start = time.perf_counter()
            report = deduplicate(table, store, params)
            dedup_times.append(time.perf_counter() - start)

        identify_ms = median_identify_ms(table, store, sample, grid, params)
        stats = corpus_stats(table, report, median(dedup_times))
        rows.append(BenchRow(
            size=table.size, nb_class=stats.nb_class, avg=stats.avg, max_p=stats.max_p,
            max_rate=stats.max_rate, std_dev=stats.std_dev, generate_s=generate_s,
            index_s=median(index_times), dedup_s=median(dedup_times),
            identify_ms_median=identify_ms, reps=reps,
        ))
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    return "\n".join([",".join(BENCH_CSV_COLUMNS)] + [row.csv_row() for row in rows]) + "\n"
