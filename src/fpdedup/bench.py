"""Scaling runs: the standard statistics row of a synthetic corpus per size.

One run generates a fresh corpus per requested size (seed derived from
the base seed and the size), builds its cluster table, and sweeps it
once through `stats.sweep_stats`, so each row is what `fpdedup stats`
reports for that corpus, sweep time included. Timing by phase lives in
the benchmark (`perfbench`), not here.
"""

from __future__ import annotations

import time
from dataclasses import replace
from statistics import median

from .cluster import ClusterTable, build_table
from .grid import GridParams, compute_index
from .identify import identify
from .matcher import MatchParams
from .signature import SerializedStore, Signature
from .stats import CorpusStats, sweep_stats
from .synth import GenSpec, derive_seed, iter_records


def materialize_corpus(spec: GenSpec,
                       grid: GridParams = GridParams()) -> tuple[ClusterTable, SerializedStore, list[Signature]]:
    """Generate a corpus into a compact store plus its cluster table.

    Returns (table, store, query_sample); the query sample holds up to
    100 evenly spaced signatures for latency probes.
    """
    store = SerializedStore()
    entries: list[tuple[str, str]] = []
    sample: list[Signature] = []
    stride = max(1, (spec.subjects + spec.duplicate_count) // 100)
    for position, (signature, _source) in enumerate(iter_records(spec)):
        store.add(signature)
        entries.append((signature.record_id, compute_index(signature, grid).key_text))
        if position % stride == 0 and len(sample) < 100:
            sample.append(signature)
    return build_table(entries), store, sample


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
                params: MatchParams = MatchParams()) -> list[CorpusStats]:
    """The statistics row of a fresh corpus of each size, from one timed sweep each.

    Sizes must be ascending; each replaces ``spec.subjects``.
    """
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly ascending")
    rows = []
    for size in sizes:
        sized = replace(spec, subjects=size, seed=derive_seed(spec.seed, size))
        table, store, _sample = materialize_corpus(sized, grid)
        rows.append(sweep_stats(table, store, params)[1])
    return rows
