"""
Cluster statistics, the occupancy regression, and workload forecasts
====================================================================

Published measurements of this index scheme on the FVC/NIST corpora
show the mean records-per-cluster staying close to 1 as databases grow.
Fitting a line through (size, mean occupancy) lets us extrapolate to
national-scale databases and forecast the deduplication workload.
"""

from fpdedup import build_table, compute_index, estimate_workload
from fpdedup.stats import (REFERENCE_ROWS, REFERENCE_SIZE_AVG_PAIRS, fit_regression,
                           format_rate, predict_avg, sweep_stats)
from fpdedup.synth import GenSpec, generate

print("published reference measurements:")
print(f"{'corpus':10} {'size':>7} {'classes':>7} {'avg':>7} {'max rate':>9}")
for row in REFERENCE_ROWS:
    print(f"{row.name:10} {row.size:>7} {row.nb_class:>7} {row.avg:>7} "
          f"{row.max_rate_pct:>8.4f}%")

fit = fit_regression(list(REFERENCE_SIZE_AVG_PAIRS))
print(f"\noccupancy regression: avg = {fit.slope:.6g} * size + {fit.intercept:.9g}")
for size in (10_000_000, 20_000_000):
    print(f"  extrapolated avg at {size:>11,} records: {predict_avg(fit, size):.6f}")

# At 10M records and ~2 records per class, the whole sweep is around
# five million comparisons: under two hours at 1 ms per comparison.
estimate = estimate_workload(10_000_000, 2.0, ms_per_comparison=1.0)
print(f"\n10M-record forecast: {estimate.classes:,.0f} classes, "
      f"{estimate.comparisons:,.0f} comparisons, {estimate.wall_time_human()}")

# The same statistics for a synthetic corpus of our own, from one timed sweep.
signatures, _ = generate(GenSpec(subjects=5000, dup_fraction=0.01,
                                 minutiae_per_print=(20, 35), seed=7))
store = {s.record_id: s for s in signatures}
table = build_table((s.record_id, compute_index(s).key_text) for s in signatures)
_, stats = sweep_stats(table, store)
print(f"\nsynthetic corpus: size {stats.size}, classes {stats.nb_class}, "
      f"avg {stats.avg:.4f}, max penetration {format_rate(stats.max_rate)}, "
      f"{stats.duplicates} duplicates")
print("CSV row:", stats.csv_row("SYNTH5000"))
