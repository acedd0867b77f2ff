"""
Scaling curves: class growth, penetration decay, linear dedup
=============================================================

One scaling run generates a fresh corpus per size and sweeps it once,
giving the standard statistics row of each, sweep time included. Class
counts grow almost linearly with size, the worst penetration rate
falls, and the sweep time grows far slower than the all-pairs n^2. The
CSV is the layout `fpdedup stats --csv` prints, meant for external
plotting.
"""

from fpdedup.stats import TABLE_COLUMNS, scaling_run
from fpdedup.synth import GenSpec

sizes = [500, 1000, 2000, 4000]
spec = GenSpec(subjects=0, dup_fraction=0.01, minutiae_per_print=(20, 35), seed=2024)
rows = scaling_run(sizes, spec)

print(f"{'size':>6} {'classes':>8} {'avg':>8} {'max rate':>10} {'sweep s':>8}")
for row in rows:
    print(f"{row.size:>6} {row.nb_class:>8} {row.avg:>8.4f} "
          f"{row.max_rate:>9.4%} {row.duration_s:>8.3f}")

growth = rows[-1].nb_class / rows[0].nb_class
print(f"\nclass count grew {growth:.1f}x over a {sizes[-1] // sizes[0]}x size increase")
print(f"sweep time ratio last/first: {rows[-1].duration_s / max(rows[0].duration_s, 1e-9):.1f} "
      f"(an n^2 sweep would be {(sizes[-1] / sizes[0]) ** 2:.0f}x)")

print("\nCSV:")
print(",".join(TABLE_COLUMNS))
for size, row in zip(sizes, rows):
    print(row.csv_row(f"synth-{size}"))
