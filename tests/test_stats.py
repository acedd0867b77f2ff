"""Corpus metrics, regression fit, extrapolation, and workload forecast."""

from __future__ import annotations

import math

import pytest

from fpdedup.cluster import build_table
from fpdedup.dedup import DuplicateReport
from fpdedup.stats import (REFERENCE_ROWS, REFERENCE_SIZE_AVG_PAIRS, RegressionFit,
                           corpus_stats, estimate_workload, fit_regression,
                           format_rate, predict_avg)


def _hand_ols(points):
    """Independent closed-form least-squares oracle."""
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    slope = sxy / sxx
    return slope, my - slope * mx


# ---------------------------------------------------------------------------
# corpus_stats


def test_stats_all_singletons():
    table = build_table([(f"r{i}", f"k{i}") for i in range(320)])
    report = DuplicateReport({f"k{i}": [[f"r{i}"]] for i in range(320)})
    stats = corpus_stats(table, report, duration_s=0.7)
    assert stats.size == 320
    assert stats.nb_class == 320
    assert stats.avg == 1.0
    assert stats.min_p == 1 and stats.max_p == 1
    assert stats.std_dev == 0.0
    assert stats.min_rate == stats.max_rate == 1 / 320
    assert format_rate(stats.max_rate) == "0.3125%"
    assert stats.duplicates == 0


def test_stats_single_bucket_of_four():
    table = build_table([(f"r{i}", "k") for i in range(4)])
    stats = corpus_stats(table)
    assert stats.nb_class == 1
    assert stats.avg == 4.0
    assert stats.std_dev == 0.0


def test_stats_mixed_buckets_hand_arithmetic():
    # buckets of sizes {1, 1, 2}: size 4, avg 4/3, max 2
    table = build_table([("a", "k1"), ("b", "k2"), ("c", "k3"), ("d", "k3")])
    stats = corpus_stats(table)
    assert stats.size == 4
    assert stats.nb_class == 3
    assert stats.avg == pytest.approx(4 / 3)
    assert stats.min_p == 1 and stats.max_p == 2
    mean = 4 / 3
    expected_sd = math.sqrt(((1 - mean) ** 2 * 2 + (2 - mean) ** 2) / 3)
    assert stats.std_dev == pytest.approx(expected_sd)


def test_stats_duplicates_counted():
    table = build_table([("a", "k1"), ("b", "k1"), ("c", "k1"), ("d", "k2")])
    report = DuplicateReport({"k1": [["a", "b", "c"]], "k2": [["d"]]})
    stats = corpus_stats(table, report)
    assert stats.duplicates == 2  # three records, one representative


def test_stats_duplicates_bounded_by_size_minus_classes():
    table = build_table([("a", "k1"), ("b", "k2")])
    bogus = DuplicateReport({"k1": [["a", "b", "x", "y"]]})
    with pytest.raises(ValueError, match="disagree"):
        corpus_stats(table, bogus)


def test_stats_empty_table_errors():
    with pytest.raises(ValueError, match="empty"):
        corpus_stats(build_table([]))


def test_reference_rows_internally_consistent():
    # published Avg, Min/Max rates re-derive from Size and Nb class (4 decimals)
    for row in REFERENCE_ROWS:
        assert abs(row.size / row.nb_class - row.avg) <= 5e-5, row.name
        assert abs(100.0 * row.min_p / row.size - row.min_rate_pct) <= 5e-5, row.name
        assert abs(100.0 * row.max_p / row.size - row.max_rate_pct) <= 5e-5, row.name


def test_csv_row_formatting():
    table = build_table([(f"r{i}", f"k{i}") for i in range(320)])
    row = corpus_stats(table, None, 0.7191).csv_row("FVC2000")
    assert row.split(",") == ["FVC2000", "320", "320", "1.0000", "1", "1", "0.0000",
                              "0.3125%", "0.3125%", "0", "0.7191"]


# ---------------------------------------------------------------------------
# Regression


def test_fit_reference_pairs_against_hand_oracle():
    fit = fit_regression(list(REFERENCE_SIZE_AVG_PAIRS))
    slope, intercept = _hand_ols(REFERENCE_SIZE_AVG_PAIRS)
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.intercept == pytest.approx(intercept, rel=1e-12)


def test_fit_reference_pairs_published_values():
    fit = fit_regression(list(REFERENCE_SIZE_AVG_PAIRS))
    assert fit.slope == pytest.approx(6.62936e-08, rel=1e-4)
    assert fit.intercept == pytest.approx(1.00177911, rel=1e-6)


def test_fit_two_points_flat():
    fit = fit_regression([(0.0, 1.0), (1.0, 1.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-15)
    assert fit.intercept == pytest.approx(1.0)


def test_fit_recovers_exact_line():
    a, b = 3.5e-7, 1.002
    points = [(x, a * x + b) for x in (10.0, 500.0, 1e4, 2e5, 9e5)]
    fit = fit_regression(points)
    assert fit.slope == pytest.approx(a, rel=1e-12)
    assert fit.intercept == pytest.approx(b, rel=1e-12)


def test_fit_residuals_sum_to_zero():
    fit = fit_regression(list(REFERENCE_SIZE_AVG_PAIRS))
    residual = sum(y - (fit.slope * x + fit.intercept) for x, y in REFERENCE_SIZE_AVG_PAIRS)
    assert abs(residual) < 1e-9


def test_fit_extreme_but_finite_points():
    # the centred sums of squares would overflow (1e400) or lose every
    # digit (1e-640) without scaling
    fit = fit_regression([(1e200, 1.0), (2e200, 2.0)])
    assert fit.slope == pytest.approx(1e-200, rel=1e-15)
    assert fit.intercept == pytest.approx(0.0, abs=1e-15)
    fit = fit_regression([(1e-300, 1.0), (2e-300, 2.0), (4e-300, 4.0)])
    assert fit.slope == pytest.approx(1e300, rel=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="overflows"):
        fit_regression([(1e-320, 1.0), (2e-320, 2.0)])  # slope 1e320


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_regression([(1.0, 2.0)])
    with pytest.raises(ValueError, match="degenerate"):
        fit_regression([(5.0, 1.0), (5.0, 2.0)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_regression([(1.0, 1.0), (2.0, bad)])
        with pytest.raises(ValueError, match="finite"):
            fit_regression([(bad, 1.0), (2.0, 1.0)])
    with pytest.raises(ValueError, match="overflows"):
        fit_regression([(1.0, 1e308), (2.0, -1e308)])


def test_predict_published_extrapolations():
    fit = fit_regression(list(REFERENCE_SIZE_AVG_PAIRS))
    assert predict_avg(fit, 10_000_000) == pytest.approx(1.664715563, rel=1e-6)
    assert predict_avg(fit, 320) == pytest.approx(1.00180032, rel=1e-6)
    assert predict_avg(fit, 20_000_000) == pytest.approx(2.327652019, rel=1e-6)


def test_predict_flat_line():
    fit = RegressionFit(0.0, 1.0)
    for n in (0, 320, 1e7):
        assert predict_avg(fit, n) == 1.0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            predict_avg(fit, bad)
    with pytest.raises(ValueError, match="overflows"):
        predict_avg(RegressionFit(1e300, 1.0), 1e300)


# ---------------------------------------------------------------------------
# Workload forecast


def test_workload_ten_million_at_avg_two():
    estimate = estimate_workload(10_000_000, 2.0, 1.0)
    assert estimate.classes == 5_000_000.0
    assert estimate.comparisons == 5_000_000.0
    assert estimate.wall_time_ms == 5_000_000.0
    assert estimate.wall_time_human() == "1h23m20s"


def test_workload_avg_one_no_comparisons():
    estimate = estimate_workload(1000, 1.0, 1.0)
    assert estimate.comparisons == 0.0
    assert estimate.wall_time_ms == 0.0


def test_workload_hand_arithmetic():
    estimate = estimate_workload(4, 2.0, 1.0)
    assert estimate.classes == 2.0
    assert estimate.comparisons == 2.0


def test_workload_validation():
    with pytest.raises(ValueError):
        estimate_workload(0, 2.0, 1.0)
    with pytest.raises(ValueError):
        estimate_workload(10, 0.5, 1.0)
    with pytest.raises(ValueError, match="negative"):
        estimate_workload(10, 2.0, -1.0)
    for bad in (math.nan, math.inf):
        for args in ((bad, 2.0, 1.0), (10, bad, 1.0), (10, 2.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                estimate_workload(*args)
    with pytest.raises(ValueError, match="overflows"):
        estimate_workload(1e300, 1e300, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        estimate_workload(1e300, 2.0, 1e300)
