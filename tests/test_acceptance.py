"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The heavier criteria share module-scoped synthetic corpora; everything
is seed-frozen, so results are reproducible.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from statistics import median

import pytest

from fpdedup.cluster import ClusterTable, build_table
from fpdedup.dedup import comparison_count, deduplicate, exhaustive_dedup, pair_relation
from fpdedup.grid import GridParams, compute_index
from fpdedup.identify import identify
from fpdedup.matcher import MatchParams, index_signature, match_score, score_indexed
from fpdedup.signature import Signature
from fpdedup.stats import (REFERENCE_ROWS, REFERENCE_SIZE_AVG_PAIRS, estimate_workload,
                           fit_regression, materialize_corpus, predict_avg)
from fpdedup.synth import GenSpec, SplitMix64, generate, iter_records

from .conftest import REFERENCE_KEY
from .test_matcher import quarter_turn

PARAMS = MatchParams()
GRID = GridParams()


def ok(line: str) -> None:
    print(f"ACCEPTANCE {line} ... PASS")


# ---------------------------------------------------------------------------
# Shared corpora


@pytest.fixture(scope="module")
def planted_1k():
    """1,000 subjects plus 50 exact-duplicate plants (jitter 0, no drops)."""
    start = time.perf_counter()
    spec = GenSpec(subjects=1000, dup_fraction=0.05, minutiae_per_print=(20, 35),
                   jitter=0.0, drop_prob=0.0, seed=20260811)
    signatures, truth = generate(spec)
    store = {s.record_id: s for s in signatures}
    table = build_table((s.record_id, compute_index(s, GRID).key_text) for s in signatures)
    return table, store, truth, time.perf_counter() - start


@pytest.fixture(scope="module")
def table_100k():
    spec = GenSpec(subjects=100_000, dup_fraction=0.0, seed=101)
    return materialize_corpus(spec, GRID)


@pytest.fixture(scope="module")
def table_10k():
    spec = GenSpec(subjects=10_000, dup_fraction=0.0, seed=102)
    return materialize_corpus(spec, GRID)


def query_sample(store: Mapping[str, Signature]) -> list[Signature]:
    """Up to 100 evenly spaced records, read back from the store."""
    ids = list(store)
    return [store[rid] for rid in ids[::max(1, len(ids) // 100)][:100]]


def median_identify_ms(table: ClusterTable, store: Mapping[str, Signature],
                       queries: list[Signature]) -> float:
    """Median identification latency in milliseconds over the queries."""
    latencies = []
    for query in queries:
        start = time.perf_counter()
        identify(query, table, store, GRID, PARAMS)
        latencies.append((time.perf_counter() - start) * 1000.0)
    return median(latencies)


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_golden_index_key(reference_signature):
    key = compute_index(reference_signature, GridParams(5))
    assert key.key_text == REFERENCE_KEY
    reps = 200
    start = time.perf_counter()
    for _ in range(reps):
        compute_index(reference_signature, GridParams(5))
    per_call = (time.perf_counter() - start) / reps
    assert per_call < 1e-3
    ok(f"1: golden index key reproduced exactly in {per_call * 1e6:.0f} us")


def test_criterion_02_count_conservation():
    spec = GenSpec(subjects=10_000, dup_fraction=0.0, seed=202)
    checked = 0
    for signature, _ in iter_records(spec):
        key = compute_index(signature, GRID)
        assert sum(key.counts) == len(signature.minutiae)
        checked += 1
    assert checked == 10_000
    ok(f"2: index counts conserve minutiae totals on {checked} signatures")


def test_criterion_03_regression_reproduction():
    fit = fit_regression(list(REFERENCE_SIZE_AVG_PAIRS))
    assert fit.slope == pytest.approx(6.62936e-08, rel=1e-4)
    assert fit.intercept == pytest.approx(1.00177911, rel=1e-6)
    prediction = predict_avg(fit, 10_000_000)
    assert prediction == pytest.approx(1.664715563, rel=1e-6)
    ok(f"3: regression fit ({fit.slope:.6g}, {fit.intercept:.9g}) "
       f"and 10M extrapolation {prediction:.9f} reproduced")


def test_criterion_04_workload_estimate():
    estimate = estimate_workload(10_000_000, 2.0, 1.0)
    assert estimate.classes == 5_000_000.0
    assert estimate.comparisons == 5_000_000.0
    assert estimate.wall_time_ms == 5_000_000.0
    ok("4: 10M-record forecast is exactly 5,000,000 classes / comparisons / ms")


def test_criterion_05_reference_rows_avg_consistency():
    for row in REFERENCE_ROWS:
        assert abs(row.size / row.nb_class - row.avg) <= 5e-5, row.name
    ok(f"5: Avg column re-derives from Size/Nb-class for all {len(REFERENCE_ROWS)} reference rows")


def test_criterion_06_oracle_equivalence(planted_1k):
    table, store, truth, generation_s = planted_1k
    start = time.perf_counter()

    report = deduplicate(table, store, PARAMS)
    found = {frozenset(g) for g in report.duplicate_groups()}
    expected = {frozenset(p) for p in truth}
    assert len(expected) == 50
    assert found == expected, "sweep must find exactly the 50 planted pairs"

    oracle_groups = exhaustive_dedup(store, PARAMS)
    sweep_pairs = pair_relation(g for groups in report.groups_by_key.values() for g in groups)
    oracle_pairs = pair_relation(oracle_groups)
    shared_key = pair_relation(table.buckets.values())
    assert sweep_pairs & shared_key == oracle_pairs & shared_key

    elapsed = generation_s + (time.perf_counter() - start)
    assert elapsed < 60.0
    ok(f"6: 50/50 planted groups, 100% precision/recall, oracle agreement, {elapsed:.1f}s < 60s")


def test_criterion_07_penetration_below_one_percent(table_100k):
    table, _ = table_100k
    assert table.size == 100_000
    max_rate = table.max_bucket_size() / table.size
    assert max_rate < 0.01
    ok(f"7: max penetration rate {100 * max_rate:.4f}% < 1% on 100k records")


def test_criterion_08_constant_time_identification(table_100k, table_10k):
    big_table, big_store = table_100k
    small_table, small_store = table_10k
    big_sample, small_sample = query_sample(big_store), query_sample(small_store)
    assert len(big_sample) >= 100 and len(small_sample) >= 100
    small_ms = median_identify_ms(small_table, small_store, small_sample)
    big_ms = median_identify_ms(big_table, big_store, big_sample)
    assert big_ms <= 2.0 * small_ms
    ok(f"8: median identify latency {big_ms:.2f} ms @100k vs {small_ms:.2f} ms @10k "
       f"(ratio {big_ms / small_ms:.2f} <= 2)")


def test_criterion_09_dedup_scaling():
    timings = {}
    for size, seed in ((25_000, 901), (50_000, 902)):
        spec = GenSpec(subjects=size, dup_fraction=0.01, jitter=0.0,
                       drop_prob=0.0, seed=seed)
        table, store = materialize_corpus(spec, GRID)
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            deduplicate(table, store, PARAMS)
            runs.append(time.perf_counter() - start)
        timings[size] = sorted(runs)[1]
    ratio = timings[50_000] / timings[25_000]
    assert ratio <= 3.0
    # context next to the published 50k-record reference of 57.55 s
    ok(f"9: dedup scaling ratio {ratio:.2f} <= 3 "
       f"(25k: {timings[25_000]:.2f}s, 50k: {timings[50_000]:.2f}s; "
       f"published 50k reference 57.55s)")


def test_criterion_10_matcher_invariant_suite():
    signatures, _ = generate(GenSpec(subjects=1000, minutiae_per_print=(20, 45), seed=1010))
    assert len(signatures) == 1000
    rng = SplitMix64(77)
    depth_totals: dict[int, list[float]] = {k: [] for k in range(1, 6)}

    for n, s in enumerate(signatures):
        indexed = index_signature(s, PARAMS)

        identity = score_indexed(indexed, indexed, PARAMS)
        assert identity.score == 100.0

        rotated = quarter_turn(s, height=400)
        moved = Signature("m", [type(m)(m.x + 7, m.y + 3, m.theta, m.type_code)
                                for m in rotated.minutiae])
        assert score_indexed(indexed, index_signature(moved, PARAMS), PARAMS).score == 100.0

        if n % 2 == 1:
            previous = signatures[n - 1]
            assert match_score(previous, s, PARAMS) == match_score(s, previous, PARAMS)

        remaining = list(s.minutiae)
        for depth in range(1, 6):
            kill = rng.randint(0, len(remaining) - 1)
            remaining = remaining[:kill] + remaining[kill + 1:]
            subset = Signature("sub", list(remaining))
            score = score_indexed(indexed, index_signature(subset, PARAMS), PARAMS).score
            # removal never beats the intact pair's score of 100
            assert score <= 100.0
            depth_totals[depth].append(score)

    means = [sum(v) / len(v) for v in depth_totals.values()]
    assert all(means[i] <= means[i - 1] + 1e-9 for i in range(1, len(means)))
    assert means[-1] < 100.0
    ok(f"10: identity, symmetry, rigid motion, and degradation on 1000 signatures "
       f"(mean score by removals: {', '.join(f'{m:.1f}' for m in means)})")


def test_criterion_11_zero_cross_bucket_comparisons(planted_1k, compared_pairs):
    table, store, _, _ = planted_1k
    report = deduplicate(table, store, PARAMS)
    key_of = {rid: key for key, bucket in table.buckets.items() for rid in bucket}
    assert compared_pairs, "expected multi-member buckets"
    cross = sum(1 for a, b in compared_pairs if key_of[a] != key_of[b])
    assert cross == 0
    assert len(compared_pairs) == report.comparisons
    assert len(compared_pairs) <= comparison_count(table)
    ok(f"11: {len(compared_pairs)} comparisons, all within buckets, zero cross-bucket")
