"""The benchmark's own checks: inputs, replays, oracle agreement and the percentile rule.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import itertools

import pytest

from fpdedup.dedup import deduplicate, exhaustive_dedup
from fpdedup.grid import compute_index
from fpdedup.identify import identify
from fpdedup.matcher import is_match, match_score
from fpdedup.synth import GenSpec, SplitMix64, _perturbed_copy, generate

from perfbench import corpora, measure, speed, workloads
from perfbench.tracing import Tracer, replay_deduplicate, replay_identify

SMALL_FAMILIES = (12, 6, 3)


def direct(name, fn, *args):
    """An untraced, unsampled stand-in for ``Tracer.call``."""
    return fn(*args)


@pytest.fixture(scope="module")
def skewed():
    return corpora.skewed_corpus(300, seed=41, dup_fraction=0.03, family_sizes=SMALL_FAMILIES)


@pytest.fixture(scope="module")
def indexed(skewed):
    signatures, _ = skewed
    return workloads._store_and_table(signatures, direct)


def test_bd_glo_law_matches_the_published_row():
    row = corpora.BD_GLO
    sizes = corpora.BD_GLO_BUCKETS
    pairs = (row.nb_class * (row.std_dev ** 2 + row.avg ** 2) - row.size) / 2.0
    assert max(sizes) == row.max_p == 91
    assert sum(c - 1 for c in sizes) == row.size - row.nb_class
    assert sum(c * (c - 1) // 2 for c in sizes) == pytest.approx(pairs, rel=0.03)
    assert corpora.FAMILY_SIZES == (91, 54, 40, 33)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_family_shares_key_and_siblings_do_not_match(seed):
    base = generate(GenSpec(1, seed=seed))[0][0]
    members = corpora.key_sharing_family(SplitMix64(seed), base, 15, "F")
    keys = {compute_index(m).key_text for m in members}
    assert keys == {compute_index(base).key_text}
    assert len({tuple((m.x, m.y) for m in s.minutiae) for s in members}) == len(members)
    for a, b in itertools.combinations(members[:6], 2):
        assert not is_match(match_score(a, b))


def test_skewed_corpus_layout(skewed):
    signatures, truth = skewed
    assert [len(f) for f in truth.families] == list(SMALL_FAMILIES)
    assert len(truth.planted) == 9
    assert truth.histogram == corpora.bucket_histogram(signatures)
    assert sum(size * count for size, count in truth.histogram.items()) == len(signatures)
    assert max(truth.histogram) >= max(SMALL_FAMILIES)


def test_dedup_replay_equals_deduplicate(skewed, indexed):
    table, store = indexed
    report = deduplicate(table, store)
    tracer = Tracer()
    replayed = replay_deduplicate(tracer, table, store)
    assert replayed.groups_by_key == report.groups_by_key
    assert replayed.comparisons == report.comparisons == workloads.expected_comparisons(report)
    assert tracer.totals()["matcher.score"][0] == report.comparisons
    assert workloads.dedup_violations(report, skewed[1]) == []


def test_sampled_params_change_nothing_but_sample(indexed):
    table, store = indexed
    probe = speed.SpeedProbe()
    sampled = deduplicate(table, store, speed.SampledParams(probe))
    plain = deduplicate(table, store)
    assert sampled.groups_by_key == plain.groups_by_key
    assert sampled.comparisons == plain.comparisons
    assert probe.kernel_s and probe.spent_s > 0.0


def test_times_are_rescaled_with_samples_taken_after_them():
    outcome = workloads.Outcome()
    outcome.probe.taken_at[:] = [0.0, 1.5, 2.5, 3.5]
    outcome.probe.kernel_s[:] = [100.0, 1.0, 2.0, 6.0]
    timing = (2.0, 3.0, 0.5)  # 1 s, of which 0.5 s in the probe
    outcome.record(timing, 1)
    assert outcome.measured_s == pytest.approx(0.5)
    # the last three samples lie within 1 s of the operation, one of them after it
    assert outcome.scaled_ops() == [(pytest.approx(0.5 * speed.NOMINAL_S / 2.0), 1)]


def test_speed_factor_uses_kernels_near_the_measurement():
    probe = speed.SpeedProbe()
    probe.taken_at[:] = [0.0, 1.0, 1.1, 5.0]
    probe.kernel_s[:] = [1.0, 2.0, 4.0, 8.0]
    assert probe.factor(1.05, 1.06) == pytest.approx(speed.NOMINAL_S / 3.0)
    assert probe.factor(3.0, 3.1) == pytest.approx(speed.NOMINAL_S / 6.0)  # nearest on each side


def test_skewed_groups_equal_exhaustive_oracle(skewed, indexed):
    table, store = indexed
    report = deduplicate(table, store)
    swept = {frozenset(g) for groups in report.groups_by_key.values() for g in groups}
    oracle = {frozenset(g) for g in exhaustive_dedup(store, cap=len(store))}
    assert swept == oracle


def test_identify_replay_equals_identify(indexed, skewed):
    table, store = indexed
    rng = SplitMix64(7)
    tracer = Tracer()
    for i, source in enumerate(skewed[0][::7]):
        spec = workloads.JITTERED_COPY if i % 2 else workloads.EXACT_COPY
        query = _perturbed_copy(rng, spec, source, f"Q{i}")
        tracer.request = i
        assert replay_identify(tracer, query, table, store) == identify(query, table, store)
    assert tracer.totals()["grid.key"][0] == i + 1


def test_translated_copy_found_first_at_100():
    signatures, _ = generate(GenSpec(120, seed=8))
    table, store = workloads._store_and_table(signatures, direct)
    rng = SplitMix64(8)
    for source in signatures[:40]:
        result = identify(_perturbed_copy(rng, workloads.EXACT_COPY, source, "Q"), table, store)
        assert result.candidates[0] == (source.record_id, 100.0)


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    tracer.call("outer", lambda: [tracer.call("inner", sum, range(1000)) for _ in range(3)])
    totals = tracer.totals()
    calls, total, self_time = totals["outer"]
    assert calls == 1 and totals["inner"][0] == 3
    assert self_time == pytest.approx(total - totals["inner"][1])
    assert list(tracer.parents) == [-1, 0, 0, 0]


def test_expected_comparisons_follow_sweep_order():
    from fpdedup.dedup import DuplicateReport
    report = DuplicateReport({"k": [["a", "c"], ["b"], ["d", "e"]], "s": [["x"]]})
    # head a sees b, c, d, e; head b sees d, e; head d sees e
    assert workloads.expected_comparisons(report) == 4 + 2 + 1


@pytest.mark.parametrize("count, pct", [(0, None), (19, None), (20, 50.0), (99, 50.0),
                                        (100, 90.0), (200, 95.0), (999, 95.0),
                                        (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_rule(count, pct):
    assert measure.tail_percentile(count) == pct
    if pct is not None:
        assert measure.beyond(count, pct) >= measure.MIN_BEYOND


def test_nearest_rank_percentile():
    samples = [float(v) for v in range(1, 101)]
    assert measure.percentile(samples, 50.0) == 50.0
    assert measure.percentile(samples, 99.0) == 99.0
    assert measure.percentile([3.0], 99.0) == 3.0


@pytest.mark.parametrize("traced", [False, True])
def test_workloads_run_clean_on_small_inputs(tmp_path, traced):
    outcomes = [
        workloads.run_ingest(5, 0.0, tmp_path, traced, records=150),
        workloads.run_identify(5, 0.0, tmp_path, traced, records=150, min_queries=30),
        workloads.run_dedup(5, 0.0, tmp_path, traced, singletons=150,
                            family_sizes=SMALL_FAMILIES),
    ]
    for outcome in outcomes:
        assert outcome.attempted > 0
        assert outcome.failed == 0 and outcome.replay_mismatches == 0, outcome.notes
        assert len(outcome.setups) == (0 if traced else workloads.SETUP_REPS)
    if traced:
        ingest, identify_, dedup = (outcome.layer for outcome in outcomes)
        # counts are per operation: one ingest pass, one query, one sweep
        assert ingest["signature.parse_calls"] == ingest["grid.key_calls"] == 150
        assert ingest["matcher.features_calls"] == 0
        assert identify_["grid.key_calls"] == 1
        assert identify_["matcher.features_calls"] == 1 + identify_["identify.candidates_mean"]
        assert dedup["matcher.score_calls"] == dedup["dedup.comparisons"] > 0
