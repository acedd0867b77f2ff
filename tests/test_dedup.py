"""Duplicate sweep, exhaustive oracle, comparison accounting, report format."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpdedup import dedup as dedup_module
from fpdedup import matcher as matcher_module
from fpdedup.cluster import build_table
from fpdedup.dedup import (DuplicateReport, OracleCapExceededError, _windows, comparison_count,
                           deduplicate, exhaustive_dedup, format_report, pair_relation)
from fpdedup.grid import GridParams, compute_index
from fpdedup.identify import identify
from fpdedup.matcher import (MatchParams, MatchResult, _CellGrid, bucket_scorer, index_signature,
                             is_match, match_score)
from fpdedup.signature import Signature
from fpdedup.synth import GenSpec, generate

from .conftest import make_signature

PARAMS = MatchParams()


def _table_and_store(signatures):
    store = {s.record_id: s for s in signatures}
    table = build_table((s.record_id, compute_index(s).key_text) for s in signatures)
    return table, store


@pytest.fixture(scope="module")
def planted_corpus():
    signatures, truth = generate(
        GenSpec(subjects=500, dup_fraction=0.06, minutiae_per_print=(20, 35),
                jitter=0.0, drop_prob=0.0, seed=3030)
    )
    table, store = _table_and_store(signatures)
    return table, store, truth


def test_identical_pair_grouped():
    a = make_signature("A", [(10, 10), (40, 20), (25, 45), (60, 60)])
    b = Signature("B", list(a.minutiae))
    c = make_signature("C", [(0, 0), (90, 0), (0, 90), (45, 45), (90, 90)])
    table, store = _table_and_store([a, b, c])
    report = deduplicate(table, store, PARAMS)
    groups = {key: groups for key, groups in report.groups_by_key.items()}
    a_key = compute_index(a).key_text
    c_key = compute_index(c).key_text
    assert groups[a_key] == [["A", "B"]]
    assert groups[c_key] == [["C"]]


def test_all_distinct_zero_comparisons(compared_pairs):
    signatures, _ = generate(GenSpec(subjects=40, minutiae_per_print=(20, 30), seed=9))
    table, store = _table_and_store(signatures)
    if table.max_bucket_size() == 1:  # distinct keys, as expected for random prints
        report = deduplicate(table, store, PARAMS)
        assert compared_pairs == []
        assert report.comparisons == 0
        assert all(len(g) == 1 for groups in report.groups_by_key.values() for g in groups)


def test_planted_duplicates_found(planted_corpus):
    table, store, truth = planted_corpus
    report = deduplicate(table, store, PARAMS)
    found = {frozenset(g) for g in report.duplicate_groups()}
    expected = {frozenset(p) for p in truth}
    assert found == expected
    assert report.duplicate_count() == len(truth)


def test_sweep_matches_oracle_on_shared_key_pairs(planted_corpus):
    table, store, truth = planted_corpus
    report = deduplicate(table, store, PARAMS)
    oracle_groups = exhaustive_dedup(store, PARAMS)
    sweep_pairs = pair_relation(g for groups in report.groups_by_key.values() for g in groups)
    oracle_pairs = pair_relation(oracle_groups)
    shared_key = pair_relation(table.buckets.values())
    assert sweep_pairs & shared_key == oracle_pairs & shared_key


def test_zero_cross_bucket_comparisons(planted_corpus, compared_pairs):
    table, store, _ = planted_corpus
    report = deduplicate(table, store, PARAMS)
    key_of = {rid: key for key, bucket in table.buckets.items() for rid in bucket}
    assert compared_pairs, "multi-member buckets were expected"
    for a, b in compared_pairs:
        assert key_of[a] == key_of[b]
    assert len(compared_pairs) == report.comparisons <= comparison_count(table)


def test_actual_comparisons_bounded(planted_corpus):
    table, store, _ = planted_corpus
    report = deduplicate(table, store, PARAMS)
    assert report.comparisons <= comparison_count(table)


def test_unresolvable_id_errors(planted_corpus):
    table, _, _ = planted_corpus
    with pytest.raises(KeyError, match="not in the signature store"):
        deduplicate(table, {}, PARAMS)


# ---------------------------------------------------------------------------
# Windows: buckets prepared together, swept as if one by one


def _reference_sweep(table, store, params):
    """The sweep bucket by bucket, each print built alone, singletons included."""
    report = DuplicateReport()
    for key, bucket in table.buckets.items():
        prepared = {rid: index_signature(store[rid], params) for rid in bucket}
        groups, worklist = [], list(bucket)
        while worklist:
            head, *worklist = worklist
            others = [prepared[o] for o in worklist]
            results = bucket_scorer(others, params)(prepared[head], range(len(others)))
            report.comparisons += len(worklist)
            groups.append([head] + [o for o, r in zip(worklist, results) if is_match(r, params)])
            worklist = [o for o, r in zip(worklist, results) if not is_match(r, params)]
        report.groups_by_key[key] = groups
    return report


# Bucket sizes in key order under a window of 8 prints: the first window
# closes inside a run of buckets with singletons between them, a bucket of
# 12 is a window of its own, and the last window is left part full.
_WINDOW_LAYOUT = (1, 3, 1, 4, 2, 1, 12, 2, 1, 3)


@pytest.fixture
def windowed(monkeypatch):
    """A table laid out as ``_WINDOW_LAYOUT``, sources next to their duplicates."""
    monkeypatch.setattr(dedup_module, "WINDOW_PRINTS", 8)
    signatures, truth = generate(GenSpec(subjects=24, dup_fraction=0.5,
                                         minutiae_per_print=(20, 35), seed=5))
    store = {s.record_id: s for s in signatures}
    ids = [rid for pair in truth for rid in reversed(pair)]
    ids += [rid for rid in store if rid not in ids]
    entries, start = [], 0
    for bucket, size in enumerate(_WINDOW_LAYOUT):
        # keys that sort out of table order, so the report must keep table order
        entries += [(rid, f"key{9 - bucket}") for rid in ids[start:start + size]]
        start += size
    table = build_table(entries)
    assert [sum(len(b) for _, b in w) for w in _windows(table.buckets)] == [9, 12, 5]
    return table, store


def test_windowed_sweep_equals_bucket_by_bucket(windowed):
    table, store = windowed
    report = deduplicate(table, store, PARAMS)
    reference = _reference_sweep(table, store, PARAMS)
    assert report.duplicate_groups()
    assert list(report.groups_by_key) == list(table.buckets)
    assert format_report(report) == format_report(reference)
    assert report.comparisons == reference.comparisons


def _sweep_pairs(table, report):
    """The (head, member) pairs a sweep into ``report``'s groups compares, in sweep order."""
    pairs = []
    for key, bucket in table.buckets.items():
        worklist = list(bucket)
        for group in report.groups_by_key[key]:
            head, *worklist = worklist
            pairs += [(head, other) for other in worklist]
            worklist = [rid for rid in worklist if rid not in group]
    return pairs


def test_windowed_sweep_pair_order(windowed, compared_pairs):
    table, store = windowed
    report = deduplicate(table, store, PARAMS)
    reference = _reference_sweep(table, store, PARAMS)
    assert format_report(report) == format_report(reference)
    assert report.comparisons == reference.comparisons == len(compared_pairs)
    assert compared_pairs == _sweep_pairs(table, reference)


def test_bound_decides_most_impostor_pairs(monkeypatch):
    # one grid block per key: prints sharing a minutiae count share a bucket
    signatures, _ = generate(GenSpec(subjects=150, dup_fraction=0.1,
                                     minutiae_per_print=(25, 32), seed=808))
    store = {s.record_id: s for s in signatures}
    table = build_table((s.record_id, compute_index(s, GridParams(1)).key_text)
                        for s in signatures)
    reference = _reference_sweep(table, store, PARAMS)
    scored = []

    def counting_scorer(members, p):
        score = bucket_scorer(members, p)
        return lambda a, alive: scored.append(len(alive)) or score(a, alive)

    monkeypatch.setattr(dedup_module, "bucket_scorer", counting_scorer)
    report = deduplicate(table, store, PARAMS)
    assert format_report(report) == format_report(reference)
    assert report.comparisons == reference.comparisons > 1000
    assert len(report.duplicate_groups()) == 15
    # the exact scorer sees the planted pairs and few impostors besides
    assert 15 <= sum(scored) < report.comparisons / 20


def test_bucket_index_sweep_equals_head_by_head():
    # One bucket: the first head groups a middle member, so later worklists
    # have gaps; triplet-less prints (two minutiae) sit among the members,
    # one of them becomes a head, and its equal copy is grouped with it.
    signatures, _ = generate(GenSpec(subjects=5, minutiae_per_print=(25, 35), seed=71))
    x, y, z, w, v = signatures
    bare = make_signature("bare", [(10, 20), (40, 60)])
    other = make_signature("bare-other", [(10, 20), (41, 60)])
    order = [x, y, Signature("x-copy", x.rows()), bare, z, Signature("bare-copy", bare.rows()),
             Signature("y-copy", y.rows()), w, other, v]
    store = {s.record_id: s for s in order}
    table = build_table((s.record_id, "shared") for s in order)
    report = deduplicate(table, store, PARAMS)
    assert report.groups_by_key["shared"] == [
        ["S00000", "x-copy"], ["S00001", "y-copy"], ["bare", "bare-copy"],
        ["S00002"], ["S00003"], ["bare-other"], ["S00004"]]
    reference = _reference_sweep(table, store, PARAMS)
    assert format_report(report) == format_report(reference)
    assert report.comparisons == reference.comparisons == 9 + 7 + 5 + 3 + 2 + 1


# ---------------------------------------------------------------------------
# Non-default params reach every index


def _match_components(store, params):
    """Connected components of the match graph, each pair scored alone by ``match_score``;
    groups and members in first-seen order, as ``exhaustive_dedup`` gives them."""
    ids = list(store)
    component = list(range(len(ids)))  # each record's lowest-positioned partner so far
    for i, j in combinations(range(len(ids)), 2):
        if is_match(match_score(store[ids[i]], store[ids[j]], params), params):
            low, high = sorted((component[i], component[j]))
            component = [low if c == high else c for c in component]
    groups = {}
    for rid, c in zip(ids, component):
        groups.setdefault(c, []).append(rid)
    return [groups[c] for c in sorted(groups)]


def test_non_default_params_reach_every_index():
    # 1 px jitter: tighter tolerances lower some planted pairs' scores
    # below the threshold, so a caller that fell back to MatchParams()
    # would score, group and match differently
    p = MatchParams(side_tolerance=3.0, angle_tolerance=0.2)
    signatures, truth = generate(GenSpec(subjects=12, dup_fraction=1.0, jitter=1.0,
                                         minutiae_per_print=(20, 35), seed=1))
    store = {s.record_id: s for s in signatures}

    assert any(match_score(store[a], store[b], p).score != match_score(store[a], store[b]).score
               for a, b in truth)
    for query in (store[a] for a, _ in truth[:4]):
        # one bucket, under the query's own key, holding every record
        key = compute_index(query).key_text
        table = build_table((rid, key) for rid in store)
        result = identify(query, table, store, params=p)
        assert result.candidates == sorted(
            ((rid, match_score(query, s, p).score) for rid, s in store.items()),
            key=lambda item: (-item[1], item[0]))

    oracle = _match_components(store, p)
    assert oracle != _match_components(store, MatchParams())
    assert exhaustive_dedup(store, p) == oracle
    table = build_table((rid, "shared") for rid in store)
    reference = _reference_sweep(table, store, p)
    assert reference.duplicate_groups() != \
        _reference_sweep(table, store, MatchParams()).duplicate_groups()
    assert format_report(deduplicate(table, store, p)) == format_report(reference)


# ---------------------------------------------------------------------------
# The literal sweep semantics, checked with a scripted relation


def _scripted_dedup(bucket_ids, match_pairs):
    """Run the sweep on one artificial bucket with a scripted relation.

    The sweep's records stay signatures, scored by the relation on their
    ids, and its screen keeps every pair.
    """
    signatures = [make_signature(rid, [(10 * (i + 1), 10), (10 * (i + 1), 30), (15, 70 + i)])
                  for i, rid in enumerate(bucket_ids)]
    table = build_table((s.record_id, "shared-key") for s in signatures)
    store = {s.record_id: s for s in signatures}

    def scripted_scorer(members, _p):
        def score(a, alive):
            ok = [frozenset((a.record_id, members[j].record_id)) in match_pairs for j in alive]
            return [MatchResult(100.0 if o else 0.0, 1 if o else 0) for o in ok]
        return score

    # a context rather than the fixture: Hypothesis reruns one test call for many examples
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dedup_module, "index_signatures", lambda signatures, _p: list(signatures))
        patch.setattr(dedup_module, "bucket_scorer", scripted_scorer)
        patch.setattr(dedup_module, "bucket_screen", lambda _m, _p: lambda _a, alive: list(alive))
        return deduplicate(table, store, PARAMS).groups_by_key["shared-key"]


def test_sweep_pop_head_semantics():
    # A matches B and C; B does not match C: one group, head first
    groups = _scripted_dedup(["A", "B", "C"], {frozenset("AB"), frozenset("AC")})
    assert groups == [["A", "B", "C"]]


def test_sweep_not_transitively_closed():
    # A-B and B-C match but A-C does not: the sweep pulls B out with A,
    # leaving C alone (no transitive closure beyond the sweep)
    groups = _scripted_dedup(["A", "B", "C"], {frozenset("AB"), frozenset("BC")})
    assert groups == [["A", "B"], ["C"]]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6))))
def test_sweep_partitions_bucket(size, raw_pairs):
    ids = [f"R{i}" for i in range(size)]
    pairs = {frozenset((f"R{a}", f"R{b}")) for a, b in raw_pairs if a != b and a < size and b < size}
    groups = _scripted_dedup(ids, pairs)
    flattened = [rid for g in groups for rid in g]
    assert sorted(flattened) == sorted(ids)
    assert all(g for g in groups)


def test_sweep_and_oracle_pair_order(compared_pairs, monkeypatch):
    """Pairs are decided heads in sweep order, others in list order."""
    a = make_signature("A", [(10, 10), (40, 20), (25, 45), (60, 60)])
    b = Signature("B", list(a.minutiae))  # matches A
    c = make_signature("C", [(0, 0), (90, 0), (0, 90), (45, 45), (90, 90)])
    d = make_signature("D", [(5, 80), (30, 10), (70, 40), (50, 90)])
    store = {s.record_id: s for s in (a, c, b, d)}
    table = build_table((rid, "shared-key") for rid in store)

    report = deduplicate(table, store, PARAMS)
    assert report.groups_by_key["shared-key"] == [["A", "B"], ["C"], ["D"]]
    assert compared_pairs == [("A", "C"), ("A", "B"), ("A", "D"), ("C", "D")]
    assert report.comparisons == 4

    scored = []

    def spying_scorer(members, p):
        score = bucket_scorer(members, p)

        def spy(head, alive):
            scored.extend((head.signature.record_id, members[j].signature.record_id)
                          for j in alive)
            return score(head, alive)

        return spy

    monkeypatch.setattr(dedup_module, "bucket_scorer", spying_scorer)
    assert exhaustive_dedup(store, PARAMS) == [["A", "B"], ["C"], ["D"]]
    assert scored == [("A", "C"), ("A", "B"), ("A", "D"), ("C", "B"), ("C", "D"), ("B", "D")]


def test_perturbed_corpus_recall_reported(capsys):
    """Jittered/dropped duplicates: measure and report, don't assert recall.

    A perturbed copy may land in a different cluster (cross-key leakage)
    or score under the threshold; both are measured here against ground
    truth. Only well-formedness is asserted.
    """
    signatures, truth = generate(
        GenSpec(subjects=400, dup_fraction=0.05, minutiae_per_print=(20, 35),
                jitter=2.0, drop_prob=0.05, seed=606)
    )
    table, store = _table_and_store(signatures)
    report = deduplicate(table, store, PARAMS)
    found = {frozenset(g) for g in report.duplicate_groups()}
    expected = {frozenset(p) for p in truth}
    key_of = {s.record_id: compute_index(s).key_text for s in signatures}
    cross_key = sum(1 for dup, src in truth if key_of[dup] != key_of[src])

    recall = len(found & expected) / len(expected)
    precision = len(found & expected) / len(found) if found else 1.0
    with capsys.disabled():
        print(f"\n[perturbed dedup] jitter=2px drop=5%: recall {recall:.2%}, "
              f"precision {precision:.2%}, cross-key leakage {cross_key}/{len(truth)} "
              f"(cross-key pairs are invisible to the sweep by design)")
    assert 0.0 <= recall <= 1.0 and 0.0 <= precision <= 1.0
    # the partition property holds regardless of perturbation
    assert report.total_records() == table.size


# ---------------------------------------------------------------------------
# Exhaustive oracle


def test_oracle_two_identical():
    a = make_signature("A", [(10, 10), (40, 20), (25, 45)])
    b = Signature("B", list(a.minutiae))
    groups = exhaustive_dedup({"A": a, "B": b}, PARAMS)
    assert groups == [["A", "B"]]


def test_oracle_pair_plus_singleton():
    a = make_signature("A", [(10, 10), (40, 20), (25, 45)])
    b = Signature("B", list(a.minutiae))
    c = make_signature("C", [(0, 0), (90, 0), (0, 90), (45, 45)])
    groups = exhaustive_dedup({"A": a, "B": b, "C": c}, PARAMS)
    assert sorted(map(sorted, groups)) == [["A", "B"], ["C"]]


def test_oracle_indexes_the_corpus_once(monkeypatch):
    """One scorer index over every record; each head is scored against the later ones."""
    signatures, _ = generate(GenSpec(subjects=12, dup_fraction=0.25, seed=44))
    store = {s.record_id: s for s in signatures}
    expected = _match_components(store, PARAMS)
    indexed, built = [], []

    def counting_scorer(members, p):
        indexed.append(len(members))
        return bucket_scorer(members, p)

    class Counting(_CellGrid):
        def __init__(self, fbs, p):
            built.append(len(fbs))
            super().__init__(fbs, p)

    monkeypatch.setattr(dedup_module, "bucket_scorer", counting_scorer)
    monkeypatch.setattr(matcher_module, "_CellGrid", Counting)
    assert exhaustive_dedup(store, PARAMS) == expected
    assert indexed == [len(store)]
    assert built == [len(store)]


def test_oracle_cap_refused():
    a = make_signature("A", [(10, 10), (40, 20), (25, 45)])
    store = {f"r{i}": a for i in range(11)}
    with pytest.raises(OracleCapExceededError, match="cap of 10"):
        exhaustive_dedup(store, PARAMS, cap=10)


# ---------------------------------------------------------------------------
# comparison_count and report format


def test_comparison_count_singletons():
    table = build_table([(f"r{i}", f"k{i}") for i in range(50)])
    assert comparison_count(table) == 0


def test_comparison_count_one_pair_bucket():
    table = build_table([("A", "k"), ("B", "k")])
    assert comparison_count(table) == 1


def test_comparison_count_many_pair_buckets():
    # 50,000 two-member classes cost exactly one comparison each
    table = build_table((f"r{i}", f"k{i // 2}") for i in range(100_000))
    assert comparison_count(table) == 50_000


def test_report_total_records(planted_corpus):
    table, store, _ = planted_corpus
    report = deduplicate(table, store, PARAMS)
    assert report.total_records() == table.size


def test_report_format_and_save(tmp_path):
    report = DuplicateReport({"1-0": [["A", "B"], ["C"]], "2-2": [["D"]]}, comparisons=2)
    rendered = format_report(report, wall_seconds=0.5)
    lines = rendered.splitlines()
    assert lines[0] == "fpdedup-dedup-report v1"
    assert "1-0\tA\tA,B" in lines
    assert "1-0\tC\tC" in lines
    assert "2-2\tD\tD" in lines
    assert lines[-1].startswith("# summary: n=4 buckets=2 duplicate_groups=1 comparisons=2")
    (tmp_path / "report.tsv").write_text(format_report(report))
    assert (tmp_path / "report.tsv").read_text().splitlines()[0] == "fpdedup-dedup-report v1"
