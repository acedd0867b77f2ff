"""Identification: bucket-only comparisons, penetration, oracle equivalence."""

from __future__ import annotations

import importlib

import pytest

from fpdedup.cluster import build_table
from fpdedup.grid import GridParams, compute_index
from fpdedup.identify import identify
from fpdedup.matcher import MatchParams, bucket_scorer, index_signatures, is_match, match_score
from fpdedup.signature import Signature
from fpdedup.synth import GenSpec, generate

from .conftest import translate

PARAMS = MatchParams()
GRID = GridParams()
# The module, which the package's ``identify`` function shadows as ``fpdedup.identify``.
identify_module = importlib.import_module("fpdedup.identify")


@pytest.fixture(scope="module")
def small_corpus():
    signatures, truth = generate(
        GenSpec(subjects=150, dup_fraction=0.1, minutiae_per_print=(20, 40), seed=77)
    )
    store = {s.record_id: s for s in signatures}
    table = build_table((s.record_id, compute_index(s, GRID).key_text) for s in signatures)
    return table, store, signatures, truth


def test_absent_key_empty_result(small_corpus):
    table, store, signatures, _ = small_corpus
    # a single far-away minutia pair produces a key present nowhere
    query = Signature("q", [signatures[0].minutiae[0]])
    result = identify(query, table, store, GRID, PARAMS)
    assert result.candidates == []
    assert result.matches == []
    assert result.penetration == 0.0


def test_miss_builds_no_query_features(small_corpus, monkeypatch):
    table, store, signatures, _ = small_corpus
    calls = []

    def counting_index(batch, p):
        calls.extend(s.record_id for s in batch)
        return index_signatures(batch, p)

    monkeypatch.setattr(identify_module, "index_signatures", counting_index)
    result = identify(Signature("q", [signatures[0].minutiae[0]]), table, store, GRID, PARAMS)
    assert result.candidates == [] and result.penetration == 0.0
    assert calls == []
    identify(signatures[0], table, store, GRID, PARAMS)
    assert calls[0] == signatures[0].record_id


def test_enrolled_query_matches_itself(small_corpus):
    table, store, signatures, _ = small_corpus
    enrolled = signatures[3]
    query = Signature("query", list(enrolled.minutiae))
    result = identify(query, table, store, GRID, PARAMS)
    assert (enrolled.record_id, 100.0) in result.matches
    assert result.matches[0][1] == 100.0


def test_translated_duplicate_found(small_corpus):
    table, store, signatures, _ = small_corpus
    query = translate(signatures[10], 25, 14, "query")
    result = identify(query, table, store, GRID, PARAMS)
    assert (signatures[10].record_id, 100.0) in result.matches


def test_comparisons_equal_bucket_size(small_corpus, monkeypatch):
    table, store, signatures, _ = small_corpus
    scored = []

    def counting_scorer(members, p):
        score = bucket_scorer(members, p)
        return lambda a, alive: scored.extend(members[j] for j in alive) or score(a, alive)

    monkeypatch.setattr(identify_module, "bucket_scorer", counting_scorer)
    for s in signatures[:20]:
        scored.clear()
        query = Signature("query", list(s.minutiae))
        bucket = table.lookup(compute_index(query, GRID))
        result = identify(query, table, store, GRID, PARAMS)
        assert [m.signature.record_id for m in scored] == bucket
        assert len(scored) < table.size
        assert len(result.candidates) == len(bucket)


def test_penetration_exact(small_corpus):
    table, store, signatures, _ = small_corpus
    for s in signatures[:20]:
        query = Signature("query", list(s.minutiae))
        bucket = table.lookup(compute_index(query, GRID))
        result = identify(query, table, store, GRID, PARAMS)
        assert result.penetration == len(bucket) / table.size


def test_equals_bruteforce_restricted_to_bucket(small_corpus):
    table, store, signatures, _ = small_corpus
    for s in signatures[:12]:
        query = Signature("query", list(s.minutiae))
        result = identify(query, table, store, GRID, PARAMS)
        # brute force over the whole table, then intersect with the bucket
        bucket = set(table.lookup(compute_index(query, GRID)))
        brute = {
            rid for rid, sig in store.items()
            if is_match(match_score(query, sig, PARAMS), PARAMS)
        }
        assert {rid for rid, _ in result.matches} == brute & bucket


def test_candidates_sorted_desc_then_id(small_corpus):
    table, store, signatures, _ = small_corpus
    for s in signatures[:10]:
        result = identify(Signature("query", list(s.minutiae)), table, store, GRID, PARAMS)
        ordering = [(-score, rid) for rid, score in result.candidates]
        assert ordering == sorted(ordering)


def test_empty_query_errors():
    # no empty query can be built, so identify never sees one
    with pytest.raises(ValueError, match="'q' has no minutiae"):
        Signature("q", [])


def test_unresolvable_bucket_member_errors(small_corpus):
    table, _, signatures, _ = small_corpus
    incomplete = {}  # resolves nothing
    query = Signature("query", list(signatures[0].minutiae))
    with pytest.raises(KeyError, match="not in the signature store"):
        identify(query, table, incomplete, GRID, PARAMS)
