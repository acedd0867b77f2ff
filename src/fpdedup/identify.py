"""Expected-O(1) identification of a query signature against a cluster table.

One identification computes the query's index key, fetches its bucket,
and scores the query against the bucket members only; the rest of the
database is never touched. The penetration of a query is the fraction
of the database forwarded to the matcher, i.e. bucket size over table
size.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .cluster import ClusterTable
from .grid import GridParams, compute_index
from .matcher import MatchParams, Matcher, _scorer, is_match
from .signature import Signature, _resolve


@dataclass
class IdentificationResult:
    """Scores for every bucket member, matches above threshold, penetration."""

    key_text: str
    candidates: list[tuple[str, float]]  # (record_id, score), best first
    matches: list[tuple[str, float]]
    penetration: float


def identify(query: Signature,
             table: ClusterTable,
             store: Mapping[str, Signature],
             grid: GridParams = GridParams(),
             params: MatchParams = MatchParams(),
             matcher: Matcher | None = None) -> IdentificationResult:
    """Identify a query against a loaded table.

    ``store`` must resolve every record id appearing in the table.
    Comparisons performed equal the bucket size exactly. Candidates come
    back sorted by descending score, ties broken by record id. Passing a
    ``matcher`` overrides the built-in triplet scorer.

    Raises:
        KeyError: a bucket member missing from the store (table and
            store disagree about the corpus).
    """
    key = compute_index(query, grid)
    bucket = table.lookup(key)
    if not bucket:
        return IdentificationResult(key.key_text, [], [], 0.0)

    prepare, index = _scorer(matcher)
    prepared_query, *members = prepare(
        [query] + [_resolve(store, record_id) for record_id in bucket], params)
    results = index(members, params)(prepared_query, range(len(members)))
    scored = [(record_id, result.score, result) for record_id, result in zip(bucket, results)]

    scored.sort(key=lambda item: (-item[1], item[0]))
    candidates = [(rid, score) for rid, score, _ in scored]
    matches = [(rid, score) for rid, score, result in scored if is_match(result, params)]
    penetration = len(bucket) / table.size
    return IdentificationResult(key.key_text, candidates, matches, penetration)

