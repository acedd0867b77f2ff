"""Full-database duplicate detection via the in-cluster sweep.

Buckets never interact: a record is only ever compared with records
sharing its index key, so total work is the sum of per-bucket pair
counts instead of n^2. Within a bucket the sweep repeatedly pops the
head record, opens a group with it, and moves every remaining member it
matches into that group. Groups are exactly the sweep's output; they
are not transitively closed any further. The engine only reports
duplicates, it never deletes anything.

The sweep decides pairs rather than scoring them: a bound on each
pair's paired-triplet count rules most non-matching pairs out before
any is scored (``matcher.bucket_screen``), and only the rest are
scored. A pair the bound decides still counts as a comparison, so
groups and comparison counts are those of scoring every pair.

An exhaustive all-pairs oracle (connected components of the match
graph) is included for equivalence testing on small corpora. It scores
every pair exactly, so it checks the bound as well as the sweep.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import combinations

from .cluster import ClusterTable
from .matcher import (MatchParams, TripletIndex, bucket_scorer, bucket_screen, index_signatures,
                      is_match)
from .signature import Signature, _resolve

REPORT_FORMAT_HEADER = "fpdedup-dedup-report v1"
ORACLE_CAP = 5000  # default record cap of the exhaustive oracle


class OracleCapExceededError(RuntimeError):
    """The exhaustive oracle refused a corpus larger than its cap."""


@dataclass
class DuplicateReport:
    """Groups of mutually matching record ids, per index key.

    Within one key the groups partition the bucket; singleton buckets
    become single one-member groups. Each group lists its members in
    sweep order, head (the representative) first. A group of size >= 2
    means duplicates were detected.
    """

    groups_by_key: dict[str, list[list[str]]] = field(default_factory=dict)
    comparisons: int = 0

    def total_records(self) -> int:
        return sum(len(g) for groups in self.groups_by_key.values() for g in groups)

    def duplicate_groups(self) -> list[list[str]]:
        return [g for groups in self.groups_by_key.values() for g in groups if len(g) >= 2]

    def duplicate_count(self) -> int:
        """Records over and above one representative per duplicate group."""
        return sum(len(g) - 1 for g in self.duplicate_groups())


# Prints prepared per call by the sweep: enough that the many two-print
# buckets of a real table fill stacks of one minutiae count, few enough
# that the window's features stay a few megabytes.
WINDOW_PRINTS = 256


def _sweep_bucket(bucket: list[str],
                  prepared: Mapping[str, TripletIndex],
                  params: MatchParams) -> tuple[list[list[str]], int]:
    """Sweep one bucket into groups; returns (groups, comparisons).

    The bucket's members are indexed and screened once; each head is
    then decided against its whole remaining worklist in one call. The
    screen rules pairs out by a bound alone, and only the pairs it
    leaves are scored. Every pair of head and worklist member counts as
    a comparison, scored or ruled out.
    """
    members = [prepared[rid] for rid in bucket]
    compare = bucket_scorer(members, params)
    undecided = bucket_screen(members, params)
    groups: list[list[str]] = []
    comparisons = 0
    worklist = list(range(len(bucket)))
    while worklist:
        head = worklist.pop(0)
        group = [head]
        remaining: list[int] = []
        scored = undecided(members[head], worklist)
        matched = {other for other, result in zip(scored, compare(members[head], scored))
                   if is_match(result, params)}
        comparisons += len(worklist)
        for other in worklist:
            (group if other in matched else remaining).append(other)
        worklist = remaining
        groups.append([bucket[i] for i in group])
    return groups, comparisons


def _windows(buckets: Mapping[str, list[str]]) -> Iterator[list[tuple[str, list[str]]]]:
    """Runs of consecutive multi-member buckets, in table order.

    A window closes with the bucket that brings it to ``WINDOW_PRINTS``
    prints or more, so it holds fewer than ``WINDOW_PRINTS`` prints
    besides that last bucket, however large the table. The last window
    holds what is left.
    """
    window: list[tuple[str, list[str]]] = []
    held = 0
    for key, bucket in buckets.items():
        if len(bucket) > 1:
            window.append((key, bucket))
            held += len(bucket)
            if held >= WINDOW_PRINTS:
                yield window
                window, held = [], 0
    if window:
        yield window


def deduplicate(table: ClusterTable,
                store: Mapping[str, Signature],
                params: MatchParams = MatchParams()) -> DuplicateReport:
    """Run the duplicate sweep over every bucket of a loaded table.

    Buckets of size <= 1 are recorded as singleton groups without any
    comparison. The others are resolved and prepared a window of
    buckets at a time (see ``_windows``), then swept one after another;
    the report keeps table order.
    """
    report = DuplicateReport()
    for key, bucket in table.buckets.items():
        # Every key in table order; a swept bucket's groups replace its entry below.
        report.groups_by_key[key] = [list(bucket)]
    for window in _windows(table.buckets):
        ids = [rid for _, bucket in window for rid in bucket]
        prepared = dict(zip(ids, index_signatures([_resolve(store, rid) for rid in ids], params)))
        for key, bucket in window:
            groups, comparisons = _sweep_bucket(bucket, prepared, params)
            report.groups_by_key[key] = groups
            report.comparisons += comparisons
    return report


def comparison_count(table: ClusterTable) -> int:
    """Upper bound on sweep comparisons: sum of c*(c-1)/2 over buckets."""
    return sum(c * (c - 1) // 2 for c in map(len, table.buckets.values()))


def pair_relation(groups: Iterable[Sequence[str]]) -> set[frozenset[str]]:
    """Every unordered pair of record ids that share a group.

    ``pair_relation(table.buckets.values())`` is the set of shared-key
    pairs, the only pairs on which the sweep and the oracle can be
    compared.
    """
    return {frozenset(pair) for group in groups for pair in combinations(group, 2)}


# ---------------------------------------------------------------------------
# Exhaustive oracle


def exhaustive_dedup(store: Mapping[str, Signature],
                     params: MatchParams = MatchParams(),
                     cap: int = ORACLE_CAP) -> list[list[str]]:
    """All-pairs grouping: connected components of the match graph.

    Scores every one of the n*(n-1)/2 pairs, so it is only usable as a
    ground-truth oracle on small corpora; corpora above ``cap`` records
    are refused. Groups and their members come back in first-seen order.
    """
    ids = list(store)
    n = len(ids)
    if n > cap:
        raise OracleCapExceededError(
            f"corpus has {n} records, above the exhaustive-oracle cap of {cap}"
        )

    prepared = index_signatures([_resolve(store, rid) for rid in ids], params)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    compare = bucket_scorer(prepared, params)
    for i in range(n - 1):
        results = compare(prepared[i], range(i + 1, n))
        for j, result in enumerate(results, start=i + 1):
            if is_match(result, params):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    members: dict[int, list[str]] = {}
    for i in range(n):
        members.setdefault(find(i), []).append(ids[i])
    return [members[root] for root in sorted(members)]


# ---------------------------------------------------------------------------
# Report persistence


def format_report(report: DuplicateReport, wall_seconds: float = 0.0) -> str:
    """Render ``key<TAB>rep_id<TAB>member1,member2,...`` lines plus a summary."""
    lines = [REPORT_FORMAT_HEADER]
    buckets = 0
    for key, groups in report.groups_by_key.items():
        buckets += 1
        for group in groups:
            lines.append(f"{key}\t{group[0]}\t{','.join(group)}")
    lines.append(
        "# summary: n=%d buckets=%d duplicate_groups=%d comparisons=%d wall_s=%.4f"
        % (report.total_records(), buckets, len(report.duplicate_groups()),
           report.comparisons, wall_seconds)
    )
    return "\n".join(lines) + "\n"

