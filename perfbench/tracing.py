"""In-memory spans around the library's public calls, and the replays that record them.

A replay re-runs one identification or one duplicate sweep through the
same chain of public functions the library call uses internally
(``compute_index`` -> ``ClusterTable.lookup`` -> ``store[rid]`` ->
``index_signature`` -> ``score_indexed`` -> ``is_match``), with a span
around each call. Its result must equal the untraced call's result
exactly; a layer's self time is what the untraced call took minus the
replayed child spans.
"""

from __future__ import annotations

import json
import time
from array import array
from collections.abc import Callable, Mapping
from pathlib import Path

from fpdedup.cluster import ClusterTable
from fpdedup.dedup import DuplicateReport
from fpdedup.grid import GridParams, compute_index
from fpdedup.identify import IdentificationResult
from fpdedup.matcher import MatchParams, index_signature, is_match, score_indexed
from fpdedup.signature import Signature

from .speed import SpeedProbe

# Span names, one per layer boundary the replays cross.
PARSE = "signature.parse"
SERIALIZE = "signature.serialize"
KEY = "grid.key"
BUILD = "cluster.build"
SAVE = "cluster.save"
LOAD = "cluster.load"
LOOKUP = "cluster.lookup"
FEATURES = "matcher.features"
SCORE = "matcher.score"
GATE = "matcher.is_match"
BUCKET = "dedup.bucket"


class Tracer:
    """Spans kept in memory: name, start, end, parent span and request id.

    Span ids are positions in the parallel arrays; the parent is the span
    open when the call started, -1 at top level. ``request`` groups the
    spans of one operation (one query, one bucket, one ingest pass). Plain
    arrays rather than a tuple per span keep tracing from feeding the
    garbage collector, which would otherwise run inside the timed calls.

    With a speed probe, the probe ticks before each call, the time it takes
    inside a span is left out of the span, and ``totals`` rescales every
    span by the machine speed around it, as the end-to-end times are.
    """

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.excluded = array("d")  # speed-probe time inside the span
        self.parents = array("q")
        self.requests = array("q")
        self.counts: dict[str, float] = {}
        self.request = -1
        self.probe = probe
        self._open: list[int] = []
        self._durations: list[float] = []

    def __len__(self) -> int:
        return len(self.names)

    def add(self, name: str, value: float) -> None:
        """Accumulate a count recorded at a layer boundary."""
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, name: str, fn: Callable, *args):
        probe = self.probe
        if probe is not None:
            probe.tick()
        span_id = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self.excluded.append(0.0)
        self._open.append(span_id)
        spent = probe.spent_s if probe is not None else 0.0
        start = time.perf_counter()
        self.starts.append(start)
        try:
            return fn(*args)
        finally:
            self.ends[span_id] = time.perf_counter()
            if probe is not None:
                self.excluded[span_id] = probe.spent_s - spent
            self._open.pop()

    def duration(self, span_id: int) -> float:
        """The span's time less probe time, rescaled when there is a probe."""
        start, end = self.starts[span_id], self.ends[span_id]
        seconds = end - start - self.excluded[span_id]
        return seconds * self.probe.factor(start, end) if self.probe is not None else seconds

    def totals(self, since: int = 0) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds), over spans from ``since`` on."""
        if len(self._durations) != len(self):
            self._durations = [self.duration(span_id) for span_id in range(len(self))]
        durations = self._durations
        child_time = [0.0] * len(self)
        for span_id, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[span_id]
        out: dict[str, tuple[int, float, float]] = {}
        for span_id in range(since, len(self)):
            name = self.names[span_id]
            calls, total, self_time = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + durations[span_id],
                         self_time + durations[span_id] - child_time[span_id])
        return out

    def write(self, path: Path) -> None:
        """One JSON array per line: [id, parent, request, name, start_us, end_us, probe_us]."""
        origin = self.starts[0] if len(self) else 0.0
        with path.open("w") as out:
            for span_id, name in enumerate(self.names):
                out.write(json.dumps([span_id, self.parents[span_id], self.requests[span_id], name,
                                      round((self.starts[span_id] - origin) * 1e6, 3),
                                      round((self.ends[span_id] - origin) * 1e6, 3),
                                      round(self.excluded[span_id] * 1e6, 3)]) + "\n")


def _features(tracer: Tracer, s: Signature, params: MatchParams):
    index = tracer.call(FEATURES, index_signature, s, params)
    tracer.add("matcher.triplets", index.features.shape[0])
    return index


def _gate(tracer: Tracer, result, params: MatchParams) -> bool:
    matched = tracer.call(GATE, is_match, result, params)
    tracer.add("matcher.matches", matched)
    return matched


def replay_identify(tracer: Tracer, query: Signature, table: ClusterTable,
                    store: Mapping[str, Signature], grid: GridParams = GridParams(),
                    params: MatchParams = MatchParams()) -> IdentificationResult:
    """``identify(query, table, store, grid, params)`` one public call at a time."""
    call = tracer.call
    key = call(KEY, compute_index, query, grid)
    bucket = call(LOOKUP, table.lookup, key)
    query_index = _features(tracer, query, params)
    scored = []
    for record_id in bucket:
        candidate = call(PARSE, store.__getitem__, record_id)
        result = call(SCORE, score_indexed, query_index,
                      _features(tracer, candidate, params), params)
        scored.append((record_id, result.score, _gate(tracer, result, params)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return IdentificationResult(
        key.key_text,
        [(rid, score) for rid, score, _ in scored],
        [(rid, score) for rid, score, matched in scored if matched],
        len(bucket) / table.size if table.size else 0.0,
    )


def _replay_sweep(tracer: Tracer, bucket: list[str], store: Mapping[str, Signature],
                  params: MatchParams) -> tuple[list[list[str]], int]:
    indexes = {rid: _features(tracer, tracer.call(PARSE, store.__getitem__, rid), params)
               for rid in bucket}
    groups: list[list[str]] = []
    comparisons = 0
    worklist = list(bucket)
    while worklist:
        head = worklist.pop(0)
        group = [head]
        remaining = []
        for other in worklist:
            comparisons += 1
            result = tracer.call(SCORE, score_indexed, indexes[head], indexes[other], params)
            (group if _gate(tracer, result, params) else remaining).append(other)
        worklist = remaining
        groups.append(group)
    return groups, comparisons


def replay_deduplicate(tracer: Tracer, table: ClusterTable, store: Mapping[str, Signature],
                       params: MatchParams = MatchParams()) -> DuplicateReport:
    """``deduplicate(table, store, params)`` with one span per bucket sweep."""
    report = DuplicateReport()
    for request, (key, bucket) in enumerate(table.buckets.items()):
        if len(bucket) <= 1:
            report.groups_by_key[key] = [list(bucket)]
            continue
        tracer.request = request
        groups, comparisons = tracer.call(BUCKET, _replay_sweep, tracer, bucket, store, params)
        report.groups_by_key[key] = groups
        report.comparisons += comparisons
    return report
