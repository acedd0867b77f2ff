"""The three workloads: set-up, the untraced measured loop, correctness checks, replay.

Each ``run_*`` function generates its inputs (untimed), sets up several
times (timed, the last set-up is kept), releases the inputs the measured
phase does not need, then runs operations for at least ``seconds`` of
measured time. With a tracer, every operation is followed by its traced
replay, which must reproduce the untraced result exactly. Times are kept
raw while the run goes and rescaled by the speed probe after it, so that
every time sees the probe's samples on both sides of it.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from fpdedup.cluster import ClusterTable, build_table, load_table, save_table
from fpdedup.dedup import DuplicateReport, comparison_count, deduplicate
from fpdedup.grid import compute_index
from fpdedup.identify import identify
from fpdedup.matcher import MatchParams
from fpdedup.signature import (SerializedStore, Signature, parse_signature,
                               serialize_signature)
from fpdedup.synth import GenSpec, SplitMix64, _perturbed_copy, derive_seed, generate

from . import corpora
from .speed import SampledParams, SpeedProbe
from .tracing import (BUCKET, BUILD, FEATURES, GATE, KEY, LOAD, LOOKUP, PARSE, SAVE,
                      SCORE, SERIALIZE, Tracer, replay_deduplicate, replay_identify)

GRID = corpora.GRID
PARAMS = MatchParams()
SETUP_REPS = 3
MIN_PASSES = 5
MIN_QUERIES = 1000
JITTER_EVERY = 5       # every fifth identify query is a jittered copy: 20%
JITTER_PX = 1.0
# Query copies: translated by up to GenSpec.global_offset px, with or without jitter.
EXACT_COPY = GenSpec(0)
JITTERED_COPY = GenSpec(0, jitter=JITTER_PX)

# Golden key of the worked-example signature shipped with the tests.
REFERENCE_SIGNATURE = Path(__file__).resolve().parent.parent / "tests/data/reference_signature.sig"
REFERENCE_KEY = "1-1-1-1-0-1-4-2-2-0-2-1-2-0-0-1-0-0-1-1-1-0-1-0-0"


Timing = tuple[float, float, float]  # (start, end, speed-probe seconds inside), raw


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setups: list[Timing] = field(default_factory=list)
    ops: list[tuple[Timing, int]] = field(default_factory=list)  # (timing, records done)
    replays: list[Timing] = field(default_factory=list)          # traced replays of the ops
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    replay_mismatches: int = 0
    measured_s: float = 0.0     # raw time of the operations, probe time left out
    layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def timed(self, fn: Callable, *args, collect: bool = True):
        """``fn(*args)`` and its raw timing; the probe ticks after it."""
        if collect:
            gc.collect()
        spent = self.probe.spent_s
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        timing = (start, end, self.probe.spent_s - spent)
        self.probe.tick()
        return out, timing

    def record(self, timing: Timing, records: int) -> None:
        self.ops.append((timing, records))
        self.measured_s += raw_seconds(timing)

    def scaled(self, timing: Timing) -> float:
        """The timing's seconds, probe time left out, rescaled by the probe."""
        return raw_seconds(timing) * self.probe.factor(timing[0], timing[1])

    def scaled_ops(self) -> list[tuple[float, int]]:
        """(rescaled seconds, records) per operation; call once the run is over."""
        return [(self.scaled(timing), records) for timing, records in self.ops]


def raw_seconds(timing: Timing) -> float:
    start, end, excluded = timing
    return end - start - excluded


def _set_up(outcome: Outcome, setup: Callable, inputs, tracer: Tracer | None):
    """Run ``setup(inputs, call)`` SETUP_REPS times untraced, or once under the tracer.

    The generated inputs, and after set-up everything else alive, are moved
    out of the collector's reach, so that collections during set-up and
    measured operations do not traverse the benchmark's own objects.
    """
    gc.collect()
    gc.freeze()
    if tracer is not None:
        state = setup(inputs, tracer.call)
    else:
        for _ in range(SETUP_REPS):
            state = None  # else the last state stays alive through the next set-up
            state, timing = outcome.timed(setup, inputs, outcome.probe.call)
            outcome.setups.append(timing)
    gc.collect()
    gc.freeze()
    return state


def _store_and_table(signatures: list[Signature], call) -> tuple[ClusterTable, SerializedStore]:
    store = SerializedStore()
    for s in signatures:
        call(SERIALIZE, store.add, s)
    entries = [(s.record_id, call(KEY, compute_index, s, GRID).key_text) for s in signatures]
    return call(BUILD, build_table, entries), store


def _table_shape(outcome: Outcome, table: ClusterTable) -> None:
    outcome.layer["cluster.buckets"] = len(table.buckets)
    outcome.layer["cluster.max_bucket"] = table.max_bucket_size()
    outcome.layer["cluster.mean_occupancy"] = table.size / len(table.buckets)


# ---------------------------------------------------------------------------
# ingest: signature text -> parse -> key -> build -> save -> load


def _ingest_pass(texts: list[tuple[str, str]], path: Path,
                 call) -> tuple[ClusterTable, ClusterTable]:
    parsed = [call(PARSE, parse_signature, text, rid) for rid, text in texts]
    entries = [(s.record_id, call(KEY, compute_index, s, GRID).key_text) for s in parsed]
    table = call(BUILD, build_table, entries)
    call(SAVE, save_table, table, path)
    return table, call(LOAD, load_table, path)


def _to_texts(signatures: list[Signature], call) -> list[tuple[str, str]]:
    return [(s.record_id, call(SERIALIZE, serialize_signature, s)) for s in signatures]


def run_ingest(seed: int, seconds: float, workdir: Path, trace: bool = False,
               records: int = 20_000) -> Outcome:
    outcome = Outcome()
    tracer = outcome.tracer = Tracer(outcome.probe) if trace else None
    signatures, _ = generate(GenSpec(records, seed=derive_seed(seed, 10)))
    texts = _set_up(outcome, _to_texts, signatures, tracer)
    del signatures  # the passes read only the texts

    golden = compute_index(parse_signature(REFERENCE_SIGNATURE.read_text(), "reference"), GRID)
    outcome.attempted += 1
    if golden.key_text != REFERENCE_KEY:
        outcome.failed += 1
        outcome.notes.append(f"golden key mismatch: {golden.key_text}")

    path = workdir / "table.txt"
    since = len(tracer) if tracer else 0
    table = None
    while len(outcome.ops) < MIN_PASSES or outcome.measured_s < seconds:
        (table, loaded), timing = outcome.timed(_ingest_pass, texts, path, outcome.probe.call)
        outcome.record(timing, len(texts))
        outcome.attempted += len(texts)
        if loaded != table or table.size != len(texts):
            outcome.failed += len(texts)
        if tracer is not None:
            tracer.request = len(outcome.ops)
            (replayed, _), timing = outcome.timed(_ingest_pass, texts, path, tracer.call)
            outcome.replays.append(timing)
            outcome.replay_mismatches += replayed != table
    _table_shape(outcome, table)
    outcome.layer["cluster.table_bytes"] = path.stat().st_size
    outcome.notes.append(f"ingest: {len(texts)} records per pass, {len(outcome.ops)} passes")
    if tracer is not None:
        _layer_times(outcome, tracer, since, self_name=None)
    return outcome


# ---------------------------------------------------------------------------
# identify: closed loop, one client, every query a copy of a distinct record


def run_identify(seed: int, seconds: float, workdir: Path, trace: bool = False,
                 records: int = 10_000, min_queries: int = MIN_QUERIES) -> Outcome:
    outcome = Outcome()
    tracer = outcome.tracer = Tracer(outcome.probe) if trace else None
    # The signatures stay alive through the run: they are the query sources.
    signatures, _ = generate(GenSpec(records, seed=derive_seed(seed, 20)))
    table, store = _set_up(outcome, _store_and_table, signatures, tracer)

    rng = SplitMix64(derive_seed(seed, 21))
    order = rng.sample(records, records)  # without replacement: no record is queried twice
    since = len(tracer) if tracer else 0
    jittered = recalled = candidates = 0
    penetration_max = 0.0
    for i, source_index in enumerate(order):
        if len(outcome.ops) >= min_queries and outcome.measured_s >= seconds:
            break
        source = signatures[source_index]
        jitter = i % JITTER_EVERY == JITTER_EVERY - 1
        query = _perturbed_copy(rng, JITTERED_COPY if jitter else EXACT_COPY, source,
                                f"Q{i:05d}")
        # No gc.collect() per query: a full collection would dwarf a miss.
        result, timing = outcome.timed(identify, query, table, store, GRID, PARAMS,
                                       collect=False)
        outcome.record(timing, 1)
        outcome.attempted += 1
        candidates += len(result.candidates)
        penetration_max = max(penetration_max, result.penetration)
        if jitter:
            jittered += 1
            recalled += any(rid == source.record_id for rid, _ in result.matches)
        elif not result.candidates or result.candidates[0] != (source.record_id, 100.0):
            outcome.failed += 1
        if tracer is not None:
            tracer.request = i
            replayed, timing = outcome.timed(replay_identify, tracer, query, table, store,
                                             GRID, PARAMS, collect=False)
            outcome.replays.append(timing)
            outcome.replay_mismatches += replayed != result
    queries = len(outcome.ops)
    _table_shape(outcome, table)
    outcome.layer["identify.candidates_mean"] = candidates / queries
    outcome.layer["identify.penetration_max"] = penetration_max
    outcome.layer["identify.recall"] = recalled / jittered if jittered else 0.0
    outcome.notes.append(f"identify: {records} enrolled, {queries} queries, "
                         f"{jittered} jittered ({JITTER_PX:g} px), recall {recalled}/{jittered}")
    if tracer is not None:
        self_s = _layer_times(outcome, tracer, since, self_name="identify")
        outcome.layer["identify.self_ms"] = self_s / queries * 1e3
    return outcome


# ---------------------------------------------------------------------------
# dedup-skewed: batch sweep over uniform singletons, planted pairs and families


def expected_comparisons(report: DuplicateReport) -> int:
    """Comparisons the head-popping sweep must make to produce these groups."""
    total = 0
    for groups in report.groups_by_key.values():
        remaining = sum(map(len, groups))
        if remaining < 2:
            continue
        for group in groups:
            total += remaining - 1
            remaining -= len(group)
    return total


def dedup_violations(report: DuplicateReport, truth: corpora.SkewedTruth) -> list[str]:
    """Planted pairs not grouped, family siblings grouped, miscounted comparisons."""
    group_of = {}
    for key, groups in report.groups_by_key.items():
        for g, group in enumerate(groups):
            for rid in group:
                group_of[rid] = (key, g)
    problems = [f"planted {dup} not grouped with {src}" for dup, src in truth.planted
                if group_of[dup] != group_of[src]]
    for family in truth.families:
        seen = {group_of[rid] for rid in family}
        if len(seen) != len(family):
            problems.append(f"family {family[0][:3]}: {len(family) - len(seen)} siblings grouped")
    if report.comparisons != expected_comparisons(report):
        problems.append(f"comparisons {report.comparisons} != {expected_comparisons(report)}")
    return problems


def run_dedup(seed: int, seconds: float, workdir: Path, trace: bool = False,
              singletons: int = 10_000,
              family_sizes: tuple[int, ...] = corpora.FAMILY_SIZES) -> Outcome:
    outcome = Outcome()
    tracer = outcome.tracer = Tracer(outcome.probe) if trace else None
    signatures, truth = corpora.skewed_corpus(singletons, derive_seed(seed, 30),
                                              family_sizes=family_sizes)
    table, store = _set_up(outcome, _store_and_table, signatures, tracer)
    del signatures  # the sweep reads the store

    since = len(tracer) if tracer else 0
    sampled = SampledParams(outcome.probe)
    report = None
    while len(outcome.ops) < MIN_PASSES or outcome.measured_s < seconds:
        report, timing = outcome.timed(deduplicate, table, store, sampled)
        outcome.record(timing, table.size)
        outcome.attempted += table.size
        problems = dedup_violations(report, truth)
        outcome.failed += len(problems)
        outcome.notes.extend(problems[:5])
        if tracer is not None:
            replayed, timing = outcome.timed(replay_deduplicate, tracer, table, store, PARAMS)
            outcome.replays.append(timing)
            outcome.replay_mismatches += (replayed.groups_by_key != report.groups_by_key
                                          or replayed.comparisons != report.comparisons)
    _table_shape(outcome, table)
    outcome.layer["dedup.comparisons"] = report.comparisons
    outcome.layer["dedup.comparisons_bound"] = comparison_count(table)
    outcome.layer["dedup.duplicate_groups"] = len(report.duplicate_groups())
    outcome.layer["dedup.sweep_s"] = statistics.mean(t for t, _ in outcome.scaled_ops())
    outcome.notes.append(f"dedup-skewed: {table.size} records, {len(truth.planted)} planted "
                         f"pairs, families {list(family_sizes)}")
    outcome.notes.append("bucket-size histogram (size: buckets): "
                         + ", ".join(f"{size}: {count}" for size, count in truth.histogram.items()))
    if tracer is not None:
        self_s = _layer_times(outcome, tracer, since, self_name="dedup")
        outcome.layer["dedup.self_s"] = self_s / len(outcome.ops)
    return outcome


# ---------------------------------------------------------------------------
# per-layer numbers from the spans


def _layer_times(outcome: Outcome, tracer: Tracer, since: int, self_name: str | None) -> float:
    """Fill per-layer means, counts and self-time shares; return the rest (self) time.

    Per-call means cover every span, set-up included. Counts are calls per
    operation (one pass or one query) of the measured phase, so they do not
    grow with the number of operations a run has time for. Shares and self
    time cover the measured phase, as parts of its untraced total.
    """
    every = tracer.totals()
    measured = tracer.totals(since)
    ops = len(outcome.ops)

    def per_op(name: str) -> float:
        return measured.get(name, (0, 0.0, 0.0))[0] / ops

    def mean(name: str, scale: float) -> float:
        count, total, _ = every.get(name, (0, 0.0, 0.0))
        return total / count * scale if count else 0.0

    def spent(*names: str) -> float:
        return sum(measured.get(name, (0, 0.0, 0.0))[1] for name in names)

    def ratio(count: str, calls: str) -> float:
        made = every.get(calls, (0, 0.0, 0.0))[0]
        return tracer.counts.get(count, 0) / made if made else 0.0

    layer = outcome.layer
    layer["signature.parse_us"] = mean(PARSE, 1e6)
    layer["signature.parse_calls"] = per_op(PARSE)
    layer["signature.serialize_us"] = mean(SERIALIZE, 1e6)
    layer["grid.key_us"] = mean(KEY, 1e6)
    layer["grid.key_calls"] = per_op(KEY)
    layer["cluster.build_s"] = mean(BUILD, 1.0)
    layer["cluster.save_s"] = mean(SAVE, 1.0)
    layer["cluster.load_s"] = mean(LOAD, 1.0)
    layer["cluster.lookup_us"] = mean(LOOKUP, 1e6)
    layer["matcher.features_us"] = mean(FEATURES, 1e6)
    layer["matcher.features_calls"] = per_op(FEATURES)
    layer["matcher.triplets_mean"] = ratio("matcher.triplets", FEATURES)
    layer["matcher.score_us"] = mean(SCORE, 1e6)
    layer["matcher.score_calls"] = per_op(SCORE)
    layer["matcher.match_ratio"] = ratio("matcher.matches", GATE)

    total = sum(seconds for seconds, _ in outcome.scaled_ops())
    parts = {
        "signature.share_pct": spent(PARSE, SERIALIZE),
        "grid.share_pct": spent(KEY),
        "cluster.share_pct": spent(BUILD, SAVE, LOAD, LOOKUP),
        "matcher.features_share_pct": spent(FEATURES),
        "matcher.score_share_pct": spent(SCORE, GATE),
    }
    self_s = total - sum(parts.values())
    for name, seconds in parts.items():
        layer[name] = 100.0 * seconds / total
    if self_name is not None:
        layer[f"{self_name}.self_share_pct"] = 100.0 * self_s / total
    layer["trace.overhead_s"] = sum(map(outcome.scaled, outcome.replays)) - total
    layer["trace.spans"] = (len(tracer) - since) / ops
    outcome.notes.append(f"untraced self time outside the library layers: {self_s:.4f} s "
                         f"({100.0 * self_s / total:.1f}%), bucket sweep spans: "
                         f"{measured.get(BUCKET, (0,))[0]}")
    return self_s
