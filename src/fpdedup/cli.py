"""Command-line pipeline: index, identify, dedup, oracle, stats, regress,
estimate, generate, bench.

Machine-readable output goes to stdout, diagnostics to stderr. Exit
codes: 0 success, 2 usage error, 3 data error, 4 oracle cap exceeded.
Parameter precedence is flags > config file (JSON via --config) >
built-in defaults; the defaults are those of GridParams, MatchParams
and the exhaustive oracle's cap, and are read from there.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from pathlib import Path

from .cluster import ClusterTable, build_table, load_table, save_table
from .dedup import (ORACLE_CAP, DuplicateReport, OracleCapExceededError, comparison_count,
                    exhaustive_dedup, format_report, pair_relation)
from .grid import GridParams, compute_index
from .identify import identify
from .matcher import MatchParams
from .signature import (FileStore, ParseError, Signature, _read_text, check_record_ids,
                        read_signature_file, write_corpus_dir)
from .stats import (REFERENCE_SIZE_AVG_PAIRS, TABLE_COLUMNS, CorpusStats, estimate_workload,
                    fit_regression, format_rate, predict_avg, scaling_run, sweep_stats)
from .synth import GenSpec, generate, write_ground_truth

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CAP = 4


@dataclass(frozen=True)
class RunConfig:
    """Engine parameters shared by the subcommands."""

    grid: GridParams
    match: MatchParams
    oracle_cap: int


# Config keys and their defaults: grid_n, every MatchParams field, oracle_cap.
_DEFAULTS = {"grid_n": GridParams().n, **asdict(MatchParams()), "oracle_cap": ORACLE_CAP}

_PARAM_FLAGS = [
    # (flag, config key, help); type and default come from _DEFAULTS
    ("--grid-n", "grid_n", "side of the square block matrix"),
    ("--min-edge", "min_edge", "minimum length between two minutiae in pixels"),
    ("--max-edge", "max_edge", "maximum length between two minutiae in pixels"),
    ("--neighbors", "neighbors_k", "number of closest neighbors per minutia"),
    ("--threshold", "score_threshold", "matching score threshold, inclusive"),
    ("--min-matched", "min_matched_descriptors", "minimum matched descriptors"),
    ("--side-tolerance", "side_tolerance", "per-side pairing tolerance in pixels"),
    ("--angle-tolerance", "angle_tolerance", "per-angle pairing tolerance in radians"),
    ("--oracle-cap", "oracle_cap", "record cap for the exhaustive oracle"),
]


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file; flags override its values")
    for flag, key, help_text in _PARAM_FLAGS:
        default = _DEFAULTS[key]
        parser.add_argument(flag, dest=key, type=type(default), default=None,
                            help=f"{help_text} (default {default:g})")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over defaults."""
    values = dict(_DEFAULTS)
    if getattr(args, "config", None) is not None:
        loaded = json.loads(_read_text(Path(args.config)))
        if not isinstance(loaded, dict):
            raise ParseError("config file must hold a JSON object")
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise ParseError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            # A float key also takes an int (JSON may write 15.0 as 15); bool is an int subclass.
            expected = type(_DEFAULTS[key])
            allowed = (int, float) if expected is float else int
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ParseError(
                    f"config key {key!r} must be {expected.__name__}, got {value!r}")
        values.update(loaded)
    for _flag, key, _help in _PARAM_FLAGS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    grid = GridParams(values.pop("grid_n"))
    oracle_cap = values.pop("oracle_cap")
    return RunConfig(grid, MatchParams(**values), oracle_cap)


def _corpus_store(args: argparse.Namespace) -> Mapping[str, Signature]:
    """The corpus as one lazy mapping over the --manifest or the --corpus directory."""
    if args.manifest is not None:
        return FileStore.from_manifest(args.manifest)
    return FileStore.from_directory(args.corpus)


def _count_and_example(ids: set[str]) -> str:
    return f"{len(ids)} (e.g. {min(ids)!r})" if ids else "0"


def _table(args: argparse.Namespace, cfg: RunConfig,
           store: Mapping[str, Signature]) -> ClusterTable:
    """Load --table, checked against the grid and the store, or else build it from the store.

    A loaded key must be grid_n**2 counts, canonical non-negative
    decimals joined by '-' as ``IndexKey`` writes them; otherwise every
    lookup with this grid would miss and report nothing found. A loaded
    table must list exactly the store's record ids; otherwise new records
    would go unseen and removed ones would still be reported.
    """
    if getattr(args, "table", None) is not None:
        table = load_table(args.table)
        cells = cfg.grid.n ** 2
        counts = re.compile(rf"(?:0|[1-9][0-9]*)(?:-(?:0|[1-9][0-9]*)){{{cells - 1}}}")
        for key in table.buckets:
            if not counts.fullmatch(key):
                raise ParseError(f"{args.table}: key {key!r} does not have {cells} counts "
                                 f"(grid_n={cfg.grid.n}), non-negative integers joined by '-'")
        table_ids = {rid for bucket in table.buckets.values() for rid in bucket}
        store_ids = set(store)
        if table_ids != store_ids:
            raise ParseError(
                f"{args.table}: table does not match the corpus; corpus records missing "
                f"from the table: {_count_and_example(store_ids - table_ids)}; table "
                f"records missing from the corpus: {_count_and_example(table_ids - store_ids)}")
    else:
        table = build_table((rid, compute_index(store[rid], cfg.grid).key_text)
                            for rid in store)
    if table.size == 0:
        raise ParseError("empty corpus")
    return table


def _sweep(args: argparse.Namespace) -> tuple[RunConfig, Mapping[str, Signature],
                                              ClusterTable, DuplicateReport, CorpusStats]:
    """Check --name, resolve config, store and table, then time one deduplicate pass over them."""
    check_record_ids([args.name], what="corpus name")  # a cell of the statistics row
    cfg = _resolve_config(args)
    store = _corpus_store(args)
    table = _table(args, cfg, store)
    report, stats = sweep_stats(table, store, cfg.match)
    return cfg, store, table, report, stats


def _print_csv(rows: list[tuple[str, CorpusStats]]) -> None:
    """The standard table: its header line, then one row per (name, stats)."""
    print(",".join(TABLE_COLUMNS))
    for name, stats in rows:
        print(stats.csv_row(name))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_index(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    table = _table(args, cfg, _corpus_store(args))
    save_table(table, args.out)
    print(f"indexed {table.size} records into {len(table.buckets)} clusters "
          f"-> {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_identify(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    query = read_signature_file(args.query)
    store = _corpus_store(args)
    result = identify(query, _table(args, cfg, store), store, cfg.grid, cfg.match)
    matched = {rid for rid, _ in result.matches}
    for record_id, score in result.candidates:
        print(f"{record_id}\t{score:.4f}\t{'true' if record_id in matched else 'false'}")
    print(f"penetration\t{result.penetration:.8f}")
    return EXIT_OK


def _cmd_dedup(args: argparse.Namespace) -> int:
    cfg, store, table, report, stats = _sweep(args)
    rendered = format_report(report, stats.duration_s)
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    if args.csv:
        _print_csv([(args.name, stats)])
    else:
        print(f"n={stats.size} classes={stats.nb_class} avg={stats.avg:.4f} "
              f"max_p={stats.max_p} max_rate={format_rate(stats.max_rate)} "
              f"duplicates={stats.duplicates} comparisons={report.comparisons} "
              f"wall_s={stats.duration_s:.4f}", file=sys.stderr)
    if args.oracle:
        groups = exhaustive_dedup(store, cfg.match, cap=cfg.oracle_cap)
        sweep_pairs = pair_relation(g for gs in report.groups_by_key.values() for g in gs)
        shared = pair_relation(table.buckets.values())
        agree = sweep_pairs & shared == pair_relation(groups) & shared
        print(f"oracle agreement on shared-key pairs: {'yes' if agree else 'NO'}",
              file=sys.stderr)
        if not agree:
            return EXIT_DATA
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    store = _corpus_store(args)
    groups = exhaustive_dedup(store, cfg.match, cap=cfg.oracle_cap)
    for group in groups:
        print(",".join(group))
    duplicates = sum(len(g) - 1 for g in groups if len(g) >= 2)
    print(f"oracle: {len(store)} records, {len(groups)} groups, "
          f"{duplicates} duplicates", file=sys.stderr)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    _cfg, _store, table, _report, stats = _sweep(args)
    if args.csv:
        _print_csv([(args.name, stats)])
    else:
        print(*stats.text_lines(args.name), sep="\n")
        print(f"sweep_comparison_bound\t{comparison_count(table)}")
    return EXIT_OK


def _cmd_regress(args: argparse.Namespace) -> int:
    if args.points:
        points = []
        for line_no, line in enumerate(_read_text(Path(args.points)).splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                x_text, y_text = line.split(",")
                points.append((float(x_text), float(y_text)))
            except ValueError:
                raise ParseError(f"{args.points}:{line_no}: expected 'size,avg'") from None
    else:
        points = list(REFERENCE_SIZE_AVG_PAIRS)
    fit = fit_regression(points)
    predictions = [(n, predict_avg(fit, n)) for n in args.predict or []]
    print(f"slope\t{fit.slope:.6g}")
    print(f"intercept\t{fit.intercept:.9g}")
    for n, avg in predictions:
        print(f"predict\t{n}\t{avg:.9f}")
    return EXIT_OK


def _fmt_number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:g}"


def _cmd_estimate(args: argparse.Namespace) -> int:
    estimate = estimate_workload(args.n, args.avg, args.ms_per_cmp)
    print(f"classes\t{_fmt_number(estimate.classes)}")
    print(f"comparisons\t{_fmt_number(estimate.comparisons)}")
    print(f"wall_ms\t{_fmt_number(estimate.wall_time_ms)}")
    print(f"wall_human\t{estimate.wall_time_human()}")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = GenSpec(
        subjects=args.subjects,
        minutiae_per_print=(args.minutiae_min, args.minutiae_max),
        image_extent=(args.extent, args.extent),
        dup_fraction=args.dup,
        jitter=args.jitter,
        global_offset=args.offset,
        drop_prob=args.drop,
        seed=args.seed,
        min_spacing=args.spacing,
    )
    signatures, ground_truth = generate(spec)
    count = write_corpus_dir(signatures, args.out)
    truth_path = args.truth or Path(args.out).with_suffix(".truth.tsv")
    write_ground_truth(ground_truth, truth_path)
    print(f"wrote {count} records to {args.out}; "
          f"{len(ground_truth)} planted duplicates -> {truth_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    try:
        sizes = [int(token) for token in args.sizes.split(",") if token]
    except ValueError:
        raise ParseError(
            f"--sizes expects comma-separated integers, got {args.sizes!r}") from None
    spec = GenSpec(subjects=0, dup_fraction=args.dup, seed=args.seed)
    rows = scaling_run(sizes, spec, cfg.grid, cfg.match)
    _print_csv([(f"synth-{size}", stats) for size, stats in zip(sizes, rows)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpdedup",
        description="Cluster, identify, and deduplicate minutiae fingerprint signatures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def corpus_flags(p: argparse.ArgumentParser, table_optional: bool = True) -> None:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--corpus", type=Path, help="corpus directory, one file per record")
        source.add_argument("--manifest", type=Path, help="manifest of record_id<TAB>path lines")
        if table_optional:
            p.add_argument("--table", type=Path, help="prebuilt cluster table file")

    p = sub.add_parser("index", help="build a cluster table from a corpus")
    corpus_flags(p, table_optional=False)
    p.add_argument("--out", type=Path, required=True, help="output table file")
    _add_param_flags(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("identify", help="identify one query signature against a table")
    p.add_argument("--query", type=Path, required=True, help="query signature file")
    p.add_argument("--table", type=Path, required=True, help="cluster table file")
    corpus_flags(p, table_optional=False)
    _add_param_flags(p)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("dedup", help="sweep a corpus for duplicates")
    corpus_flags(p)
    p.add_argument("--out", type=Path, help="report file (default: stdout)")
    p.add_argument("--csv", action="store_true", help="emit the stats row as CSV")
    p.add_argument("--name", default="corpus", help="corpus label for the stats row")
    p.add_argument("--oracle", action="store_true",
                   help="also run the exhaustive oracle and check agreement (capped)")
    _add_param_flags(p)
    p.set_defaults(func=_cmd_dedup)

    p = sub.add_parser("oracle", help="exhaustive all-pairs grouping (capped)")
    corpus_flags(p, table_optional=False)
    _add_param_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("stats", help="cluster statistics of a corpus")
    corpus_flags(p)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of key-value text")
    p.add_argument("--name", default="corpus", help="corpus label for the stats row")
    _add_param_flags(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("regress", help="fit mean occupancy against database size")
    p.add_argument("--points", type=Path,
                   help="CSV of size,avg pairs (default: published reference pairs)")
    p.add_argument("--predict", type=float, action="append",
                   help="extrapolate the fit at this size (repeatable)")
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("estimate", help="forecast deduplication workload")
    p.add_argument("--n", type=float, required=True, help="database size")
    p.add_argument("--avg", type=float, required=True, help="mean records per class")
    p.add_argument("--ms-per-cmp", type=float, default=1.0,
                   help="milliseconds per comparison (default 1)")
    p.set_defaults(func=_cmd_estimate)

    gen = GenSpec(subjects=0)  # the generator's defaults, read from one place

    p = sub.add_parser("generate", help="generate a synthetic corpus with ground truth")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--dup", type=float, default=gen.dup_fraction,
                   help=f"duplicate fraction (default {gen.dup_fraction:g})")
    p.add_argument("--seed", type=int, default=gen.seed)
    p.add_argument("--out", type=Path, required=True, help="output corpus directory")
    p.add_argument("--truth", type=Path, help="ground-truth file (default: <out>.truth.tsv)")
    p.add_argument("--jitter", type=float, default=gen.jitter, help="positional noise sigma, px")
    p.add_argument("--offset", type=int, default=gen.global_offset,
                   help="max duplicate translation, px")
    p.add_argument("--drop", type=float, default=gen.drop_prob,
                   help="per-minutia drop probability")
    p.add_argument("--minutiae-min", type=int, default=gen.minutiae_per_print[0])
    p.add_argument("--minutiae-max", type=int, default=gen.minutiae_per_print[1])
    p.add_argument("--extent", type=int, default=gen.image_extent[0],
                   help="square image extent, px")
    p.add_argument("--spacing", type=float, default=gen.min_spacing,
                   help="min inter-minutia spacing, px")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="statistics rows of synthetic corpora by size")
    p.add_argument("--sizes", required=True, help="comma-separated corpus sizes, ascending")
    p.add_argument("--seed", type=int, default=gen.seed)
    p.add_argument("--dup", type=float, default=gen.dup_fraction,
                   help=f"duplicate fraction (default {gen.dup_fraction:g})")
    _add_param_flags(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
