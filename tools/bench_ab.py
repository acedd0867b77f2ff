"""Interleaved A/B runs of the benchmark: a base revision against a change.

    python3 tools/bench_ab.py --base REV [--head REV] [--workloads W,...]
                              [--seeds 107-111] [--traced] [--change TEXT]
                              [--out BENCH_name.json] [--workdir DIR] [--dry-run]

The base revision, and the head revision when one is named, are
extracted with ``git archive`` into fresh directories, so each side runs
the committed files alone, as the benchmark does; without ``--head`` the
change side is this working tree. For every workload and seed,
``perfbench/run.py`` runs once on each side for ``SECONDS``, the
benchmark's own run length, back to back; the side that
goes first alternates, the base first at even positions counted across
all workloads. The last JSON line of each run is kept, and the file
written holds every run, per-metric medians and quartiles per side, how
many seed pairs the change won, and the machine.

Each run also records its operation count, read from run.py's
``latency samples ... over N operations`` line: queries for
``identify``, passes for the batch workloads; and, as ``setup_first_s``,
the first of its ``set-up runs, measured s`` values: the cold set-up,
which pays for whatever the process builds once and caches. It is
summarized beside the end-to-end metrics, lower being better.
``--traced`` adds one ``--trace 1`` run per side and workload at seed
``TRACE_SEED``, in the same alternation, with its wall time, wall time
per operation,
``correct``, ``failed`` and per-layer metrics; a traced run repeats
whole passes until its measured time is reached, so its wall time alone
moves by a pass at a time. A run that takes longer than
``TIMEOUT_S`` is stopped and recorded as not correct. ``--dry-run``
prints the run order and exits without extracting or running anything.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest", "identify", "dedup-skewed")
SIDES = ("parent", "change")
SECONDS = 15      # measured seconds per run, as the benchmark runs it
TRACE_SEED = 101  # seed of the traced runs
TIMEOUT_S = 900   # wall seconds after which a run is stopped
OPERATIONS = re.compile(r"^latency samples \d+ over (\d+) operations;", re.MULTILINE)
SETUPS = re.compile(r"^set-up runs, measured s: ([^,\n]+)", re.MULTILINE)


def parse_seeds(text: str) -> list[int]:
    """``107-111`` or ``101,103,105`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def plan(workloads: list[str], seeds: list[int], traced: bool) -> list[tuple[str, int, int, str]]:
    """Every run as ``(workload, seed, trace, side)``, in the order they run.

    Untraced pairs come first, workload by workload and seed by seed,
    then one traced pair per workload. At pair position k, counted over
    the whole plan, the parent goes first when k is even.
    """
    pairs = [(w, s, 0) for w in workloads for s in seeds]
    if traced:
        pairs += [(w, TRACE_SEED, 1) for w in workloads]
    runs = []
    for k, (workload, seed, trace) in enumerate(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        runs += [(workload, seed, trace, side) for side in order]
    return runs


def extract(rev: str, directory: Path) -> Path:
    """The files of ``rev`` as committed, unpacked into ``directory``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    directory.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.12, and 3.10/3.11 security releases
            tar.extractall(directory, filter="data")
        else:
            tar.extractall(directory)
    return directory


def short_rev(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def read_stdout(stdout: str) -> dict:
    """A run's verdict, metrics, operation count and cold set-up, read from its stdout.

    The verdict and metrics come from the last line, run.py's JSON
    summary; a stdout with no JSON last line raises ``ValueError``. The
    operation count is None when no ``latency samples`` line is found;
    ``setup_first_s`` is left out when no ``set-up runs`` line is (a
    traced run prints none).
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    last = json.loads(lines[-1])
    found = OPERATIONS.search(stdout)
    record = {"correct": last["correct"], "attempted": last["attempted"],
              "failed": last["failed"], "operations": int(found[1]) if found else None}
    record.update({name: round(m["value"], 4) for name, m in last["metrics"].items()})
    setups = SETUPS.search(stdout)
    if setups:
        record["setup_first_s"] = float(setups[1])
    return record


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run: what its stdout reports, plus wall time and exit code."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", str(trace)]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": "timeout", "wall_s": round(time.perf_counter() - start, 1),
                "correct": False}
    wall = time.perf_counter() - start
    try:
        reported = read_stdout(done.stdout)
    except ValueError:  # json.JSONDecodeError included
        return {"exit": done.returncode, "wall_s": round(wall, 1), "correct": False,
                "stderr": done.stderr[-400:]}
    record = {"exit": done.returncode, "wall_s": round(wall, 1), **reported}
    if trace and reported["operations"]:
        record["wall_ms_per_op"] = round(wall / reported["operations"] * 1e3, 2)
    return record


def summarize(runs: list[dict], seeds: list[int], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, pairs the change won, ratio of medians."""
    by = {(r["seed"], r["side"]): r for r in runs}
    summary: dict = {}
    for name, direction in better.items():
        values = {side: [by[s, side][name] for s in seeds if name in by[s, side]]
                  for side in SIDES}
        if len(values["parent"]) != len(seeds) or len(values["change"]) != len(seeds):
            continue
        stats = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive") \
                if len(seeds) > 1 else (values[side][0],) * 3
            stats[side] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
        won = sum((c > p) if direction == "higher" else (c < p)
                  for p, c in zip(values["parent"], values["change"]))
        stats["change_better_pairs"] = won
        stats["pairs"] = len(seeds)
        stats["median_ratio_change_over_parent"] = round(
            stats["change"]["median"] / stats["parent"]["median"], 4)
        summary[name] = stats
    summary["all_correct"] = all(r["correct"] for r in runs)
    summary["failed"] = sum(r.get("failed", 0) for r in runs)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD^", help="revision of the parent side")
    parser.add_argument("--head", help="revision of the change side (default: this working tree)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="107-111")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--change", default="", help="one line saying what the change does")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--workdir", type=Path, help="where the checkouts go (default: a temp dir)")
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {sorted(unknown)}")
    seeds = parse_seeds(args.seeds)
    runs = plan(workloads, seeds, args.traced)
    if args.dry_run:
        for workload, seed, trace, side in runs:
            print(f"{side} {workload} seed {seed} trace {trace}")
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]} | {"setup_first_s": "lower"}
    scratch = Path(tempfile.mkdtemp(prefix="bench_ab-", dir=args.workdir))
    try:
        trees = {"parent": extract(args.base, scratch / "parent"),
                 "change": extract(args.head, scratch / "change") if args.head else ROOT}
        results: dict[str, list[dict]] = {w: [] for w in workloads}
        traced: dict[str, dict] = {}
        for workload, seed, trace, side in runs:
            record = run_once(trees[side], workload, seed, trace)
            print(f"{side} {workload} seed {seed} trace {trace}: "
                  f"wall {record['wall_s']} s, correct {record['correct']}", flush=True)
            if trace:
                traced.setdefault(workload, {})[side] = record
            else:
                results[workload].append({"seed": seed, "side": side, **record})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    sys.path.insert(0, str(ROOT))
    from perfbench.measure import machine_info
    report = {
        "change": args.change,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "protocol": (f"parent (commit {short_rev(args.base)}) and change "
                     f"({'commit ' + short_rev(args.head) if args.head else 'working tree'}) "
                     "run back to back per seed, order alternating (parent first on even "
                     "positions, counted across all workloads); last JSON line of each run; "
                     f"workloads {', '.join(workloads)} in that order, seeds {args.seeds}; "
                     "written by tools/bench_ab.py"),
        "machine": machine_info(),
        "workloads": {w: {"seeds": seeds, "runs": results[w],
                          "summary": summarize(results[w], seeds, better)} for w in workloads},
    }
    if args.traced:
        report["traced_runs"] = {
            "command": f"python3 perfbench/run.py --workload W --seed {TRACE_SEED} "
                       f"--seconds {SECONDS} --trace 1",
            "values_are": "[parent, change]",
            **{w: {key: [traced[w]["parent"].get(key), traced[w]["change"].get(key)]
                   for key in traced[w]["parent"]} for w in workloads},
        }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
