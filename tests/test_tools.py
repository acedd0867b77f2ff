"""The A/B benchmark tool: its run order, read through its ``--dry-run``, and its reading of a run."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"


def _dry_run(*args: str) -> list[tuple[str, str, int, int]]:
    done = subprocess.run([sys.executable, str(TOOL), "--dry-run", *args],
                          capture_output=True, text=True, check=True)
    runs = []
    for line in done.stdout.splitlines():
        side, workload, _, seed, _, trace = line.split()
        runs.append((side, workload, int(seed), int(trace)))
    return runs


def test_bench_ab_alternates_sides_across_workloads():
    runs = _dry_run("--workloads", "identify,dedup-skewed", "--seeds", "107-109,111", "--traced")
    pairs = [runs[k:k + 2] for k in range(0, len(runs), 2)]
    assert [(w, s, t) for (_, w, s, t), _ in pairs] == (
        [("identify", s, 0) for s in (107, 108, 109, 111)]
        + [("dedup-skewed", s, 0) for s in (107, 108, 109, 111)]
        + [("identify", 101, 1), ("dedup-skewed", 101, 1)])
    for k, (first, second) in enumerate(pairs):
        # both sides of one workload, seed and trace, back to back; the
        # parent first at even positions, counted over the whole plan
        assert first[1:] == second[1:]
        assert (first[0], second[0]) == (("parent", "change") if k % 2 == 0
                                         else ("change", "parent"))


def test_bench_ab_untraced_plan_by_default():
    runs = _dry_run("--seeds", "5")
    assert runs == [("parent", "ingest", 5, 0), ("change", "ingest", 5, 0),
                    ("change", "identify", 5, 0), ("parent", "identify", 5, 0),
                    ("parent", "dedup-skewed", 5, 0), ("change", "dedup-skewed", 5, 0)]


def _tool_module():
    spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE_STDOUT = """\
machine: {"cpus": 2}
workload dedup-skewed seed 101 seconds 15 trace 1
dedup: 3 passes
latency samples 6540 over 12 operations; highest percentile with >= 10 samples beyond it: p99.9
1234 spans written to .perfbench/trace-dedup-skewed.jsonl; replay mismatches: 0
matcher.score_us                 123.4 us
{"correct": true, "attempted": 6540, "failed": 0, "metrics": {"matcher.score_us": {"value": 123.45678, "unit": "us"}}}
"""


UNTRACED_STDOUT = """\
workload identify seed 107 seconds 15 trace 0
latency samples 10000 over 10000 operations; highest percentile with >= 10 samples beyond it: p99.9
set-up runs, measured s: 0.3012, 0.2488, 0.2501
setup_s                          0.2501 s
{"correct": true, "attempted": 10000, "failed": 0, "metrics": {"setup_s": {"value": 0.25012, "unit": "s"}}}
"""


def test_bench_ab_reads_the_cold_set_up():
    # the first set-up run is the cold one; a traced run prints no set-up line
    tool = _tool_module()
    assert tool.read_stdout(UNTRACED_STDOUT) == {
        "correct": True, "attempted": 10000, "failed": 0, "operations": 10000,
        "setup_s": 0.2501, "setup_first_s": 0.3012}
    assert "setup_first_s" not in tool.read_stdout(SAMPLE_STDOUT)


def test_bench_ab_reads_operations_and_verdict():
    tool = _tool_module()
    record = tool.read_stdout(SAMPLE_STDOUT)
    assert record == {"correct": True, "attempted": 6540, "failed": 0, "operations": 12,
                      "matcher.score_us": 123.4568}
    without = SAMPLE_STDOUT.replace("latency samples 6540 over 12 operations", "latency samples")
    assert tool.read_stdout(without)["operations"] is None
    for broken in ("", "machine: {}\nno summary\n"):
        with pytest.raises(ValueError):
            tool.read_stdout(broken)
