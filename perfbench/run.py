"""Run one fpdedup benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {ingest,identify,dedup-skewed}
                             --seed N --seconds S --trace {0,1}

Inputs are generated from the seed (untimed); the library comes from
``src/`` of the checkout this file lives in. Human-readable lines go
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a traced replay; the spans go to ``.perfbench/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import os

# One thread everywhere: pin native thread pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units


def _load_library():
    """Import fpdedup and the workloads from this checkout, never from elsewhere."""
    if not (SRC / "fpdedup" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fpdedup sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import fpdedup
    if Path(fpdedup.__file__).resolve().parent != SRC / "fpdedup":
        sys.exit(f"perfbench: imported fpdedup from {fpdedup.__file__}, not from {SRC}")
    from perfbench import measure, speed, workloads
    return measure, speed, workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "identify", "dedup-skewed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    measure, speed, workloads = _load_library()
    runner = {"ingest": workloads.run_ingest, "identify": workloads.run_identify,
              "dedup-skewed": workloads.run_dedup}[args.workload]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        outcome = runner(args.seed, args.seconds, Path(workdir), bool(args.trace))

    print(f"machine: {json.dumps(measure.machine_info())}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for note in outcome.notes:
        print(note)

    # Per-record latency: a batch record waits for its whole pass.
    ops = outcome.scaled_ops()
    latencies = [seconds for seconds, records in ops for _ in range(records)]
    tail = measure.tail_percentile(len(latencies))
    print(f"latency samples {len(latencies)} over {len(outcome.ops)} operations; "
          f"highest percentile with >= {measure.MIN_BEYOND} samples beyond it: p{tail}")
    if tail is None or tail < 99.0:
        sys.exit(f"perfbench: {len(latencies)} latency samples cannot support p99")

    spec = json.loads(SPEC.read_text())
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = set(outcome.layer) - set(units)
        if unknown:
            sys.exit(f"perfbench: per-layer metrics missing from {SPEC.name}: {sorted(unknown)}")
        values = {name: outcome.layer.get(name, 0.0) for name in units}
        trace_path = out_dir / f"trace-{args.workload}.jsonl"
        outcome.tracer.write(trace_path)
        print(f"{len(outcome.tracer)} spans written to {trace_path.relative_to(ROOT)}; "
              f"replay mismatches: {outcome.replay_mismatches}")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        records = sum(records for _, records in ops)
        values = {
            "setup_s": statistics.median(map(outcome.scaled, outcome.setups)),
            "peak_rss_mb": measure.peak_rss_mb(),
            "throughput_per_s": records / sum(seconds for seconds, _ in ops),
            "latency_p50_ms": measure.percentile(latencies, 50.0) * 1e3,
            "latency_p99_ms": measure.percentile(latencies, 99.0) * 1e3,
        }
        kernels = outcome.probe.kernel_s
        print(f"reference kernel: {len(kernels)} timings, median "
              f"{statistics.median(kernels) * 1e3:.4f} ms, nominal {speed.NOMINAL_S * 1e3:g} ms")
        print("set-up runs, measured s: "
              + ", ".join(f"{workloads.raw_seconds(t):.4f}" for t in outcome.setups))
        print(f"operations: {len(outcome.ops)}, measured total {outcome.measured_s:.4f} s, "
              f"rescaled total {sum(seconds for seconds, _ in ops):.4f} s")
        if len(outcome.ops) < 20:
            print("passes, measured s: "
                  + ", ".join(f"{workloads.raw_seconds(t):.4f}" for t, _ in outcome.ops))
    if set(values) != set(units):
        sys.exit(f"perfbench: metrics {sorted(values)} do not match {SPEC.name}: {sorted(units)}")
    for name, value in values.items():
        print(f"{name:32s} {value:.6g} {units[name]}")

    failed = outcome.failed + outcome.replay_mismatches
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
