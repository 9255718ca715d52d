"""End-to-end benchmark of the WBC service and reprolint.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                       # all five workloads
    python3 benchmarks/e2e/run.py --workload sharded --seed 7 --seconds 15
    python3 benchmarks/e2e/run.py --workload recovery --trace --trace-out spans.json

Without ``--workload`` every workload runs in its own child process, one
at a time.  Each workload prints its metrics with units and sample
counts; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
end-to-end metrics come from untraced reps; ``--trace`` instead reports
the per-layer metrics of a traced run (see ``README.md``).  A wrong
output -- an audit naming the wrong volunteer, cached lint findings that
differ from the cold run -- makes the exit code 1.

The program under test is the ``repro`` package in this checkout's
``src/``; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# One thread per process: the numeric libraries must not start pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

WORKLOADS = ("single", "sharded", "workers", "recovery", "lint")

#: name -> unit; what each means per workload is in README.md.
END_TO_END = {
    "throughput_per_s": "1/s",
    "create_p50_us": "us",
    "query_p50_us": "us",
    "update_p50_us": "us",
    "round_tail_ms": "ms",
    "state_bytes_per_item": "B/item",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "server.self_us_per_task": "us/task",
    "sharding.self_us_per_task": "us/task",
    "engine.self_us_per_task": "us/task",
    "allocator.self_us_per_task": "us/task",
    "frontend.self_us_per_task": "us/task",
    "ledger.self_us_per_task": "us/task",
    "apf.unpair_per_task": "calls/task",
    "apf.us_per_task": "us/task",
    "codecs.pair_per_task": "calls/task",
    "codecs.unpair_per_task": "calls/task",
    "codecs.us_per_task": "us/task",
    "events.publish_per_task": "calls/task",
    "events.us_per_task": "us/task",
    "recovery.journal_per_task": "calls/task",
    "recovery.journal_us_per_task": "us/task",
    "recovery.cut_ms": "ms",
    "recovery.serialize_ms": "ms",
    "recovery.restore_base_ms": "ms",
    "recovery.replay_us_per_op": "us/op",
    "recovery.replayed_ops_per_bounce": "ops",
    "shardworker.round_trips_per_round": "trips/round",
    "shardworker.wait_us_per_round": "us/round",
    "sharding.bounce_ms": "ms",
    "engine.max_index_bits": "bits",
    "cache.plan_ms": "ms",
    "cache.reanalyzed_comment": "files",
    "cache.reanalyzed_neutral": "files",
    "cache.reanalyzed_summary": "files",
    "summaries.solve_ms": "ms",
    "summaries.extract_ms_per_file": "ms/file",
    "runner.analyze_ms_per_file": "ms/file",
    "bench.driver_us_per_task": "us/task",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


def load_program() -> None:
    """Put this checkout's ``src/`` first on the import path and make
    sure ``repro`` really comes from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the program source {SRC / 'repro'} is missing", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def measure(workload: str, seed: int, seconds: float, *, trace: bool, smoke: bool):
    load_program()
    if workload == "lint":
        import lint

        return lint.measure(seed, seconds, trace=trace, smoke=smoke)
    import wbc

    return wbc.measure(workload, seed, seconds, trace=trace, smoke=smoke)


def report(workload: str, result, trace: bool) -> dict:
    """Print the metric table; return the result line's object."""
    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    print(f"== {workload} ({'per-layer, traced' if trace else 'end-to-end'})")
    for name, unit in names.items():
        value = float(result.metrics.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        samples = result.samples.get(name, 0)
        print(f"  {name:34s} {value:14.4f} {unit:11s} n={samples}")
    if result.absent:
        print(f"  absent (reported as 0): {', '.join(result.absent)}")
    for message in result.errors:
        print(f"  FAILED: {message}")
    rate = result.failed / max(result.attempted, 1)
    print(f"  error_rate {rate:.6f} ({result.failed} of {result.attempted} operations)")
    return {
        "correct": result.failed == 0,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own child process, one at a time."""
    line: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "1" if args.trace else "0",
        ]
        if args.smoke:
            argv.append("--smoke")
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, child.returncode)
        try:
            out = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"== {workload}: no result (exit {child.returncode})")
            worst = max(worst, 1)
            continue
        line["correct"] = line["correct"] and out["correct"]
        line["attempted"] += out["attempted"]
        line["failed"] += out["failed"]
        for name, metric in out["metrics"].items():
            line["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(line))
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer metrics of a traced run",
    )
    parser.add_argument("--trace-out", type=Path, help="write the recorded spans here")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workload is None:
        return run_all(args)
    result = measure(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), smoke=args.smoke
    )
    line = report(args.workload, result, bool(args.trace))
    if args.trace_out is not None and args.trace:
        import tracing

        tracing.write_spans(args.trace_out, result.spans)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    # A terminated run still unwinds, so the worker processes are stopped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    sys.exit(main())
