"""Perf-trajectory runner: re-measures the kernel evaluation-speed,
batch-speed and spread-compactness scenarios plus the WBC shard-scaling
sweep, and appends the results to a committed ``BENCH_eval.json`` so
future changes can be checked for regressions.

This is the scriptable sibling of ``bench_eval_speed.py`` /
``bench_spread_compactness.py`` (which stay on pytest-benchmark): it runs
the same workload shapes without any pytest machinery, emits one JSON
*run record* per invocation, and -- in every mode -- re-verifies that the
vectorized kernels agree with the scalar bignum paths across the
exact-safe window boundary (2**53, 2**63).  A consistency failure makes
the process exit nonzero, so the smoke gate in the tier-1 suite catches
an inexact kernel before any perf number is believed.

The service's request/submit, recovery and reprolint costs are measured
end to end by ``benchmarks/e2e/run.py``; their correctness gates
(incremental checkpoint size, codec index width, a clean tree and a
warm lint cache) are tier-1 tests.

Usage::

    PYTHONPATH=src python benchmarks/bench_runner.py            # full run
    PYTHONPATH=src python benchmarks/bench_runner.py --smoke    # tiny sizes
    PYTHONPATH=src python benchmarks/bench_runner.py --output /tmp/b.json

The output file holds a ``runs`` list (a trajectory, newest last); wall
times are machine-dependent, the *speedup ratios* and consistency flags
are the regression signal.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

import numpy as np

from repro.core.base import (
    EXACT_SAFE_ADDRESS_LIMIT,
    EXACT_SAFE_COORD_LIMIT,
    StorageMapping,
)
from repro.core.registry import get_pairing
from repro.perf.batch import spread_many, vectorization_window

SCHEMA = "repro.bench-eval/1"
DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_eval.json"

#: Every family the paper ranks, plus the codec composers a sharded
#: service can mint its global indices with (scalar ns/op per composer).
EVAL_MAPPINGS = [
    "diagonal",
    "square-shell",
    "hyperbolic",
    "apf-sharp",
    "apf-bracket-3",
    "szudzik",
    "rosenberg-strong",
    "binprop-16",
]
BATCH_MAPPINGS = ["diagonal", "square-shell"]
#: Spread sweeps run on a mapping *without* a closed form (the cache's
#: incremental enumeration is the hot path) and one with (short-circuit).
SPREAD_MAPPINGS = ["aspect-2x3", "hyperbolic"]

#: Addresses straddling the exact-safe window: the float64 mantissa edge,
#: the int64 edge, and true bignums.
BOUNDARY_ADDRESSES = [
    1,
    2,
    EXACT_SAFE_ADDRESS_LIMIT - 1,
    EXACT_SAFE_ADDRESS_LIMIT,
    EXACT_SAFE_ADDRESS_LIMIT + 1,
    EXACT_SAFE_ADDRESS_LIMIT + 2,
    2**62,
    2**63 - 1,
    2**63,
    2**63 + 1,
    2**64 + 5,
    2**80 + 17,
]


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _geometric_grid(lo: int, hi: int, points: int) -> list[int]:
    ratio = (hi / lo) ** (1 / (points - 1))
    return [max(1, round(lo * ratio**i)) for i in range(points)]


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def scenario_eval_speed(smoke: bool, repeats: int) -> dict:
    """Scalar pair/unpair ns-per-op for every family (the Section 2-4
    'ease of computation' ranking, as numbers)."""
    window = 12 if smoke else 32
    n_addresses = 256 if smoke else 1024
    positions = [(x, y) for x in range(1, window + 1) for y in range(1, window + 1)]
    addresses = list(range(1, n_addresses + 1))
    out = {}
    for name in EVAL_MAPPINGS:
        pf = get_pairing(name)

        def run_pair():
            for x, y in positions:
                pf.pair(x, y)

        def run_unpair():
            for z in addresses:
                pf.unpair(z)

        pair_s = _best_seconds(run_pair, repeats)
        unpair_s = _best_seconds(run_unpair, repeats)
        out[name] = {
            "pair_ns_per_op": pair_s / len(positions) * 1e9,
            "unpair_ns_per_op": unpair_s / len(addresses) * 1e9,
        }
    return out


def scenario_batch_speed(smoke: bool, repeats: int) -> dict:
    """Vectorized batch kernels vs the scalar loop, inside the exact-safe
    window (the regression signal is the speedup ratio)."""
    size = 2048 if smoke else 65536
    out = {}
    for name in BATCH_MAPPINGS:
        pf = get_pairing(name)
        xs = np.arange(1, size + 1, dtype=np.int64)
        ys = xs[::-1].copy()
        zs = np.arange(1, size + 1, dtype=np.int64)

        vector_pair_s = _best_seconds(lambda: pf.pair_array(xs, ys), repeats)
        scalar_pair_s = _best_seconds(
            lambda: [pf.pair(int(x), int(y)) for x, y in zip(xs, ys)], repeats
        )
        vector_unpair_s = _best_seconds(lambda: pf.unpair_array(zs), repeats)
        scalar_unpair_s = _best_seconds(
            lambda: [pf.unpair(int(z)) for z in zs], repeats
        )
        out[name] = {
            "batch_size": size,
            "window": vectorization_window(pf),
            "pair_speedup": scalar_pair_s / vector_pair_s,
            "unpair_speedup": scalar_unpair_s / vector_unpair_s,
        }
    return out


def scenario_spread_compactness(smoke: bool, repeats: int) -> dict:
    """``spread_many`` over a geometric grid vs independent generic
    ``spread()`` calls: identical values, and the cache's speedup is the
    regression signal for mappings without a closed form."""
    points = 20 if smoke else 50
    hi = 400 if smoke else 2000
    grid = _geometric_grid(10, hi, points)
    out = {}
    for name in SPREAD_MAPPINGS:
        probe = get_pairing(name)
        generic = not probe.closed_form_spread

        def run_generic():
            # The un-cached baseline: the generic definition when the
            # mapping has no closed form, its own spread() otherwise.
            pf = get_pairing(name)
            if generic:
                return [StorageMapping.spread(pf, n) for n in grid]
            return [pf.spread(n) for n in grid]

        def run_cached():
            return spread_many(get_pairing(name), grid)

        baseline_s = _best_seconds(run_generic, repeats)
        cached_s = _best_seconds(run_cached, repeats)
        values = run_cached()
        if values != run_generic():
            raise AssertionError(f"{name}: spread_many disagrees with spread()")
        out[name] = {
            "grid_points": points,
            "grid_max": hi,
            "closed_form": not generic,
            "speedup": baseline_s / cached_s,
            "spread_at_max": values[-1],
            "utilization_at_max": grid[-1] / values[-1],
        }
    return out


#: Shard counts for the WBC shard-scaling scenario.
SHARD_COUNTS = [1, 4, 16]


def scenario_shard_scaling(smoke: bool, repeats: int) -> dict:
    """The sharded WBC service at 1 / 4 / 16 engine shards over one seeded
    workload, in both execution modes: serial (in-process engines) and
    parallel (``workers=min(shards, cpus)`` worker processes).  Each row
    records throughput (tasks completed per second of ``run()`` wall time;
    worker spawn/teardown is deliberately outside the timed region), the
    global-index footprint of the default codec's composition, and --
    always -- zero attribution failures.  Every row, ``serial_1``
    included, runs a
    :class:`~repro.webcompute.sharding.ShardedWBCServer` over
    :data:`~repro.webcompute.codecs.DEFAULT_CODEC`, so the 1-shard rows
    compare the execution modes like for like.  Two hard gates ride
    along, same contract as the kernel-consistency gate: a nonzero attribution-failure
    count raises, and a parallel row whose ``tasks_completed`` differs
    from its serial twin raises (the pool must be a bit-identical
    execution mode, not an approximation).  The recorded ``cpus`` lets
    downstream scaling gates arm only on machines with real parallelism.
    """
    import os

    from repro.apf.families import TSharp
    from repro.webcompute.codecs import DEFAULT_CODEC
    from repro.webcompute.simulation import SimulationConfig, WBCSimulation

    ticks = 40 if smoke else 200
    volunteers = 16 if smoke else 48
    cpus = os.cpu_count() or 1
    rows: dict[str, dict] = {}
    for shards in SHARD_COUNTS:
        for mode in ("serial", "parallel"):
            workers = None if mode == "serial" else min(shards, cpus)
            config = SimulationConfig(
                ticks=ticks,
                initial_volunteers=volunteers,
                seed=2002,
                departure_rate=0.01,
                shards=shards,
                workers=workers,
                codec=DEFAULT_CODEC,
            )
            outcome = None
            wall_s = float("inf")
            for _ in range(repeats):
                sim = WBCSimulation(TSharp(), config)
                try:
                    t0 = time.perf_counter()
                    outcome = sim.run()
                    wall_s = min(wall_s, time.perf_counter() - t0)
                finally:
                    sim.close()
            if outcome.attribution_failures:
                raise AssertionError(
                    f"shards={shards} workers={workers}: "
                    f"{outcome.attribution_failures} attribution failures "
                    f"out of {outcome.attribution_checks} checks"
                )
            rows[f"{mode}_{shards}"] = {
                "shards": shards,
                "workers": workers,
                "ticks": ticks,
                "volunteers": outcome.volunteers_total,
                "tasks_completed": outcome.tasks_completed,
                "wall_s": wall_s,
                "tasks_per_second": outcome.tasks_completed / wall_s if wall_s else 0.0,
                "max_task_index": outcome.max_task_index,
                "max_task_index_bits": outcome.max_task_index.bit_length(),
                "attribution_checks": outcome.attribution_checks,
                "attribution_failures": outcome.attribution_failures,
            }
        serial, parallel = rows[f"serial_{shards}"], rows[f"parallel_{shards}"]
        if parallel["tasks_completed"] != serial["tasks_completed"]:
            raise AssertionError(
                f"shards={shards}: parallel mode completed "
                f"{parallel['tasks_completed']} tasks, serial "
                f"{serial['tasks_completed']} -- execution modes diverged"
            )
    return {"cpus": cpus, "rows": rows}


def scenario_consistency() -> dict:
    """The exactness gate: vectorized paths must agree with the scalar
    bignum paths across the exact-safe boundary.  Raises on mismatch."""
    checked = 0
    for name in BATCH_MAPPINGS:
        pf = get_pairing(name)
        xs, ys = pf.unpair_array(BOUNDARY_ADDRESSES)
        for z, x, y in zip(BOUNDARY_ADDRESSES, xs.reshape(-1), ys.reshape(-1)):
            sx, sy = pf.unpair(z)
            if (int(x), int(y)) != (sx, sy):
                raise AssertionError(
                    f"{name}: unpair_array({z}) = ({x}, {y}), scalar says ({sx}, {sy})"
                )
            if pf.pair(sx, sy) != z:
                raise AssertionError(f"{name}: roundtrip broke at {z}")
            checked += 1
        coords = [1, 2, 1000, EXACT_SAFE_COORD_LIMIT, EXACT_SAFE_COORD_LIMIT + 1, 2**40]
        got = pf.pair_array(coords, coords[::-1])
        for x, y, z in zip(coords, coords[::-1], got.reshape(-1)):
            if int(z) != pf.pair(x, y):
                raise AssertionError(
                    f"{name}: pair_array({x}, {y}) = {z}, scalar says {pf.pair(x, y)}"
                )
            checked += 1
    return {"checked": checked, "pass": True}


# ----------------------------------------------------------------------
# Trajectory file
# ----------------------------------------------------------------------


def load_trajectory(path: Path) -> dict:
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = None
        if isinstance(data, dict) and data.get("schema") == SCHEMA:
            if isinstance(data.get("runs"), list):
                return data
    return {"schema": SCHEMA, "runs": []}


def append_run(path: Path, run: dict) -> dict:
    """Append *run* to the trajectory at *path* and write it back; a
    missing, corrupt or foreign file is replaced by a new trajectory.
    Returns the trajectory written."""
    trajectory = load_trajectory(path)
    trajectory["runs"].append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return trajectory


def build_run(smoke: bool, repeats: int) -> dict:
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "scenarios": {
            "consistency": scenario_consistency(),
            "eval_speed": scenario_eval_speed(smoke, repeats),
            "batch_speed": scenario_batch_speed(smoke, repeats),
            "spread_compactness": scenario_spread_compactness(smoke, repeats),
            "shard_scaling": scenario_shard_scaling(smoke, repeats),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes: validates schema + kernel consistency in ~a second",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of timing repeats")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="trajectory JSON path"
    )
    args = parser.parse_args(argv)

    try:
        run = build_run(args.smoke, max(1, args.repeats))
    except AssertionError as exc:
        print(f"CONSISTENCY FAILURE: {exc}", file=sys.stderr)
        return 1

    trajectory = append_run(args.output, run)

    batch = run["scenarios"]["batch_speed"]
    spread = run["scenarios"]["spread_compactness"]
    print(f"mode={run['mode']}  runs-in-file={len(trajectory['runs'])}  -> {args.output}")
    for name, row in batch.items():
        print(
            f"  {name}: pair x{row['pair_speedup']:.1f}, "
            f"unpair x{row['unpair_speedup']:.1f} (batch {row['batch_size']})"
        )
    for name, row in spread.items():
        print(f"  spread {name}: x{row['speedup']:.1f} over {row['grid_points']} points")
    scaling = run["scenarios"]["shard_scaling"]
    for name, row in scaling["rows"].items():
        mode = "serial" if row["workers"] is None else f"{row['workers']} workers"
        print(
            f"  wbc shards={row['shards']} ({mode}): "
            f"{row['tasks_per_second']:.0f} tasks/s, "
            f"max index {row['max_task_index_bits']} bits, "
            f"{row['attribution_failures']} attribution failures"
        )
    print(f"  consistency: {run['scenarios']['consistency']['checked']} checks ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
