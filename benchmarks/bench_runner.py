"""Perf-trajectory runner: re-measures the evaluation-speed and
spread-compactness scenarios and appends the results to a committed
``BENCH_eval.json`` so future changes can be checked for regressions.

This is the scriptable sibling of ``bench_eval_speed.py`` /
``bench_spread_compactness.py`` (which stay on pytest-benchmark): it runs
the same workload shapes without any pytest machinery, emits one JSON
*run record* per invocation, and -- in every mode -- re-verifies that the
vectorized kernels agree with the scalar bignum paths across the
exact-safe window boundary (2**53, 2**63).  A consistency failure makes
the process exit nonzero, so the smoke gate in the tier-1 suite catches
an inexact kernel before any perf number is believed.

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

EVAL_MAPPINGS = ["diagonal", "square-shell", "hyperbolic", "apf-sharp", "apf-bracket-3"]
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
    global-index footprint of the square-shell composition, and -- always
    -- zero attribution failures.  Two hard gates ride along, same
    contract as the kernel-consistency gate: a nonzero attribution-failure
    count raises, and a parallel row whose ``tasks_completed`` differs
    from its serial twin raises (the pool must be a bit-identical
    execution mode, not an approximation).  The recorded ``cpus`` lets
    downstream scaling gates arm only on machines with real parallelism.
    """
    import os

    from repro.apf.families import TSharp
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


#: Shard counts for the fault-recovery scenario.
FAULT_SHARD_COUNTS = [1, 4, 16]
#: Volunteer counts for the recovery volunteer-scaling rows (at 4 shards).
FAULT_VOLUNTEER_COUNTS = [8, 16, 32]
FAULT_VOLUNTEER_COUNTS_SMOKE = [4, 8]


def _fault_recovery_row(shards: int, volunteers: int, ticks: int, repeats: int) -> dict:
    """One fault-recovery measurement: full-vs-incremental checkpoint
    bytes, crash+restore bounce latency, and the unique-index gate, for
    one (shards, volunteers) point of the seeded workload."""
    from repro.apf.families import TSharp
    from repro.webcompute.events import EventLog, ShardRestored
    from repro.webcompute.sharding import ShardedWBCServer
    from repro.webcompute.volunteer import VolunteerProfile

    server = ShardedWBCServer(
        TSharp(),
        shards=shards,
        verification_rate=0.2,
        seed=2002,
        lease_ticks=8,
        compact_every=None,  # manual checkpoint control below
    )
    log = EventLog.attach(server.bus, event_types=[ShardRestored])
    vids = server.register_round(
        [
            VolunteerProfile(f"v{i}", speed=1.0 + (i % 5) * 0.4)
            for i in range(volunteers)
        ]
    )
    issued: set[int] = set()

    def work(rounds):
        for _ in range(rounds):
            server.tick()
            for vid in vids:
                task = server.request_task(vid)
                issued.add(task.index)
                server.submit_result(vid, task.index, task.expected_result)

    def full_sweep():
        for shard in range(shards):
            server.checkpoint_shard(shard, full=True)

    work(ticks)
    checkpoint_s = _best_seconds(full_sweep, repeats)
    state_bytes = server._stores[0].base_bytes
    # One epoch of deltas on top of the fresh base: what a periodic
    # incremental checkpoint would persist instead of the full blob.
    work(1)
    server.checkpoint_shard(0)
    incremental_bytes = server._stores[0].segment_bytes[-1]
    # Pile post-checkpoint ops into the journal so the bounce has
    # real replay work, then time crash+restore (the journal is kept
    # across restores, so every repeat replays the same ops).
    work(ticks)

    def bounce():
        server.crash_shard(0)
        server.restore_shard(0)

    bounce_s = _best_seconds(bounce, repeats)
    replayed = log.of_type(ShardRestored)[-1].replayed_ops
    before = len(issued)
    work(2)
    if len(issued) != before + 2 * len(vids):
        raise AssertionError(
            f"shards={shards}: duplicate task index issued after restore "
            f"({len(issued)} unique, expected {before + 2 * len(vids)})"
        )
    return {
        "shards": shards,
        "volunteers": volunteers,
        "ticks": ticks,
        "checkpoint_all_s": checkpoint_s,
        "state_bytes_per_shard": state_bytes,
        "incremental_bytes_per_shard": incremental_bytes,
        "incremental_fraction": incremental_bytes / state_bytes,
        "bounce_s": bounce_s,
        "replayed_ops": replayed,
        "tasks_issued": len(issued),
        "unique_after_restore": True,
    }


def scenario_fault_recovery(smoke: bool, repeats: int) -> dict:
    """Crash tolerance as numbers: the cost of a full checkpoint sweep,
    the bytes one shard persists full vs incremental (one epoch of delta
    over a fresh base), and the latency of a crash+restore bounce
    (checkpoint load + journal replay) -- at 1 / 4 / 16 shards, plus a
    volunteer-scaling sweep at 4 shards (``volunteers_N`` rows) showing
    how both checkpoint sizes and the bounce grow with seated state.
    The correctness gate rides along: after the bounce the service must
    keep issuing globally unique task indices, or the scenario raises
    (same contract as the kernel-consistency gate).

    Full mode runs enough ticks that per-shard task history dwarfs the
    fixed-size serialization floor, so ``incremental_fraction`` measures
    the protocol on a long-lived shard, not the floor.  (That floor
    used to be dominated by the ledger's ~8 KB Mersenne rng state
    riding in every delta; the counter-based verification RNG shrinks
    the rng entry to three scalars, so deltas are now pure payload.)"""
    ticks = 6 if smoke else 240
    volunteers = 8 if smoke else 32
    out = {}
    for shards in FAULT_SHARD_COUNTS:
        out[f"shards_{shards}"] = _fault_recovery_row(
            shards, volunteers, ticks, repeats
        )
    scaling = (
        FAULT_VOLUNTEER_COUNTS_SMOKE if smoke else FAULT_VOLUNTEER_COUNTS
    )
    for count in scaling:
        out[f"volunteers_{count}"] = _fault_recovery_row(
            4, count, ticks, repeats
        )
    return out


#: Codecs raced by the shootout: the paper's square-shell baseline, the
#: two classic shell-walkers, and the ratio-16 binary-proportional
#: composer (arXiv:1809.06876) tuned for the few-shards/many-tasks shape.
CODEC_SHOOTOUT = ["square-shell", "rosenberg-strong", "szudzik", "binprop-16"]
#: Shard count the shootout runs at (the widest point of shard_scaling).
CODEC_SHOOTOUT_SHARDS = 16


def scenario_codec_shootout(smoke: bool, repeats: int) -> dict:
    """The pluggable-codec race: one seeded 16-shard WBC workload per
    registered composer, plus composer micro-costs.  Because volunteer
    behaviour never reads the index *value*, every codec must complete the
    identical task trace -- the only thing allowed to move is the global
    index footprint, which is the whole point of swapping composers.

    Per codec the row records throughput, the minted ``max_task_index``
    and its bit width, raw composer encode/decode ns-per-op over the
    shard-composition shape (row = shard+1, so a 16-shard service
    exercises rows 1..16 with unbounded columns), and the closed-form
    ``spread_for_shape(shards, locals)`` footprint as the analytic twin
    of the measured width.  Three hard gates ride along (same contract
    as the kernel-consistency gate): any attribution failure raises,
    a codec whose ``tasks_completed`` differs from the square-shell
    baseline raises (behaviour must be codec-independent), and a
    binprop-16 index width above square-shell's raises -- the ratio
    composer exists to shrink the footprint, so regressing it is a bug.
    """
    from repro.apf.families import TSharp
    from repro.webcompute.codecs import composer_for
    from repro.webcompute.simulation import SimulationConfig, WBCSimulation

    ticks = 30 if smoke else 160
    volunteers = 12 if smoke else 40
    micro = 64 if smoke else 1024
    shards = CODEC_SHOOTOUT_SHARDS
    positions = [
        (shard + 1, local)
        for shard in range(shards)
        for local in range(1, micro // shards + 1)
    ]
    rows: dict[str, dict] = {}
    for codec in CODEC_SHOOTOUT:
        config = SimulationConfig(
            ticks=ticks,
            initial_volunteers=volunteers,
            seed=2002,
            departure_rate=0.01,
            shards=shards,
            codec=codec,
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
                f"codec={codec}: {outcome.attribution_failures} attribution "
                f"failures out of {outcome.attribution_checks} checks"
            )
        composer = composer_for(codec)
        addresses = [composer.pair(x, y) for x, y in positions]
        encode_s = _best_seconds(
            lambda: [composer.pair(x, y) for x, y in positions], repeats
        )
        decode_s = _best_seconds(
            lambda: [composer.unpair(z) for z in addresses], repeats
        )
        rows[codec] = {
            "ticks": ticks,
            "volunteers": outcome.volunteers_total,
            "tasks_completed": outcome.tasks_completed,
            "wall_s": wall_s,
            "tasks_per_second": outcome.tasks_completed / wall_s if wall_s else 0.0,
            "max_task_index": outcome.max_task_index,
            "max_task_index_bits": outcome.max_task_index.bit_length(),
            "attribution_checks": outcome.attribution_checks,
            "attribution_failures": outcome.attribution_failures,
            "encode_ns_per_op": encode_s / len(positions) * 1e9,
            "decode_ns_per_op": decode_s / len(addresses) * 1e9,
            "spread_shape_bits": composer.spread_for_shape(
                shards, micro // shards
            ).bit_length(),
        }
    baseline = rows["square-shell"]
    for codec, row in rows.items():
        if row["tasks_completed"] != baseline["tasks_completed"]:
            raise AssertionError(
                f"codec={codec}: completed {row['tasks_completed']} tasks, "
                f"square-shell baseline {baseline['tasks_completed']} -- "
                "behaviour must be codec-independent"
            )
    if rows["binprop-16"]["max_task_index_bits"] > baseline["max_task_index_bits"]:
        raise AssertionError(
            f"binprop-16 minted {rows['binprop-16']['max_task_index_bits']}-bit "
            f"indices, square-shell {baseline['max_task_index_bits']}-bit -- "
            "the ratio composer must not widen the footprint"
        )
    return {"shards": shards, "rows": rows}


def scenario_staticcheck(smoke: bool, repeats: int) -> dict:
    """reprolint over the library tree: cold (no cache), warm (full
    cache hits, which must reproduce the cold findings exactly), and
    two one-edit incremental runs on a scratch copy of the tree that
    measure the v4 summary-delta planner directly against both of its
    ancestors.  A comment-only edit changes no function structure hash,
    so exactly the edited file re-analyzes (v2 re-analyzed its whole
    reverse-import closure); a semantic body edit to ``get_pairing``
    (the registry entry point half the tree calls) inserts a statement
    without changing the function's dataflow summary, so the v4 planner
    re-analyzes only the edited file while ``v3_closure_files`` records
    what the v3 reverse call-graph closure would have re-run and
    ``skipped_by_summary`` counts the consumers the old/new fixpoint
    comparison proved unaffected.  An unsuppressed
    finding is a gate failure here, same contract as the
    kernel-consistency gate -- perf numbers from a tree that violates
    its own invariants are not worth recording."""
    import shutil
    import tempfile

    from repro.staticcheck import analyze_paths
    from repro.staticcheck.cache import (
        CACHE_FILENAME,
        AnalysisCache,
        config_hash,
        dirty_closure,
    )
    from repro.staticcheck.config import load_config

    src = _ROOT / "src"
    config, _config_path = load_config(src)
    timing_repeats = 1 if smoke else repeats

    # Cold, uncached: the pure analysis cost of the full tree.
    cold_results: list = []
    cold_s = _best_seconds(
        lambda: cold_results.append(analyze_paths([src], config=config)),
        timing_repeats,
    )
    result = cold_results[-1]
    if not result.ok:
        raise AssertionError(
            "reprolint found unsuppressed violations:\n"
            + "\n".join(f.render() for f in result.findings)
        )

    with tempfile.TemporaryDirectory() as scratch_dir:
        scratch = Path(scratch_dir)
        # Warm: populate a scratch cache once, then time pure-hit runs.
        cache_path = scratch / CACHE_FILENAME
        analyze_paths([src], config=config, cache=True, cache_path=cache_path)
        warm_results: list = []
        warm_s = _best_seconds(
            lambda: warm_results.append(
                analyze_paths([src], config=config, cache=True, cache_path=cache_path)
            ),
            timing_repeats,
        )
        warm = warm_results[-1]
        if [f.render() for f in warm.findings] != [
            f.render() for f in result.findings
        ]:
            raise AssertionError("cached findings diverge from the cold run")
        # Incremental: edit files in a scratch copy of the tree and
        # count how much re-analyzes under per-function planning, next
        # to the reverse-import closure v2 would have re-run.
        tree = scratch / "src"
        shutil.copytree(src, tree, ignore=shutil.ignore_patterns("__pycache__"))
        edit_cache = scratch / ("edit-" + CACHE_FILENAME)
        analyze_paths([tree], config=config, cache=True, cache_path=edit_cache)

        def v2_closure(target: Path, module: str) -> int:
            cached = AnalysisCache.load(edit_cache, config_hash(config, None))
            clean = {
                path: (entry.module, entry.imports)
                for path, entry in cached.entries.items()
                if path != str(target)
            }
            return 1 + len(dirty_closure({module}, clean))

        # Edit 1: comment-only.  No function structure hash moves, so
        # only the edited file itself re-analyzes.
        target = tree / "repro" / "webcompute" / "frontend.py"
        comment_v2 = v2_closure(target, "repro.webcompute.frontend")
        target.write_text(target.read_text() + "\n# bench: one-line edit\n")
        incremental = analyze_paths(
            [tree], config=config, cache=True, cache_path=edit_cache
        )

        # Edit 2: semantic body edit to get_pairing, the registry entry
        # point half the tree calls -- the reverse call-graph closure
        # re-analyzes its true callers and nothing else.
        target2 = tree / "repro" / "core" / "registry.py"
        semantic_v2 = v2_closure(target2, "repro.core.registry")
        target2.write_text(
            target2.read_text().replace(
                'def get_pairing(name: str) -> StorageMapping:\n',
                'def get_pairing(name: str) -> StorageMapping:\n'
                "    _ = name  # bench: semantic body edit\n",
                1,
            )
        )
        semantic = analyze_paths(
            [tree], config=config, cache=True, cache_path=edit_cache
        )

    # Waiver census: every `# reprolint: allow[...]` the tree leans on,
    # by rule and by module.  A waiver added to silence a finding shows
    # up in the committed trajectory, so the escape-hatch count is
    # reviewed history, not invisible drift.
    by_module: dict[str, int] = {}
    for finding, _line in result.suppressed:
        by_module[finding.module] = by_module.get(finding.module, 0) + 1

    stats = incremental.cache_stats
    semantic_stats = semantic.cache_stats
    return {
        "files": result.files,
        "analyze_s": cold_s,
        "files_per_second": result.files / cold_s if cold_s > 0 else 0.0,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s if warm_s > 0 else 0.0,
        "warm_hit_rate": warm.cache_stats.hit_rate,
        "incremental_reanalyzed": stats.misses,
        "incremental_fraction": stats.misses / incremental.files,
        "incremental_edits": {
            "comment_edit": {
                "reanalyzed": stats.misses,
                "changed_functions": stats.changed_functions,
                "invalidated_functions": stats.invalidated_functions,
                "skipped_by_summary": stats.skipped_by_summary,
                "v2_closure_files": comment_v2,
                "v3_closure_files": stats.closure_files,
            },
            "semantic_edit": {
                "reanalyzed": semantic_stats.misses,
                "changed_functions": semantic_stats.changed_functions,
                "invalidated_functions": semantic_stats.invalidated_functions,
                "skipped_by_summary": semantic_stats.skipped_by_summary,
                "v2_closure_files": semantic_v2,
                "v3_closure_files": semantic_stats.closure_files,
            },
        },
        "unsuppressed_findings": len(result.findings),
        "waivers": {
            "total": len(result.suppressed),
            "by_rule": result.suppressed_counts_by_rule(),
            "by_module": dict(sorted(by_module.items())),
        },
        "pass": True,
    }


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
            "codec_shootout": scenario_codec_shootout(smoke, repeats),
            "fault_recovery": scenario_fault_recovery(smoke, repeats),
            "staticcheck": scenario_staticcheck(smoke, repeats),
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
    shootout = run["scenarios"]["codec_shootout"]
    for name, row in shootout["rows"].items():
        print(
            f"  codec {name} @ {shootout['shards']} shards: "
            f"{row['tasks_completed']} tasks, "
            f"max index {row['max_task_index_bits']} bits, "
            f"encode {row['encode_ns_per_op']:.0f} ns, "
            f"decode {row['decode_ns_per_op']:.0f} ns, "
            f"{row['attribution_failures']} attribution failures"
        )
    for row in run["scenarios"]["fault_recovery"].values():
        print(
            f"  recovery shards={row['shards']} volunteers={row['volunteers']}: "
            f"checkpoint {row['checkpoint_all_s'] * 1e3:.1f} ms, "
            f"bounce {row['bounce_s'] * 1e3:.1f} ms ({row['replayed_ops']} ops replayed), "
            f"{row['state_bytes_per_shard']} B full / "
            f"{row['incremental_bytes_per_shard']} B delta "
            f"({row['incremental_fraction']:.0%})"
        )
    lint = run["scenarios"]["staticcheck"]
    print(
        f"  staticcheck: {lint['files']} files clean in {lint['analyze_s'] * 1e3:.0f} ms cold, "
        f"{lint['warm_s'] * 1e3:.0f} ms warm (x{lint['warm_speedup']:.0f}); one-file edit "
        f"re-analyzes {lint['incremental_reanalyzed']} "
        f"({lint['waivers']['total']} waivers)"
    )
    print(f"  consistency: {run['scenarios']['consistency']['checked']} checks ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
