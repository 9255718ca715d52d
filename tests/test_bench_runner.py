"""Smoke gate for benchmarks/bench_runner.py (marked ``bench_smoke``).

Runs the runner in-process once with tiny sizes against a temp output
file and checks the trajectory-file contract on that run record: schema
id, run records appended (not overwritten), and the always-on
kernel-consistency scenario passing.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench_smoke

_RUNNER = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_runner.py"


@pytest.fixture(scope="module")
def bench_runner():
    spec = importlib.util.spec_from_file_location("bench_runner", _RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke_output(bench_runner, tmp_path_factory):
    """The trajectory file one smoke run of ``main`` wrote."""
    out = tmp_path_factory.mktemp("smoke") / "BENCH_eval.json"
    assert bench_runner.main(["--smoke", "--repeats", "1", "--output", str(out)]) == 0
    return out


@pytest.fixture
def smoke_run(smoke_output):
    return json.loads(smoke_output.read_text())["runs"][0]


def test_smoke_run_writes_schema_and_record(bench_runner, smoke_output):
    data = json.loads(smoke_output.read_text())
    assert data["schema"] == bench_runner.SCHEMA
    assert len(data["runs"]) == 1
    run = data["runs"][0]
    assert run["mode"] == "smoke"
    scenarios = run["scenarios"]
    assert scenarios["consistency"]["pass"] is True
    assert scenarios["consistency"]["checked"] > 0
    assert set(scenarios["eval_speed"]) == set(bench_runner.EVAL_MAPPINGS)
    for row in scenarios["batch_speed"].values():
        assert row["pair_speedup"] > 0
    for row in scenarios["spread_compactness"].values():
        assert row["speedup"] > 0
    scaling = scenarios["shard_scaling"]
    assert scaling["cpus"] >= 1
    shard_rows = scaling["rows"]
    assert set(shard_rows) == {
        f"{mode}_{s}"
        for mode in ("serial", "parallel")
        for s in bench_runner.SHARD_COUNTS
    }
    for name, row in shard_rows.items():
        assert row["attribution_failures"] == 0
        assert row["tasks_completed"] > 0
        assert row["max_task_index"] > 0
        if name.startswith("serial"):
            assert row["workers"] is None
        else:
            assert 1 <= row["workers"] <= row["shards"]
    for s in bench_runner.SHARD_COUNTS:
        # The execution-mode differential the runner itself enforces.
        assert (
            shard_rows[f"parallel_{s}"]["tasks_completed"]
            == shard_rows[f"serial_{s}"]["tasks_completed"]
        )
    shootout = scenarios["codec_shootout"]
    assert shootout["shards"] == bench_runner.CODEC_SHOOTOUT_SHARDS
    assert set(shootout["rows"]) == set(bench_runner.CODEC_SHOOTOUT)
    baseline_tasks = shootout["rows"]["square-shell"]["tasks_completed"]
    for name, row in shootout["rows"].items():
        assert row["attribution_failures"] == 0, name
        assert row["tasks_completed"] == baseline_tasks, name
        assert row["max_task_index"].bit_length() == row["max_task_index_bits"]
        assert row["encode_ns_per_op"] > 0
        assert row["decode_ns_per_op"] > 0
        assert row["spread_shape_bits"] > 0
    recovery_rows = scenarios["fault_recovery"]
    assert set(recovery_rows) == {
        f"shards_{s}" for s in bench_runner.FAULT_SHARD_COUNTS
    } | {
        f"volunteers_{v}" for v in bench_runner.FAULT_VOLUNTEER_COUNTS_SMOKE
    }
    for row in recovery_rows.values():
        assert row["unique_after_restore"] is True
        assert row["checkpoint_all_s"] > 0
        assert row["bounce_s"] > 0
        assert row["replayed_ops"] > 0
        assert row["state_bytes_per_shard"] > 0
        # One epoch of delta is persisted and strictly smaller than the
        # full blob (the <= 10% gate runs on the committed full run,
        # where real state dwarfs the fixed serialization floor).
        assert 0 < row["incremental_bytes_per_shard"]
        assert 0 < row["incremental_fraction"] < 1
    for v in bench_runner.FAULT_VOLUNTEER_COUNTS_SMOKE:
        assert recovery_rows[f"volunteers_{v}"]["volunteers"] == v
        assert recovery_rows[f"volunteers_{v}"]["shards"] == 4
    # No monotonicity assertion on max_task_index: sharding *lowers*
    # per-engine row numbers (cheaper strides) while the square-shell
    # composition inflates the composed index -- which effect wins is
    # workload-dependent, and measuring that honestly is the point.
    lint = scenarios["staticcheck"]
    assert lint["pass"] is True
    assert lint["unsuppressed_findings"] == 0
    waivers = lint["waivers"]
    assert waivers["total"] == sum(waivers["by_rule"].values())
    assert waivers["total"] == sum(waivers["by_module"].values())
    assert all(rule.startswith("R") for rule in waivers["by_rule"])
    assert lint["warm_hit_rate"] == 1.0
    # Loose bound for a single smoke-timed measurement; the committed
    # full run is gated at >= 5x below.
    assert lint["warm_speedup"] > 2
    assert 0 < lint["incremental_reanalyzed"] < lint["files"]


def test_trajectory_appends_across_runs(bench_runner, smoke_run, tmp_path):
    out = tmp_path / "BENCH_eval.json"
    for expected in (1, 2):
        bench_runner.append_run(out, smoke_run)
        assert len(json.loads(out.read_text())["runs"]) == expected


def test_corrupt_trajectory_is_replaced_not_crashed(bench_runner, smoke_run, tmp_path):
    out = tmp_path / "BENCH_eval.json"
    out.write_text("{not json")
    bench_runner.append_run(out, smoke_run)
    data = json.loads(out.read_text())
    assert data["schema"] == bench_runner.SCHEMA
    assert len(data["runs"]) == 1


def test_committed_trajectory_file_is_valid(bench_runner):
    committed = _RUNNER.parent / "BENCH_eval.json"
    data = json.loads(committed.read_text())
    assert data["schema"] == bench_runner.SCHEMA
    assert data["runs"], "committed BENCH_eval.json must hold at least one run"
    assert all(r["scenarios"]["consistency"]["pass"] for r in data["runs"])


def test_committed_shard_scaling_gate(bench_runner):
    """The parallel-execution acceptance numbers, from the newest
    committed run.  Unconditional: zero attribution failures everywhere,
    and the parallel rows complete exactly as many tasks as their serial
    twins (the pool is an execution mode, not an approximation).
    Conditional on the recording machine actually having cores
    (``cpus >= 4``): parallel throughput at 4 shards is >= 2x the
    1-shard parallel row, and 16 shards does not fall below 4.  On a
    single-CPU recorder the ratio gate is vacuous -- worker processes
    time-slice one core and IPC overhead dominates -- so it stays
    disarmed rather than gating on noise."""
    committed = _RUNNER.parent / "BENCH_eval.json"
    latest = json.loads(committed.read_text())["runs"][-1]
    scaling = latest["scenarios"]["shard_scaling"]
    rows = scaling["rows"]
    for name, row in rows.items():
        assert row["attribution_failures"] == 0, name
    for s in bench_runner.SHARD_COUNTS:
        assert (
            rows[f"parallel_{s}"]["tasks_completed"]
            == rows[f"serial_{s}"]["tasks_completed"]
        ), f"execution modes diverged at {s} shards"
    if scaling["cpus"] >= 4:
        tps = {s: rows[f"parallel_{s}"]["tasks_per_second"] for s in (1, 4, 16)}
        assert tps[4] >= 2 * tps[1], f"4-shard pool not scaling: {tps}"
        assert tps[16] >= tps[4], f"16-shard pool regressed: {tps}"


def test_committed_incremental_checkpoint_gate(bench_runner):
    """The log-structured checkpoint acceptance numbers, from the newest
    committed run (which must be a full run): at the 32-volunteer
    scenario, one epoch of incremental delta persists <= 10% of the full
    snapshot bytes.  The original gate was 25%, set when every delta
    carried the ledger's ~8 KB Mersenne rng state; the counter-based
    verification RNG (three scalars) dropped the committed fractions to
    1.5-2.6%, so the gate tightened to keep real headroom.  Only the
    32-volunteer rows are gated -- smaller rows measure fixed overhead,
    not the protocol."""
    committed = _RUNNER.parent / "BENCH_eval.json"
    latest = json.loads(committed.read_text())["runs"][-1]
    assert latest["mode"] == "full", "committed trajectory must end on a full run"
    recovery = latest["scenarios"]["fault_recovery"]
    gated = [row for row in recovery.values() if row["volunteers"] == 32]
    assert gated, "full runs must measure the 32-volunteer scenario"
    for row in gated:
        assert row["incremental_bytes_per_shard"] > 0
        assert row["incremental_fraction"] <= 0.10, (
            f"shards={row['shards']}: one epoch of delta is "
            f"{row['incremental_fraction']:.0%} of the full snapshot "
            f"({row['incremental_bytes_per_shard']} of "
            f"{row['state_bytes_per_shard']} bytes)"
        )


def test_committed_codec_shootout_gate(bench_runner):
    """The pluggable-codec acceptance numbers, from the newest committed
    run: every raced codec attributes perfectly and completes the exact
    same task trace as the square-shell baseline (behaviour is
    codec-independent by construction), and the binprop-16 composer's
    minted index bit-width does not exceed square-shell's at 16 shards --
    shrinking the global-index footprint is the reason the codec seam
    exists, so widening it is a regression."""
    committed = _RUNNER.parent / "BENCH_eval.json"
    latest = json.loads(committed.read_text())["runs"][-1]
    rows = latest["scenarios"]["codec_shootout"]["rows"]
    assert set(rows) == set(bench_runner.CODEC_SHOOTOUT)
    baseline = rows["square-shell"]
    for name, row in rows.items():
        assert row["attribution_failures"] == 0, name
        assert row["tasks_completed"] == baseline["tasks_completed"], name
    assert (
        rows["binprop-16"]["max_task_index_bits"]
        <= baseline["max_task_index_bits"]
    ), "binprop-16 must not mint wider indices than the square-shell baseline"


def test_committed_waiver_census(bench_runner):
    """The newest committed run carries the reprolint waiver census, and
    its internal sums agree -- the escape-hatch count is reviewed
    trajectory history, not invisible drift."""
    committed = _RUNNER.parent / "BENCH_eval.json"
    latest = json.loads(committed.read_text())["runs"][-1]
    waivers = latest["scenarios"]["staticcheck"]["waivers"]
    assert waivers["total"] == sum(waivers["by_rule"].values())
    assert waivers["total"] == sum(waivers["by_module"].values())
    assert latest["scenarios"]["staticcheck"]["unsuppressed_findings"] == 0


def test_committed_staticcheck_cache_gate(bench_runner):
    """The v2 acceptance numbers, from the newest committed run: a warm
    cached run on the unchanged tree is >= 5x faster than cold, and a
    one-file edit re-analyzes only a proper subset of the tree."""
    committed = _RUNNER.parent / "BENCH_eval.json"
    latest = json.loads(committed.read_text())["runs"][-1]
    lint = latest["scenarios"]["staticcheck"]
    assert lint["warm_speedup"] >= 5
    assert lint["warm_hit_rate"] == 1.0
    assert 0 < lint["incremental_reanalyzed"] < lint["files"]
    assert lint["incremental_fraction"] < 1.0


def test_committed_per_function_invalidation_gate(bench_runner):
    """The v3/v4 acceptance numbers: a comment-only edit re-analyzes
    exactly the edited file (no function structure hash moved), and a
    summary-neutral body edit to the hot registry entry point
    re-analyzes strictly fewer files than the v3 reverse call-graph
    closure -- the summary-delta cut proves the consumers unaffected
    instead of walking them."""
    committed = _RUNNER.parent / "BENCH_eval.json"
    latest = json.loads(committed.read_text())["runs"][-1]
    assert latest["mode"] == "full", "committed trajectory must end on a full run"
    edits = latest["scenarios"]["staticcheck"]["incremental_edits"]
    comment = edits["comment_edit"]
    assert comment["reanalyzed"] == 1
    assert comment["changed_functions"] == 0
    assert comment["invalidated_functions"] == 0
    assert comment["reanalyzed"] < comment["v2_closure_files"]
    semantic = edits["semantic_edit"]
    assert semantic["changed_functions"] >= 1
    # The edit is summary-neutral: the fixpoint comparison skips every
    # transitive caller the v3 closure would have re-run.
    assert semantic["invalidated_functions"] == 0
    assert semantic["reanalyzed"] == 1
    assert semantic["skipped_by_summary"] >= 1
    assert semantic["v3_closure_files"] > semantic["reanalyzed"]
    assert semantic["reanalyzed"] < semantic["v2_closure_files"]
