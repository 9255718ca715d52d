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
        # Both modes run the same server class and codec, so they mint
        # the same global indices -- at 1 shard too.
        assert (
            shard_rows[f"parallel_{s}"]["max_task_index_bits"]
            == shard_rows[f"serial_{s}"]["max_task_index_bits"]
        ), s
    # No monotonicity assertion on max_task_index: sharding *lowers*
    # per-engine row numbers (cheaper strides) while the square-shell
    # composition inflates the composed index -- which effect wins is
    # workload-dependent, and measuring that honestly is the point.


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


def test_committed_waiver_census(src_runs):
    """The reprolint waiver census of the committed ``src/`` tree, taken
    live: every ``# reprolint: allow[...]`` the tree leans on, counted by
    rule and by module, with sums that agree and nothing left
    unsuppressed -- the escape-hatch count the retired staticcheck
    scenario used to record in the trajectory."""
    result = src_runs[0]
    by_module: dict[str, int] = {}
    for finding, _line in result.suppressed:
        by_module[finding.module] = by_module.get(finding.module, 0) + 1
    total = len(result.suppressed)
    assert total > 0, "the committed tree carries no waivers at all"
    assert total == sum(result.suppressed_counts_by_rule().values())
    assert total == sum(by_module.values())
    assert not result.findings, "\n".join(f.render() for f in result.findings)
