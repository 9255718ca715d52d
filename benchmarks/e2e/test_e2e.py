"""Self-test of the end-to-end benchmark at smoke sizes (a few seconds).

Run with ``python3 -m pytest benchmarks/e2e/test_e2e.py -q`` from the
repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402

# Every test may import repro (and the workload modules that do) on its
# own, in any order.
run.load_program()

#: Metrics that count rather than time: they must repeat exactly on a seed.
COUNTS = (
    "engine.max_index_bits",
    "apf.unpair_per_task",
    "codecs.pair_per_task",
    "codecs.unpair_per_task",
    "events.publish_per_task",
    "recovery.journal_per_task",
    "recovery.replayed_ops_per_bounce",
    "shardworker.round_trips_per_round",
    "cache.reanalyzed_comment",
    "cache.reanalyzed_neutral",
    "cache.reanalyzed_summary",
)


def _smoke(workload: str, *, seed: int = 2002, trace: bool = False):
    return run.measure(workload, seed, 0, trace=trace, smoke=True)


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_declared_metrics_are_the_emitted_ones(capsys):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for trace, key, table in ((0, "end_to_end", run.END_TO_END), (1, "per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert declared == table
        code = run.main(["--workload", "lint", "--smoke", "--seconds", "0", "--trace", str(trace)])
        line = _last_line(capsys)
        assert code == 0
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in line["metrics"].items()} == declared


def test_an_audit_naming_the_wrong_volunteer_fails_the_run(monkeypatch, capsys):
    from repro.webcompute import WBCServer

    attribute = WBCServer.attribute
    monkeypatch.setattr(WBCServer, "attribute", lambda self, index: attribute(self, index) + 1)
    assert run.main(["--workload", "single", "--smoke", "--seconds", "0"]) == 1
    line = _last_line(capsys)
    assert not line["correct"] and line["failed"] > 0


def test_cached_findings_that_differ_from_the_cold_run_are_failures(monkeypatch):
    from repro.staticcheck.cache import AnalysisCache

    get = AnalysisCache.get
    monkeypatch.setattr(
        AnalysisCache, "get", lambda self, path: dataclasses.replace(get(self, path), findings=[])
    )
    result = _smoke("lint")
    assert result.failed > 0 and result.failed / result.attempted > 0


def test_counts_repeat_exactly_on_one_seed():
    for workload in run.WORKLOADS:
        first, second = _smoke(workload, trace=True), _smoke(workload, trace=True)
        assert first.failed == second.failed == 0
        for name in COUNTS:
            assert first.metrics.get(name) == second.metrics.get(name), (workload, name)
        stored = [_smoke(workload).metrics["state_bytes_per_item"] for _ in range(2)]
        assert stored[0] == stored[1] > 0, workload


def test_outputs_are_correct_on_a_second_seed():
    for workload in run.WORKLOADS:
        result = _smoke(workload, seed=7)
        assert result.attempted > 0 and result.failed == 0, (workload, result.errors)


def test_trace_covers_the_run_and_reports_missing_targets(monkeypatch):
    import lint

    monkeypatch.setattr(
        lint,
        "TARGETS",
        lint.TARGETS
        + [
            ("gone", "repro.staticcheck.cache:NoSuchClass", None),
            ("gone", "repro.staticcheck.cache:AnalysisCache", ("no_such_method",)),
        ],
    )
    result = _smoke("lint", trace=True)
    assert result.failed == 0
    assert "repro.staticcheck.cache:NoSuchClass" in result.absent
    assert "repro.staticcheck.cache:AnalysisCache.no_such_method" in result.absent
    assert result.metrics["trace.coverage"] >= 0.95
    assert _smoke("sharded", trace=True).metrics["trace.coverage"] >= 0.95


def test_lint_runs_in_a_checkout_under_a_hidden_directory(tmp_path):
    checkout = tmp_path / ".hidden" / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", "lint-work")
    shutil.copytree(ROOT / "src", checkout / "src", ignore=ignore)
    shutil.copytree(HERE, checkout / "benchmarks" / "e2e", ignore=ignore)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "lint", "--smoke", "--seconds", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["failed"] == 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [*command, "--workload", "single", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
