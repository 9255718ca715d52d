"""The tier-1 reprolint gate: the shipped tree is clean.

Four guarantees:

* ``analyze_paths(src/)`` with the repo's own ``[tool.reprolint]``
  config reports zero unsuppressed findings;
* every ``allow[...]`` suppression in the tree is load-bearing -- the
  R000 meta-rule turns any stale one into a finding, so deleting a
  violation without deleting its waiver (or vice versa) fails this gate;
* the CLI entry points (``python -m repro.staticcheck``, ``repro-pf
  lint``) agree with the library call;
* a warm run on an unchanged tree reloads every file from the cache and
  is at least 5x faster than the cold run that filled it.

The cold run over ``src/`` is the expensive part, so it runs once per
session (with a fresh cache, in ``conftest.py``'s ``src_runs``) and the
tests share it.  The CLI entry points run with their default ``--cache``
over a temporary copy of ``src/`` (:func:`src_copy`), so they never read
or rewrite the checkout's ``.reprolint-cache.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.staticcheck import ReprolintConfig, analyze_paths
from repro.staticcheck.cache import CACHE_FILENAME

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
ENGINE = SRC / "repro" / "webcompute" / "engine.py"


@pytest.fixture(scope="module")
def src_copy(tmp_path_factory):
    """A temporary checkout holding copies of ``src/`` and
    ``pyproject.toml``.  The CLI keeps its cache next to the governing
    ``pyproject.toml``, so runs over the copy start from no cache and
    leave the checkout's untouched."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(SRC, root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO_ROOT / "pyproject.toml", root)
    return root


class TestGate:
    def test_src_tree_is_clean(self, src_runs):
        result = src_runs[0]
        assert result.files >= 80, "analyzer scope shrank suspiciously"
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_suppressions_are_present_and_counted(self, src_runs):
        # The cleanup pass shipped a reviewed waiver set; if this number
        # drifts, either a violation was silently added under an existing
        # waiver's wing or a waiver disappeared without this test knowing.
        result = src_runs[0]
        sites = {(f.path, line) for f, line in result.suppressed}
        assert len(sites) >= 15, sorted(sites)
        assert len(result.suppressed) >= 20
        assert sum(result.suppressed_counts_by_rule().values()) == len(
            result.suppressed
        )

    def test_warm_cache_reloads_everything_5x_faster(self, src_runs):
        cold, cold_s, warm, warm_s = src_runs
        assert cold.cache_stats.misses == cold.files
        assert warm.cache_stats.hit_rate == 1.0
        assert [f.render() for f in warm.findings] == [
            f.render() for f in cold.findings
        ]
        assert len(warm.suppressed) == len(cold.suppressed)
        assert cold_s >= 5 * warm_s, f"cold {cold_s:.3f} s, warm {warm_s:.3f} s"

    def test_every_suppression_is_load_bearing(self):
        # Strip every allow comment from a copy of engine.py: the
        # violations they waive must resurface.  This is the acceptance
        # criterion "deleting any single suppression makes the gate fail"
        # run in reverse -- R000 covers the forward direction tree-wide.
        stripped = "\n".join(
            line.split("# reprolint: allow[")[0].rstrip()
            for line in ENGINE.read_text().splitlines()
        )
        config = ReprolintConfig(event_classes=("AllocationEngine",))
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "engine.py"
            copy.write_text(stripped + "\n")
            bare = analyze_paths([copy], config=config, rules=["R003", "R005"])
            intact = analyze_paths([ENGINE], config=config, rules=["R003", "R005"])
        assert len(bare.findings) >= 4  # codec, bus, tick, restore_state
        assert intact.ok
        assert len(intact.suppressed) == len(bare.findings)

    def test_module_cli_agrees(self, src_copy):
        result = subprocess.run(
            [sys.executable, "-m", "repro.staticcheck", "src", "--json"],
            cwd=src_copy,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["ok"] is True
        assert payload["counts_by_rule"] == {}
        assert payload["files"] >= 80
        assert (src_copy / CACHE_FILENAME).is_file()

    def test_repro_cli_lint_subcommand(self, src_copy, capsys, monkeypatch):
        from repro.cli import main

        # Same relative path as the module CLI run, so its cache is warm.
        monkeypatch.chdir(src_copy)
        assert main(["lint", "src"]) == 0
        assert "clean" in capsys.readouterr().out
        assert (src_copy / CACHE_FILENAME).is_file()
