"""The layering lint gate.

The AllocationEngine refactor established two tree-wide rules: no dead
imports, and no module reaches into another object's private state --
specifically, nothing outside ``ledger.py`` touches the ledger's
``_records`` / ``_tasks`` (the ledger is the system of record; neighbors
use its public read API).

Both rules now live in reprolint's R004 checker
(:mod:`repro.staticcheck.checkers.layering`), which replaced this
module's ad-hoc AST fallback and extended the contract from the
webcompute package to the whole tree, plus the import DAG.  This gate
runs R004 through the real analyzer, and still runs ``ruff check`` as an
independent second opinion when ruff is installed (the suite's required
environment does not ship it).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.staticcheck import analyze_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
WEBCOMPUTE = SRC / "repro" / "webcompute"


class TestLintGate:
    def test_r004_clean_over_src(self, src_runs):
        """Dead imports, private-state reach-ins, and import-DAG breaks:
        all R004, all zero over the library tree (read off the session's
        full-rule run of ``src/``)."""
        r004 = [f for f in src_runs[0].findings if f.rule == "R004"]
        assert not r004, "\n".join(f.render() for f in r004)

    def test_r004_covers_the_old_webcompute_scope(self):
        # The old fallback only watched src/repro/webcompute; make sure
        # the R004 run actually visited it (scope did not silently shrink).
        modules = sorted(WEBCOMPUTE.glob("*.py"))
        assert len(modules) >= 10, [m.name for m in modules]
        result = analyze_paths([WEBCOMPUTE], rules=["R004"])
        assert result.files == len(modules)
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_ruff_clean_when_available(self):
        if shutil.which("ruff") is None:
            pytest.skip("ruff not installed; reprolint R004 carries the gate")
        result = subprocess.run(
            ["ruff", "check", "src/repro", "tests", "benchmarks"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr


def test_gate_runs_on_this_interpreter(src_runs):
    # The gate is only meaningful if it parsed real files; sanity-check the
    # scope is non-trivial.
    assert src_runs[0].files >= 50
    assert sys.version_info >= (3, 10)
