"""The analyzer framework around the checkers: suppression comments and
their anchors, the R000 stale-suppression meta-rule, config parsing and
pyproject discovery, module-name resolution, reporters, and CLI exit
codes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.staticcheck import ReprolintConfig, analyze_paths, load_config, run_cli
from repro.staticcheck.config import ConfigError, find_pyproject
from repro.staticcheck.loader import module_name_for
from repro.staticcheck.model import parse_suppressions
from repro.staticcheck.reporters import JSON_SCHEMA, render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "staticcheck_fixtures"
MINIPROJ = FIXTURES / "miniproj"

EXACT_EVERYTHING = ReprolintConfig(exact_modules=("*",))


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_all_three_placements_waive(self):
        # trailing comment, block comment above, and def-line block: every
        # division in the fixture is waived, nothing is stale.
        result = analyze_paths(
            [FIXTURES / "suppressed.py"], config=EXACT_EVERYTHING, rules=["R001"]
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)
        assert len(result.suppressed) == 4  # 1 trailing + 1 block + 2 in the def

    def test_stale_suppression_is_a_finding(self):
        result = analyze_paths(
            [FIXTURES / "stale.py"], config=EXACT_EVERYTHING, rules=["R001"]
        )
        assert [f.rule for f in result.findings] == ["R000"]
        assert result.findings[0].line == 6

    def test_stale_reporting_respects_narrowed_runs(self):
        # R001 did not run, so the analyzer cannot judge an allow[R001]:
        # no R000 on a rules=R003 pass.
        result = analyze_paths(
            [FIXTURES / "stale.py"], config=EXACT_EVERYTHING, rules=["R003"]
        )
        assert result.ok

    def test_docstring_allow_text_is_not_a_suppression(self):
        source = '"""Docs show `# reprolint: allow[R001]` as an example."""\nx = 1\n'
        assert parse_suppressions(source) == []

    def test_anchor_semantics(self):
        source = (
            "x = 1  # reprolint: allow[R001] trailing\n"
            "# reprolint: allow[R002] block\n"
            "# more prose\n"
            "y = 2\n"
        )
        trailing, block = parse_suppressions(source)
        assert (trailing.line, trailing.anchor) == (1, 1)
        assert (block.line, block.anchor) == (2, 4)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


class TestConfig:
    def test_package_glob_covers_the_package_itself(self):
        config = ReprolintConfig(exact_modules=("repro.core.*",))
        assert config.is_exact("repro.core")
        assert config.is_exact("repro.core.base")
        assert not config.is_exact("repro.perf.spread_cache")

    def test_longest_prefix_wins_for_import_allowance(self):
        config = ReprolintConfig(
            allowed_imports={
                "repro.core": ("repro.errors", "repro.core"),
                "repro.core.registry": ("repro.errors", "repro.core", "repro.apf"),
            }
        )
        assert "repro.apf" in config.import_allowance("repro.core.registry")
        assert "repro.apf" not in config.import_allowance("repro.core.base")
        assert config.import_allowance("repro.render") is None

    def test_per_module_disable(self):
        config = ReprolintConfig(per_module_disable={"pkg.waived": ("R001",)})
        assert "R001" not in config.rules_for("pkg.waived")
        assert "R001" in config.rules_for("pkg.exact_mod")

    def test_from_mapping_rejects_malformed_tables(self):
        with pytest.raises(ConfigError):
            ReprolintConfig.from_mapping({"r001": {"exact-modules": "not-a-list"}})
        with pytest.raises(ConfigError):
            ReprolintConfig.from_mapping({"r001": 5})
        with pytest.raises(ConfigError):
            ReprolintConfig.from_mapping(
                {"per-module": {"x": {"disable": ["R999"]}}}
            )

    def test_repo_pyproject_parses(self):
        config, path = load_config(REPO_ROOT / "src")
        assert path == REPO_ROOT / "pyproject.toml"
        assert config.is_exact("repro.core.base")
        assert config.is_deterministic("repro.webcompute.engine")
        assert "AllocationEngine" in config.event_classes

    def test_miniproj_discovery_and_override(self):
        # Analyzing the fixture project with no explicit config must find
        # miniproj/pyproject.toml, flag the exact module, and honor the
        # per-module waiver.
        result = analyze_paths([MINIPROJ / "pkg"])
        assert result.config_path == MINIPROJ / "pyproject.toml"
        flagged = {(f.module, f.rule) for f in result.findings}
        assert ("pkg.exact_mod", "R001") in flagged
        assert all(module != "pkg.waived" for module, _rule in flagged)

    def test_find_pyproject_stops_at_nearest(self):
        assert find_pyproject(MINIPROJ / "pkg") == MINIPROJ / "pyproject.toml"
        assert find_pyproject(REPO_ROOT / "src") == REPO_ROOT / "pyproject.toml"


# ---------------------------------------------------------------------------
# Module-name resolution
# ---------------------------------------------------------------------------


class TestModuleNames:
    def test_package_climb(self):
        path = REPO_ROOT / "src" / "repro" / "core" / "base.py"
        assert module_name_for(path) == "repro.core.base"

    def test_init_is_the_package(self):
        path = REPO_ROOT / "src" / "repro" / "core" / "__init__.py"
        assert module_name_for(path) == "repro.core"

    def test_climb_stops_outside_packages(self):
        assert module_name_for(MINIPROJ / "pkg" / "exact_mod.py") == "pkg.exact_mod"
        assert module_name_for(FIXTURES / "r001_bad.py") == "r001_bad"


# ---------------------------------------------------------------------------
# Reporters and CLI
# ---------------------------------------------------------------------------


class TestReportersAndCli:
    def test_text_report_summarizes(self):
        result = analyze_paths(
            [FIXTURES / "r001_bad.py"], config=EXACT_EVERYTHING, rules=["R001"]
        )
        text = render_text(result)
        assert "R001" in text and "finding(s)" in text

    def test_json_report_round_trips(self):
        result = analyze_paths(
            [FIXTURES / "r001_bad.py"], config=EXACT_EVERYTHING, rules=["R001"]
        )
        payload = json.loads(render_json(result))
        assert payload["schema"] == JSON_SCHEMA
        assert payload["ok"] is False
        assert payload["counts_by_rule"]["R001"] == len(result.findings)

    def test_exit_codes(self, capsys, tmp_path):
        assert run_cli([str(MINIPROJ / "pkg" / "exact_mod.py")]) == 1
        assert run_cli([str(MINIPROJ / "pkg" / "waived.py")]) == 0
        # Broken [tool.reprolint] is a usage error, not a crash.
        bad = tmp_path / "proj"
        bad.mkdir()
        (bad / "pyproject.toml").write_text("[tool.reprolint]\nr001 = 5\n")
        (bad / "mod.py").write_text("x = 1\n")
        assert run_cli([str(bad / "mod.py")]) == 2
        capsys.readouterr()

    def test_lint_under_a_hidden_directory(self, capsys, tmp_path):
        """Hidden directories are judged below the analysed path only: a
        project checked out under one (``~/.cache/...``) is analysed, and
        paths naming no Python file are a usage error."""
        from repro.cli import main

        project = tmp_path / ".hidden" / "miniproj"
        shutil.copytree(
            MINIPROJ, project, ignore=shutil.ignore_patterns(".reprolint-cache.json")
        )
        (project / "pkg" / ".skipped").mkdir()
        (project / "pkg" / ".skipped" / "mod.py").write_text("x = 1 / 2\n")
        capsys.readouterr()
        assert main(["lint", "--no-cache", "--json", str(project / "pkg")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 3
        assert payload["counts_by_rule"] == {"R001": 1}
        empty = tmp_path / ".hidden" / "empty"
        empty.mkdir()
        assert main(["lint", "--no-cache", str(empty)]) == 2
        assert "no Python files" in capsys.readouterr().err

    def test_json_flag_emits_parseable_report(self, capsys):
        code = run_cli([str(MINIPROJ / "pkg" / "exact_mod.py"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["counts_by_rule"] == {"R001": 1}

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.staticcheck", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        for rule in ("R001", "R002", "R003", "R004", "R005"):
            assert rule in result.stdout
