"""The incremental cache and the parallel runner: correctness first
(cached results are byte-identical to cold results), then the
invalidation semantics (content hash, config hash, reverse-call
closure), then the escape hatches (``--no-cache``, corrupt cache files,
deleted files)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.staticcheck import analyze_paths
from repro.staticcheck.cache import (
    CACHE_FILENAME,
    CACHE_SCHEMA,
    AnalysisCache,
    config_hash,
)
from repro.staticcheck.config import ReprolintConfig
from repro.staticcheck.model import ANALYZER_VERSION, Finding
from repro.staticcheck.reporters import JSON_SCHEMA, render_json
from repro.staticcheck.runner import run_cli


@pytest.fixture()
def project(tmp_path: Path) -> Path:
    """A miniature package with a known import chain (a -> b -> c), a
    standalone module, and one real R002 finding (in ``c``, so edits to
    it exercise finding re-computation through the closure)."""
    (tmp_path / "pyproject.toml").write_text(
        "[tool.reprolint.r002]\n"
        'deterministic-modules = ["pkg.*"]\n'
    )
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "from pkg.b import helper_b\n\n\ndef helper_a():\n    return helper_b() + 1\n"
    )
    (pkg / "b.py").write_text(
        "from pkg.c import base\n\n\ndef helper_b():\n    return base() + 1\n"
    )
    (pkg / "c.py").write_text(
        "import time\n\n\ndef base():\n    return time.time()\n"
    )
    (tmp_path / "solo.py").write_text("def solo():\n    return 0\n")
    return tmp_path


def run(project: Path, **kwargs):
    return analyze_paths(
        [project], cache=True, cache_path=project / CACHE_FILENAME, **kwargs
    )


class TestWarmRuns:
    def test_cold_then_warm_identical_results(self, project: Path):
        cold = run(project)
        assert cold.cache_stats is not None
        assert cold.cache_stats.misses == 5 and cold.cache_stats.hits == 0
        warm = run(project)
        assert warm.cache_stats.hits == 5 and warm.cache_stats.misses == 0
        assert [f.render() for f in warm.findings] == [
            f.render() for f in cold.findings
        ]
        assert len(cold.findings) == 1  # the time.time() read in pkg.c
        assert cold.findings[0].rule == "R002"

    def test_cache_file_is_written_and_versioned(self, project: Path):
        run(project)
        raw = json.loads((project / CACHE_FILENAME).read_text())
        assert raw["schema"] == CACHE_SCHEMA
        assert raw["key"] == config_hash(_config_of(project), None)
        assert len(raw["files"]) == 5

    def test_suppressed_findings_survive_the_cache(self, project: Path):
        (project / "pkg" / "c.py").write_text(
            "import time\n\n\ndef base():\n"
            "    return time.time()  # reprolint: allow[R002] test clock\n"
        )
        cold = run(project)
        warm = run(project)
        assert cold.findings == [] and warm.findings == []
        assert len(warm.suppressed) == len(cold.suppressed) == 1


class TestInvalidation:
    def test_editing_a_leaf_reanalyzes_only_it(self, project: Path):
        run(project)
        (project / "solo.py").write_text("def solo():\n    return 42\n")
        result = run(project)
        assert result.cache_stats.misses == 1
        assert result.cache_stats.invalidated == 0
        assert result.cache_stats.hits == 4

    def test_summary_neutral_edit_skips_the_reverse_closure(
        self, project: Path
    ):
        run(project)
        # Wrapping the entropy read in int() changes the body but not
        # the function's summary (same ENTROPY taint, same line): v4
        # re-analyzes only c itself where the v3 reverse-call closure
        # walked b and a too.
        (project / "pkg" / "c.py").write_text(
            "import time\n\n\ndef base():\n    return int(time.time())\n"
        )
        result = run(project)
        assert result.cache_stats.misses == 1
        assert result.cache_stats.invalidated == 0
        assert result.cache_stats.hits == 4
        assert result.cache_stats.skipped_by_summary == 2  # base's b and a callers
        assert result.cache_stats.closure_files == 3  # what v3 would have re-analyzed
        # The closure skip must not lose findings: the R002 finding in
        # c recomputes, and the hits replay theirs unchanged.
        assert [f.rule for f in result.findings] == ["R002"]

    def test_summary_changing_edit_invalidates_the_reverse_closure(
        self, project: Path
    ):
        run(project)
        # Removing the entropy read moves base's summary (its ENTROPY
        # taint disappears), so both consumers re-analyze and their
        # R002 findings dissolve.
        (project / "pkg" / "c.py").write_text(
            "def base():\n    return 7\n"
        )
        result = run(project)
        assert result.cache_stats.misses == 3
        assert result.cache_stats.invalidated == 2
        assert result.cache_stats.hits == 2
        assert result.cache_stats.skipped_by_summary == 0
        assert result.findings == []

    def test_config_change_invalidates_everything(self, project: Path):
        run(project)
        (project / "pyproject.toml").write_text(
            "[tool.reprolint.r002]\n"
            'deterministic-modules = ["pkg.*", "solo"]\n'
        )
        result = run(project)
        assert result.cache_stats.misses == 5 and result.cache_stats.hits == 0

    def test_rules_selection_is_part_of_the_key(self, project: Path):
        run(project)
        narrowed = run(project, rules=["R004"])
        assert narrowed.cache_stats.misses == 5
        full_again = run(project)
        assert full_again.cache_stats.misses == 5  # narrowed run replaced the key

    def test_new_analyzer_version_invalidates(self, project: Path):
        run(project)
        cache_file = project / CACHE_FILENAME
        raw = json.loads(cache_file.read_text())
        raw["key"] = "0" * 16  # what an older analyzer would have written
        cache_file.write_text(json.dumps(raw))
        result = run(project)
        assert result.cache_stats.misses == 5

    def test_deleted_file_drops_its_entry(self, project: Path):
        run(project)
        (project / "solo.py").unlink()
        result = run(project)
        assert result.files == 4
        assert result.cache_stats.hits == 4
        raw = json.loads((project / CACHE_FILENAME).read_text())
        assert not any(path.endswith("solo.py") for path in raw["files"])


class TestEscapeHatches:
    def test_no_cache_mode_writes_nothing(self, project: Path):
        result = analyze_paths([project], cache=False)
        assert result.cache_stats is None
        assert not (project / CACHE_FILENAME).exists()

    def test_corrupt_cache_degrades_to_cold(self, project: Path):
        (project / CACHE_FILENAME).write_text("{ not json")
        result = run(project)
        assert result.cache_stats.misses == 5
        assert len(result.findings) == 1  # analysis is unharmed

    def test_load_rejects_foreign_schema(self, tmp_path: Path):
        target = tmp_path / CACHE_FILENAME
        target.write_text(json.dumps({"schema": "other/1", "key": "k", "files": {}}))
        cache = AnalysisCache.load(target, "k")
        assert cache.entries == {}


class TestParallelAndCli:
    def test_pool_results_match_serial(self, project: Path):
        serial = analyze_paths([project], cache=False, jobs=1)
        pooled = analyze_paths([project], cache=False, jobs=2)
        assert [f.render() for f in pooled.findings] == [
            f.render() for f in serial.findings
        ]
        assert sorted(
            (f.render(), line) for f, line in pooled.suppressed
        ) == sorted((f.render(), line) for f, line in serial.suppressed)

    def test_cli_defaults_to_cache_and_no_cache_opts_out(
        self, project: Path, capsys, monkeypatch
    ):
        monkeypatch.chdir(project)
        assert run_cli([str(project), "--no-cache"]) == 1
        assert not (project / CACHE_FILENAME).exists()
        assert run_cli([str(project)]) == 1
        assert (project / CACHE_FILENAME).exists()
        out = capsys.readouterr().out
        assert "cache: 0 hit / 5 analyzed" in out

    def test_cli_jobs_flag(self, project: Path, capsys, monkeypatch):
        monkeypatch.chdir(project)
        assert run_cli([str(project), "--no-cache", "--jobs", "2"]) == 1
        assert "finding(s)" in capsys.readouterr().out

    def test_changed_outside_git_degrades_to_full_report(
        self, project: Path, capsys, monkeypatch
    ):
        """``--changed`` with no git repo warns and reports everything
        (the analysis is identical either way); it must not exit 2."""
        monkeypatch.chdir(project)
        assert run_cli([str(project), "--no-cache", "--changed"]) == 1
        captured = capsys.readouterr()
        assert "--changed unavailable" in captured.err
        assert "c.py" in captured.out  # the R002 finding is reported unfiltered


class TestJsonSchemaV4:
    def test_round_trip(self, project: Path):
        result = run(project)
        payload = json.loads(render_json(result))
        assert payload["schema"] == JSON_SCHEMA == "repro.reprolint/4"
        assert payload["analyzer_version"] == ANALYZER_VERSION
        assert payload["config_hash"] == result.config_hash != ""
        assert payload["cache"]["hits"] + payload["cache"]["misses"] == 5
        assert 0.0 <= payload["cache"]["hit_rate"] <= 1.0
        assert payload["cache"]["skipped_by_summary"] == 0  # cold run skips nothing
        assert "closure_files" in payload["cache"]
        rebuilt = [Finding.from_dict(f) for f in payload["findings"]]
        assert rebuilt == result.findings

    def test_cache_block_is_null_when_disabled(self, project: Path):
        result = analyze_paths([project], cache=False)
        payload = json.loads(render_json(result))
        assert payload["cache"] is None


def _config_of(project: Path) -> ReprolintConfig:
    from repro.staticcheck.config import load_config

    return load_config(project)[0]
