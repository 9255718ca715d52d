"""The analysis driver: load files, run checkers, match suppressions,
report, exit.

v2 structure: all per-file work lives in :func:`analyze_file`, a pure
picklable worker, so the same code path serves three execution modes --

* **serial** (the default on one core, and for small dirty sets);
* **multiprocessing** (``--jobs N``): cold full-tree runs fan the worker
  out over a process pool (workers inherit the project summaries via a
  pool initializer, so the oracle is shipped once per worker);
* **cached** (``--cache``/``--no-cache``): reuse each file's stored
  outcome unless its content hash changed or it owns a function in the
  dirty call-graph closure (see :mod:`repro.staticcheck.cache`).

v3 adds a project phase before the per-file phase: function seeds for
every file (cached ones come from their cache entries, changed ones
from the planner's re-extraction, and with the cache off everything is
seeded in-process) are closed into a
:class:`~repro.staticcheck.summaries.ProjectSummaries` oracle that each
per-file analysis consults for cross-module taint and mutation facts.
A fully-warm run analyzes nothing and therefore never builds the
oracle -- the ~10 ms warm path is untouched.

v4 reuses the fixpoint the cache planner already solved for its
summary delta (the oracle is never computed twice per run), and runs
the R006 message-grammar conformance pass once per run in the parent:
per-file grammar facts ride in the cache records, conformance is a set
comparison over them, so even a fully-warm run judges the grammar
without touching an AST.

Project-level checks (``Checker.check_project``, e.g. R004's allowance
cycles) run exactly once per analysis in the parent process; they
depend only on the config, so they are never cached and never
suppressible.

Exit-code contract (what CI keys off):

* ``0`` -- zero unsuppressed findings;
* ``1`` -- at least one finding (including ``R000`` stale suppressions
  and unparsable files);
* ``2`` -- usage or configuration error.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from repro.staticcheck.cache import (
    CACHE_FILENAME,
    AnalysisCache,
    CachedFile,
    CacheStats,
    config_hash,
    content_hash,
)
from repro.staticcheck.checkers import ALL_CHECKERS
from repro.staticcheck.checkers.message_grammar import (
    grammar_conformance,
    harvest_grammar,
)
from repro.staticcheck.config import ConfigError, ReprolintConfig, load_config
from repro.staticcheck.loader import (
    iter_python_files,
    load_module,
    module_imports,
    module_name_for,
)
from repro.staticcheck.model import ANALYZER_VERSION, USELESS_SUPPRESSION, Finding
from repro.staticcheck.reporters import render_json, render_text
from repro.staticcheck.summaries import (
    FunctionSeed,
    ProjectSummaries,
    extract_file_seeds,
)

__all__ = ["AnalysisResult", "analyze_paths", "analyze_file", "run_cli", "main"]

#: Rule reported for files the parser rejects (not suppressible: a file
#: the analyzer cannot read is a file none of the invariants cover).
PARSE_ERROR = "E999"

#: Below this many files to analyze, a process pool costs more than it
#: saves; stay serial regardless of ``jobs``.
_POOL_THRESHOLD = 2


@dataclass(slots=True)
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: list[Finding] = field(default_factory=list)
    #: Findings waived by an allow comment; ``suppressed_by`` keyed by
    #: ``(path, suppression_line)`` -- the gate test uses this to prove
    #: every suppression in the tree is load-bearing.
    suppressed: list[tuple[Finding, int]] = field(default_factory=list)
    files: int = 0
    elapsed_s: float = 0.0
    config_path: Path | None = None
    #: Analyzer identity, for reports and regression tracking.
    analyzer_version: str = ANALYZER_VERSION
    #: The composite cache key this run's results are valid under.
    config_hash: str = ""
    #: Hit/miss accounting when the cache was enabled, else ``None``.
    cache_stats: CacheStats | None = None

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return dict(sorted(out.items()))

    def suppressed_counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding, _line in self.suppressed:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return dict(sorted(out.items()))


def analyze_file(
    path_str: str,
    config: ReprolintConfig,
    requested: frozenset[str] | None,
    digest: str = "",
    project: ProjectSummaries | None = None,
    seeds: dict[str, FunctionSeed] | None = None,
) -> tuple[str, CachedFile]:
    """Analyze one file, completely: load, run every active checker,
    match suppressions, report stale suppressions.  Pure function of
    (file content, config, requested rules, project summaries) -- the
    property both the cache and the process pool rely on.  *seeds* are
    the file's already-extracted function seeds, stored into the cache
    record so warm planning never re-parses the file."""
    file_path = Path(path_str)
    try:
        module = load_module(file_path)
    except SyntaxError as exc:
        # Never memoized as clean: the record keeps the E999 finding
        # (replayed on warm hits) and carries no function seeds, so the
        # broken file contributes nothing to the project oracle.
        record = CachedFile(hash=digest, module=module_name_for(file_path))
        record.findings.append(
            Finding(
                rule=PARSE_ERROR,
                path=path_str,
                line=exc.lineno or 1,
                message=f"cannot parse: {exc.msg}",
            )
        )
        return path_str, record
    module.project = project
    active = config.rules_for(module.name)
    if requested is not None:
        active &= requested
    raw: list[Finding] = []
    for checker in ALL_CHECKERS:
        if checker.code in active:
            raw.extend(checker.check(module, config))
    record = CachedFile(
        hash=digest,
        module=module.name,
        imports=tuple(sorted({t for t, _ in module_imports(module.tree, module.name)})),
        functions=dict(seeds) if seeds else {},
        grammar=(
            harvest_grammar(module, config)
            if "R006" in active and config.grammars
            else ()
        ),
    )
    for finding in raw:
        suppression = module.suppression_for(finding.rule, finding.line)
        if suppression is None:
            record.findings.append(finding)
        else:
            suppression.matched.add(finding.rule)
            record.suppressed.append((finding, suppression.line))
    # A suppression whose rules all ran and matched nothing is stale.
    for suppression in module.suppressions:
        if suppression.used:
            continue
        if not suppression.rules <= active:
            continue  # some listed rule didn't run; can't judge it
        record.findings.append(
            Finding(
                rule=USELESS_SUPPRESSION,
                path=finding_path(module.path),
                line=suppression.line,
                message=(
                    f"allow[{','.join(sorted(suppression.rules))}] "
                    "matched no finding; delete the stale suppression"
                ),
                module=module.name,
            )
        )
    return path_str, record


#: Per-worker project oracle, installed once by the pool initializer so
#: it is pickled per *worker*, not per task.
_WORKER_PROJECT: ProjectSummaries | None = None


def _pool_init(project: ProjectSummaries | None) -> None:
    global _WORKER_PROJECT
    _WORKER_PROJECT = project


def _pool_worker(
    args: tuple[str, ReprolintConfig, frozenset[str] | None, str, dict[str, FunctionSeed]],
) -> tuple[str, CachedFile]:
    path_str, config, requested, digest, seeds = args
    return analyze_file(
        path_str, config, requested, digest, project=_WORKER_PROJECT, seeds=seeds
    )


def _effective_jobs(jobs: int | None) -> int:
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


def analyze_paths(
    paths: Sequence[Path | str],
    config: ReprolintConfig | None = None,
    rules: Sequence[str] | None = None,
    *,
    cache: bool = False,
    cache_path: Path | None = None,
    jobs: int | None = None,
    report_only: Iterable[Path | str] | None = None,
) -> AnalysisResult:
    """Run the checkers over every ``.py`` file under *paths*.

    *config* defaults to the ``[tool.reprolint]`` table of the nearest
    ``pyproject.toml`` above the first path.  *rules* optionally narrows
    the run to a subset of codes (``R000`` stale-suppression reporting
    then only considers those codes, so a narrowed run never flags a
    suppression whose rule simply did not execute).

    *cache* enables the incremental cache (library default off; the CLI
    defaults it on).  *cache_path* overrides its location, which is
    otherwise ``.reprolint-cache.json`` next to the governing
    ``pyproject.toml``.  *jobs* sets the process-pool width for the
    files that actually need analysis (``None``/``0`` = one per CPU,
    ``1`` = serial).

    *report_only* keeps the *analysis* project-wide (so cross-module
    facts and the cache stay correct) but filters the reported findings
    to the given files -- the ``--changed`` fast path.  Project-level
    findings (anchored to the config file) always survive the filter.
    """
    started = time.perf_counter()
    path_objs = [Path(p) for p in paths]
    result = AnalysisResult()
    if config is None:
        if not path_objs:
            raise ValueError("no paths to analyze")
        config, result.config_path = load_config(path_objs[0])
    requested = (
        frozenset(code.upper() for code in rules) if rules is not None else None
    )
    result.config_hash = config_hash(config, requested)

    files = [str(p) for p in iter_python_files(path_objs)]
    result.files = len(files)

    store: AnalysisCache | None = None
    targets: list[tuple[str, str]]  # (path, content hash) needing analysis
    fresh_seeds: dict[str, dict[str, FunctionSeed]] = {}
    planned_project: ProjectSummaries | None = None
    if cache:
        if cache_path is None:
            anchor = (
                result.config_path.parent
                if result.config_path is not None
                else Path.cwd()
            )
            cache_path = anchor / CACHE_FILENAME
        store = AnalysisCache.load(cache_path, result.config_hash)
        hashes = {path: content_hash(Path(path)) for path in files}
        plan = store.plan(hashes, extract=extract_file_seeds)
        changed, invalidated = plan.changed, plan.invalidated
        fresh_seeds = plan.fresh_seeds
        result.cache_stats = CacheStats(
            hits=len(files) - len(changed) - len(invalidated),
            misses=len(changed) + len(invalidated),
            invalidated=len(invalidated),
            changed_functions=plan.changed_functions,
            invalidated_functions=plan.invalidated_functions,
            skipped_by_summary=plan.skipped_by_summary,
            closure_files=plan.closure_files,
        )
        planned_project = plan.project
        targets = [(path, hashes[path]) for path in files if path in changed or path in invalidated]
    else:
        targets = [(path, "") for path in files]

    # Project phase: close every file's function seeds into the
    # cross-module oracle.  Skipped on fully-warm runs (no targets) --
    # nothing re-analyzes, so nobody consults it.
    project: ProjectSummaries | None = None
    seed_map: dict[str, dict[str, FunctionSeed]] = {}
    if targets and planned_project is not None:
        # v4: the planner already solved the post-change fixpoint for
        # the summary delta -- reuse it as the oracle and seed only the
        # files actually being re-analyzed.
        project = planned_project
        for path, _digest in targets:
            if path in fresh_seeds:
                seed_map[path] = fresh_seeds[path]
            else:
                entry = store.entries.get(path) if store is not None else None
                seed_map[path] = (
                    entry.functions if entry is not None else extract_file_seeds(path)
                )
    elif targets:
        by_module: dict[str, dict[str, FunctionSeed]] = {}
        for path in files:
            entry = store.entries.get(path) if store is not None else None
            if path in fresh_seeds:
                seeds = fresh_seeds[path]
                module_name = (
                    entry.module if entry is not None else module_name_for(Path(path))
                )
            elif entry is not None:
                seeds = entry.functions
                module_name = entry.module
            else:
                seeds = extract_file_seeds(path)
                module_name = module_name_for(Path(path))
            seed_map[path] = seeds
            by_module.setdefault(module_name, {}).update(seeds)
        project = ProjectSummaries(by_module)

    outcomes: dict[str, CachedFile] = {}
    pool_jobs = _effective_jobs(jobs)
    if pool_jobs > 1 and len(targets) >= _POOL_THRESHOLD:
        work = [
            (path, config, requested, digest, seed_map.get(path, {}))
            for path, digest in targets
        ]
        with multiprocessing.Pool(
            processes=pool_jobs, initializer=_pool_init, initargs=(project,)
        ) as pool:
            for path, record in pool.map(_pool_worker, work):
                outcomes[path] = record
    else:
        for path, digest in targets:
            _, record = analyze_file(
                path, config, requested, digest,
                project=project, seeds=seed_map.get(path, {}),
            )
            outcomes[path] = record

    grammar_facts: dict[str, tuple[str, tuple]] = {}
    for path in files:
        if path in outcomes:
            record = outcomes[path]
            if store is not None:
                store.put(path, record)
        else:
            assert store is not None  # only cache hits skip analysis
            record = store.get(path)
        result.findings.extend(record.findings)
        result.suppressed.extend(record.suppressed)
        if record.grammar:
            grammar_facts[path] = (record.module, record.grammar)

    # Project-level checks: once per run, parent process, never cached
    # (they read only the config) and never suppressible.
    for checker in ALL_CHECKERS:
        if requested is not None and checker.code not in requested:
            continue
        result.findings.extend(checker.check_project(config, result.config_path))

    # R006 conformance: judged over the harvested (possibly cached)
    # per-file facts -- pure set comparison, so warm runs pay no parse.
    if config.grammars and (requested is None or "R006" in requested):
        result.findings.extend(grammar_conformance(config, grammar_facts))

    if store is not None:
        store.save()

    result.findings.sort(key=Finding.sort_key)
    if report_only is not None:
        keep = {str(Path(p).resolve()) for p in report_only}
        config_str = (
            str(result.config_path.resolve())
            if result.config_path is not None
            else None
        )

        def _kept(path_str: str) -> bool:
            resolved = str(Path(path_str).resolve())
            return resolved in keep or resolved == config_str

        # R006 findings survive the filter: their evidence spans files,
        # so the anchor site may be clean while the edited file (say, a
        # handler losing a branch) is elsewhere.
        result.findings = [
            f for f in result.findings if f.rule == "R006" or _kept(f.path)
        ]
        result.suppressed = [
            (f, line) for f, line in result.suppressed if _kept(f.path)
        ]
    result.elapsed_s = time.perf_counter() - started
    return result


def finding_path(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="reprolint: AST-based invariant analysis (R001-R006)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON report"
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rules table and exit"
    )
    parser.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=True,
        help="reuse cached per-file results (default)",
    )
    parser.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="ignore and do not write the incremental cache",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for files needing analysis (0 = one per CPU)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "report findings only for files changed in git (working tree "
            "vs HEAD, plus untracked); the analysis itself stays "
            "project-wide so cross-module facts and the cache are exact"
        ),
    )
    return parser


def _git_changed_files() -> frozenset[str]:
    """Absolute paths of changed/untracked ``.py`` files per git.
    Raises ``RuntimeError`` on any git failure (not a repo, no HEAD,
    git missing) -- the CLI maps that to exit code 2."""

    def _git(*argv: str) -> str:
        try:
            proc = subprocess.run(
                ["git", *argv], capture_output=True, text=True, check=False
            )
        except FileNotFoundError as exc:
            raise RuntimeError("git not found on PATH") from exc
        if proc.returncode != 0:
            detail = proc.stderr.strip().splitlines()
            raise RuntimeError(
                f"git {argv[0]} failed: {detail[0] if detail else 'unknown error'}"
            )
        return proc.stdout

    root = Path(_git("rev-parse", "--show-toplevel").strip())
    names = _git("diff", "--name-only", "HEAD").splitlines()
    names += _git("ls-files", "--others", "--exclude-standard").splitlines()
    return frozenset(
        str(root / name) for name in names if name.endswith(".py")
    )


def run_cli(argv: Sequence[str] | None = None, stream: TextIO | None = None) -> int:
    out = stream if stream is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.list_rules:
        for checker in ALL_CHECKERS:
            print(f"{checker.code}  {checker.name}: {checker.summary}", file=out)
        return 0
    rules = None
    if args.rules:
        rules = [token.strip() for token in args.rules.split(",") if token.strip()]
    report_only = None
    if args.changed:
        try:
            report_only = _git_changed_files()
        except RuntimeError as exc:
            # Outside a repo (or any git failure), --changed has nothing
            # to filter by; degrade to the full report rather than fail
            # -- the analysis is identical either way, only the
            # reporting filter is lost.
            print(
                f"reprolint: warning: --changed unavailable ({exc}); "
                "reporting all findings",
                file=sys.stderr,
            )
            report_only = None
    try:
        result = analyze_paths(
            args.paths,
            rules=rules,
            cache=args.cache,
            jobs=args.jobs,
            report_only=report_only,
        )
    except (ConfigError, ValueError, OSError) as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    if result.files == 0:
        # Paths that name no Python file are a usage error: a clean
        # report over nothing would pass a gate without checking anything.
        parser.print_usage(sys.stderr)
        print(
            f"reprolint: error: no Python files under {' '.join(map(str, args.paths))}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(render_json(result), file=out)
    else:
        print(render_text(result), file=out)
    return 0 if result.ok else 1


def main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover
    return run_cli(argv)
