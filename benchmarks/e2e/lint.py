"""The ``lint`` workload: reprolint over the seeded synthetic project of
:mod:`lintcorpus`, serial (``jobs=1``).

The project is written once per run.  One rep: set-up (a fresh
interpreter imports ``repro.staticcheck`` and loads the project's
config), then the timed phase -- a cold run (cache enabled, cache file
deleted, so everything is analyzed and the cache is filled), 20 warm
runs, and 2 repetitions of the edit sequence (comment-only,
summary-neutral, summary-changing edit of the hub helper), each
repetition followed by an untimed run that undoes the edits.  Every
run's findings are checked: the cold run against the corpus's expected
finding and waiver counts, every cached run of the unedited corpus
against the cold run finding by finding, and every edit against its
expected findings and re-analysis counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.staticcheck import load_config
from repro.staticcheck import runner

import lintcorpus
import tracing
from measure import Result, best_of, median, peak_rss_mb, per, percentile, rep_count

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
WORK = HERE / "lint-work"
WARM_RUNS, EDIT_REPEATS = 20, 2
REP_S = 3.0  # seconds one rep takes on the reference host
#: The cached-run percentile reported.  A rep's 26 cached runs are 20
#: warm runs, 4 one-file edits and 2 summary edits; the 90th percentile
#: lies among the one-file edits, clear of both other classes.
TAIL = 0.90

#: What the set-up times: a user's ``repro-pf lint`` before analysis starts.
_SETUP = (
    "import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
    "from repro.staticcheck import load_config, runner; load_config(Path(sys.argv[2]))"
)

TARGETS: list[tracing.Target] = [
    ("runner", "repro.staticcheck.runner:analyze_paths", None),
    ("runner", "repro.staticcheck.runner:analyze_file", None),
    ("summaries", "repro.staticcheck.runner:extract_file_seeds", None),
    ("summaries", "repro.staticcheck.summaries:ProjectSummaries", ("__init__",)),
    ("cache", "repro.staticcheck.cache:AnalysisCache", ("plan", "save")),
]


@dataclass
class LintRep:
    setup_s: float = 0.0
    wall_s: float = 0.0  # the whole timed phase
    files_checked: int = 0
    cold_s: float = 0.0
    warm_s: list[float] = field(default_factory=list)
    edit_seq_s: list[float] = field(default_factory=list)
    cached_run_s: list[float] = field(default_factory=list)  # warm and edit runs, in order
    reanalyzed: dict[str, int] = field(default_factory=dict)
    state_per_file: float = 0.0
    totals: dict[str, dict[str, list[int]]] | None = None  # per run kind, traced reps

    @property
    def timed_runs_s(self) -> list[float]:
        return [self.cold_s, *self.cached_run_s]


class _Run:
    """Runs the analyzer over the corpus and checks what it reports."""

    def __init__(self, corpus: lintcorpus.Corpus, result: Result, tracer) -> None:
        self.corpus = corpus
        self.result = result
        self.tracer = tracer
        self.cache_path = corpus.root / ".reprolint-cache.json"
        self.config = None
        self.cold: list[str] | None = None

    def analyze(self, rep: LintRep, kind: str, *, timed: bool = True):
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("bench/lint_run")
        self.result.attempted += 1
        start = time.perf_counter()
        out = runner.analyze_paths(
            [self.corpus.package], config=self.config, cache=True,
            cache_path=self.cache_path, jobs=1,
        )
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
            tracing.add_totals(rep.totals.setdefault(kind, {}), tracer.take())
        if timed:
            rep.files_checked += out.files
        if out.files != self.corpus.shape.modules:
            self.result.fail(f"{kind} run saw {out.files} files, not {self.corpus.shape.modules}")
        return out, elapsed

    def same_as_cold(self, out, kind: str) -> None:
        rendered = [f.render() for f in out.findings]
        if self.cold is None:
            self.cold = rendered
        elif rendered != self.cold:
            self.result.fail(f"{kind} run's findings differ from the first cold run")

    def count(self, out, kind: str, findings: int, reanalyzed: int) -> None:
        if len(out.findings) != findings:
            self.result.fail(f"{kind} run found {len(out.findings)}, expected {findings}")
        if out.cache_stats.misses != reanalyzed:
            self.result.fail(
                f"{kind} run re-analyzed {out.cache_stats.misses} files, expected {reanalyzed}"
            )


def _setup(run: _Run) -> float:
    """A fresh interpreter imports the analyzer and loads the config."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP, str(SRC), str(run.corpus.package)],
        capture_output=True, text=True, check=False,
    )
    elapsed = time.perf_counter() - start
    run.result.attempted += 1
    if done.returncode != 0:
        run.result.fail(f"set-up exited {done.returncode}: {done.stderr.strip()[-200:]}")
    return elapsed


def _rep(run: _Run, traced: bool, measure_state: bool) -> LintRep:
    corpus, shape = run.corpus, run.corpus.shape
    rep = LintRep(totals={} if traced else None)
    rep.setup_s = _setup(run)
    run.config, _path = load_config(corpus.package)
    installed = None
    if traced:
        installed = tracing.install(run.tracer, TARGETS)
        run.result.absent = installed.absent
    wall = time.perf_counter()
    try:
        run.cache_path.unlink(missing_ok=True)
        out, rep.cold_s = run.analyze(rep, "cold")
        run.count(out, "cold", shape.findings, shape.modules)
        if len(out.suppressed) != shape.waived:
            run.result.fail(f"cold run waived {len(out.suppressed)}, expected {shape.waived}")
        run.same_as_cold(out, "cold")
        if measure_state:
            rep.state_per_file = _stored_bytes(run.cache_path) / max(out.files, 1)
        for _ in range(WARM_RUNS):
            out, elapsed = run.analyze(rep, "warm")
            rep.warm_s.append(elapsed)
            rep.cached_run_s.append(elapsed)
            run.same_as_cold(out, "warm")
            run.count(out, "warm", shape.findings, 0)
        for _ in range(EDIT_REPEATS):
            sequence = 0.0
            for edit in corpus.edits:
                _span(run.tracer, corpus.apply, edit)
                out, elapsed = run.analyze(rep, "edit")
                sequence += elapsed
                rep.cached_run_s.append(elapsed)
                rep.reanalyzed[edit.kind] = out.cache_stats.misses
                run.count(out, f"{edit.kind} edit", edit.findings, edit.reanalyzed)
            rep.edit_seq_s.append(sequence)
            _span(run.tracer, corpus.reset)
            out, _ = run.analyze(rep, "reset", timed=False)
            run.same_as_cold(out, "reset")
    finally:
        rep.wall_s = time.perf_counter() - wall
        if installed is not None:
            installed.remove()
    return rep


def _span(tracer, fn, *args) -> None:
    if tracer is None:
        fn(*args)
        return
    tracer.begin("bench/edit")
    fn(*args)
    tracer.end()


def _stored_bytes(cache_path: Path) -> int:
    """The cache file's size without the parts that spell out where the
    checkout lives (absolute file keys and the recorded working
    directory), so the number is the same in every checkout."""
    text = cache_path.read_text()
    raw = json.loads(text)
    paths = sum(len(key) for key in raw.get("files", {}))
    return len(text) - paths - len(str(raw.get("cwd", "")))


def _corpus_files(paths):
    """What ``loader.iter_python_files`` yields, with hidden directories
    judged below the corpus root only.  The loader tests every part of
    the absolute path, so a checkout under a hidden directory (such as
    ``~/.cache/...``) would analyze no file at all; the benchmark uses
    this walk wherever it runs, so every location measures the same code."""
    root = WORK.resolve()
    found: set[Path] = set()
    for entry in paths:
        for candidate in Path(entry).rglob("*.py"):
            resolved = candidate.resolve()
            parts = resolved.relative_to(root).parts
            if not any(part.startswith(".") or part == "__pycache__" for part in parts):
                found.add(resolved)
    yield from sorted(found)


def measure(seed: int, seconds: float, *, trace: bool, smoke: bool) -> Result:
    """A fixed number of reps over one generated project.  Untraced, the
    end-to-end metrics come from the fastest rep at each run of the
    sequence (see :func:`measure.best_of`).  With *trace*, reps alternate
    untraced and traced, and the result holds the traced reps' per-layer
    metrics."""
    result = Result()
    shape = lintcorpus.SMOKE if smoke else lintcorpus.FULL
    count = (2 if trace else 1) if smoke else rep_count(seconds, REP_S)
    tracer = tracing.Tracer() if trace else None
    corpus = lintcorpus.Corpus(WORK, seed, shape)
    walk, runner.iter_python_files = runner.iter_python_files, _corpus_files
    try:
        run = _Run(corpus, result, None)
        reps = []
        for i in range(count):
            traced = trace and i % 2 == 1
            run.tracer = tracer if traced else None
            reps.append(_rep(run, traced, measure_state=i == 0))
    finally:
        runner.iter_python_files = walk
        shutil.rmtree(WORK, ignore_errors=True)
    plain = [r for r in reps if r.totals is None]
    if trace:
        _layers(result, reps, plain, tracer)
    else:
        _end_to_end(result, plain)
    return result


def _end_to_end(result: Result, reps: list[LintRep]) -> None:
    n = len(reps)
    runs = best_of([r.timed_runs_s for r in reps])
    result.put("throughput_per_s", reps[0].files_checked / sum(runs), n * len(runs))
    result.put("create_p50_us", runs[0] * 1e6, n)
    result.put("query_p50_us", median(best_of([r.warm_s for r in reps])) * 1e6, n * WARM_RUNS)
    edits = best_of([r.edit_seq_s for r in reps])
    result.put("update_p50_us", median(edits) * 1e6, n * EDIT_REPEATS)
    result.put("round_tail_ms", percentile(runs[1:], TAIL) * 1e3, n * (len(runs) - 1))
    result.put("state_bytes_per_item", reps[0].state_per_file, 1)
    result.put("setup_s", median([r.setup_s for r in reps]), n)
    result.put("peak_rss_mb", peak_rss_mb(), 1)


def _layers(result: Result, reps: list[LintRep], plain: list[LintRep], tracer) -> None:
    traced = [r for r in reps if r.totals is not None]
    kinds: dict[str, dict[str, list[int]]] = {}
    for r in traced:
        for kind, totals in r.totals.items():
            tracing.add_totals(kinds.setdefault(kind, {}), totals)
    everything: dict[str, list[int]] = {}
    for totals in kinds.values():
        tracing.add_totals(everything, totals)
    edits = kinds.get("edit", {})
    n = len(traced)
    plan = "cache/AnalysisCache.plan"
    plans = tracing.calls(edits, plan)
    result.put("cache.plan_ms", per(tracing.total_ns(edits, plan), plans, 1e6), plans)
    for kind in ("comment", "neutral", "summary"):
        result.put(f"cache.reanalyzed_{kind}", reps[0].reanalyzed.get(kind, 0), 1)
    solve = "summaries/ProjectSummaries.__init__"
    solves = tracing.calls(everything, solve)
    result.put("summaries.solve_ms", per(tracing.total_ns(everything, solve), solves, 1e6), solves)
    for metric, name in (
        ("summaries.extract_ms_per_file", "summaries/extract_file_seeds"),
        ("runner.analyze_ms_per_file", "runner/analyze_file"),
    ):
        count = tracing.calls(everything, name)
        result.put(metric, per(tracing.total_ns(everything, name), count, 1e6), count)
    files = sum(r.files_checked for r in traced)
    result.put("bench.driver_us_per_task", per(tracing.self_ns(everything, "bench"), files, 1e3), n)
    result.put(
        "trace.overhead_frac",
        sum(best_of([r.timed_runs_s for r in traced]))
        / sum(best_of([r.timed_runs_s for r in plain]))
        - 1,
        n,
    )
    roots = tracing.total_ns(everything, "bench/lint_run", "bench/edit")
    result.put("trace.coverage", roots / 1e9 / sum(r.wall_s for r in traced), n)
    result.spans = tracer.spans
