"""The incremental analysis cache.

reprolint's per-file analysis is pure: the findings for a file are a
function of (analyzer version, config, requested rules, file content).
That makes results safely memoizable -- the cache stores, per file, the
content hash it was analyzed under plus the full outcome (findings,
suppressed findings, module name, import targets), keyed by a single
*config hash* over everything file-independent.  A warm run on an
unchanged tree reloads every outcome and touches no ASTs at all.

v3 keys invalidation on *functions*, not files.  Every cached file
carries its function seeds (structure-only body hashes + call refs --
see :mod:`repro.staticcheck.summaries`); when a file's content hash
changes, :meth:`AnalysisCache.plan` re-extracts its seeds, diffs the
two call graphs (:mod:`repro.staticcheck.callgraph`), and re-analyzes
only the files owning a dirty function: a changed body, a retargeted
call ref, or anything in their reverse-*call* closure.  The checkers
now really do have cross-module eyes (summaries flow through
``ProjectSummaries``), so this is the exact dependency set -- a
comment-only edit dirties zero functions and re-analyzes one file,
where the v2 reverse-*import* closure re-analyzed 14.

v4 cuts the reverse-call closure with a **summary delta**: what a
caller's analysis actually consumed from a callee is its fixpoint
``FunctionInfo`` (return taints + mutated params), so after
re-extracting a changed function's seeds the planner solves the old
and new ``ProjectSummaries`` fixpoints and re-analyzes a caller only
when some callee's *info* moved -- one hop is enough, because fixpoint
infos already encode transitive propagation.  A body edit that leaves
the summary identical (renamed local, reordered statements, new
logging) re-analyzes exactly the edited file, where the v3 closure
walked every transitive caller.  ``skipped_by_summary`` counts the
functions the v3 closure would have dirtied that the delta skipped,
and ``closure_files`` what the v3 plan would have re-analyzed; the run's
cache stats report both.  The new fixpoint rides back on the plan
so the runner never solves it twice.

Safety rails, each of which discards the cache wholesale rather than
risk a stale finding:

* the header records ``ANALYZER_VERSION`` + config hash + requested
  rules (one composite key) -- new analyzer, edited ``[tool.reprolint]``
  table, or a different ``--rules`` selection all miss;
* the header records the working directory -- finding paths are stored
  repo-relative, so a cache written from another cwd is unusable;
* unreadable/corrupt cache files load as empty (never an error: the
  cache is an accelerator, not a dependency).

The cache file (``.reprolint-cache.json``, next to ``pyproject.toml``)
is a build artifact and belongs in ``.gitignore``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.staticcheck.callgraph import (
    CallGraph,
    changed_functions,
    invalidated_functions,
)
from repro.staticcheck.config import ReprolintConfig
from repro.staticcheck.model import ANALYZER_VERSION, Finding
from repro.staticcheck.summaries import FunctionSeed, ProjectSummaries

__all__ = [
    "AnalysisCache",
    "CachePlan",
    "CacheStats",
    "CachedFile",
    "CACHE_FILENAME",
    "CACHE_SCHEMA",
    "config_hash",
    "content_hash",
]

CACHE_FILENAME = ".reprolint-cache.json"
#: /2: entries carry per-function seeds; planning is per-function.
#: /3: entries carry R006 grammar facts (op tags harvested per file).
CACHE_SCHEMA = "repro.reprolint-cache/3"


def content_hash(path: Path) -> str:
    """sha256 of the file's bytes (truncated: 64 bits of hex is plenty
    for change detection and keeps the cache file readable)."""
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def config_hash(
    config: ReprolintConfig, rules: Sequence[str] | frozenset[str] | None = None
) -> str:
    """One hash over everything file-independent that analysis results
    depend on: the analyzer version, the requested-rules selection, and
    the full config.  Any change means no cached outcome is trustworthy.
    """
    payload = {
        "analyzer": ANALYZER_VERSION,
        "rules": sorted(rules) if rules is not None else None,
        "exact_modules": list(config.exact_modules),
        "deterministic_modules": list(config.deterministic_modules),
        "allowed_imports": {
            key: list(value) for key, value in sorted(config.allowed_imports.items())
        },
        "internal_root": config.internal_root,
        "private_attrs": dict(sorted(config.private_attrs.items())),
        "event_classes": list(config.event_classes),
        "per_module_disable": {
            key: list(value)
            for key, value in sorted(config.per_module_disable.items())
        },
        "grammars": [
            [g.name, list(g.emit), list(g.handle), list(g.replay), list(g.pure)]
            for g in config.grammars
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(slots=True)
class CacheStats:
    """What one cached run did: *hits* were reloaded, *misses* analyzed.
    ``invalidated`` counts the misses caused by the dependency closure
    rather than by the file's own content changing;
    ``changed_functions`` / ``invalidated_functions`` are the
    per-function counters behind those file decisions (how many bodies
    actually changed, and how many clean-file functions remained dirty
    after the summary-delta cut); ``skipped_by_summary`` counts the
    functions the v3 reverse-call closure would have dirtied whose
    consumed summaries provably didn't move, and ``closure_files`` how
    many files that closure would have re-analyzed."""

    hits: int = 0
    misses: int = 0
    invalidated: int = 0
    changed_functions: int = 0
    invalidated_functions: int = 0
    skipped_by_summary: int = 0
    closure_files: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
            "changed_functions": self.changed_functions,
            "invalidated_functions": self.invalidated_functions,
            "skipped_by_summary": self.skipped_by_summary,
            "closure_files": self.closure_files,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass(slots=True)
class CachePlan:
    """One :meth:`AnalysisCache.plan` decision: which files to
    re-analyze and why, plus the function seeds already extracted from
    the changed files (so the runner reuses them for the project
    fixpoint instead of parsing twice) and the solved *new* fixpoint
    itself (``project``, computed for the summary delta -- the runner
    reuses it as the cross-module oracle instead of solving again)."""

    changed: set[str] = field(default_factory=set)
    invalidated: set[str] = field(default_factory=set)
    fresh_seeds: dict[str, dict[str, FunctionSeed]] = field(default_factory=dict)
    changed_functions: int = 0
    invalidated_functions: int = 0
    skipped_by_summary: int = 0
    closure_files: int = 0
    project: ProjectSummaries | None = None


@dataclass(slots=True)
class CachedFile:
    """One file's complete analysis outcome, plus its function seeds
    (the per-function hashes + interprocedural facts the planner and
    the project fixpoint reuse without re-parsing the file)."""

    hash: str
    module: str
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, int]] = field(default_factory=list)
    imports: tuple[str, ...] = ()
    functions: dict[str, FunctionSeed] = field(default_factory=dict)
    #: R006 facts: ``(grammar, role, tag, line)`` rows harvested from
    #: this file (role: emit / handle / replay / *_decl).
    grammar: tuple[tuple[str, str, str, int], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "hash": self.hash,
            "module": self.module,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [
                {**f.to_dict(), "suppressed_at": line} for f, line in self.suppressed
            ],
            "imports": list(self.imports),
            "functions": {
                fq: seed.to_dict() for fq, seed in sorted(self.functions.items())
            },
            "grammar": [list(fact) for fact in self.grammar],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CachedFile":
        return cls(
            hash=data["hash"],
            module=data["module"],
            findings=[Finding.from_dict(f) for f in data["findings"]],
            suppressed=[
                (Finding.from_dict(f), f["suppressed_at"]) for f in data["suppressed"]
            ],
            imports=tuple(data["imports"]),
            functions={
                fq: FunctionSeed.from_dict(seed)
                for fq, seed in data.get("functions", {}).items()
            },
            grammar=tuple(
                (str(name), str(role), str(tag), int(line))
                for name, role, tag, line in data.get("grammar", ())
            ),
        )


class AnalysisCache:
    """The on-disk cache: load, plan the dirty set, reuse, store, save."""

    def __init__(self, path: Path, key: str) -> None:
        self.path = path
        self.key = key
        self.entries: dict[str, CachedFile] = {}

    @classmethod
    def load(cls, path: Path, key: str) -> "AnalysisCache":
        """Read *path*; any mismatch (schema, key, cwd) or damage yields
        an empty cache under the new key."""
        cache = cls(path, key)
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError):
            return cache
        if not isinstance(raw, dict):
            return cache
        if raw.get("schema") != CACHE_SCHEMA or raw.get("key") != key:
            return cache
        if raw.get("cwd") != os.getcwd():
            return cache  # finding paths are cwd-relative; see module doc
        entries = raw.get("files")
        if not isinstance(entries, dict):
            return cache
        try:
            cache.entries = {
                file_path: CachedFile.from_dict(entry)
                for file_path, entry in entries.items()
            }
        except (KeyError, TypeError):
            cache.entries = {}
        return cache

    # ------------------------------------------------------------------

    def plan(
        self,
        hashes: Mapping[str, str],
        extract: Callable[[str], dict[str, FunctionSeed]],
    ) -> "CachePlan":
        """Decide what to re-analyze for the current file set (absolute
        path -> content hash).  *changed* files have no reusable entry
        (new or edited); *invalidated* files are clean themselves but
        depend on a change.  Entries for files no longer present are
        dropped here.

        *extract* is a ``path -> seeds`` callback, normally
        ``summaries.extract_file_seeds``.  The dependency unit is the
        function: changed files are re-seeded, the old and new call
        graphs are diffed, and only files owning a dirty function
        invalidate -- where dirty means a changed body, a retargeted
        ref, or a consumed callee whose old and new fixpoint summaries
        differ (the v4 summary-delta cut; callers of a function whose
        summary provably didn't move are skipped).  The extracted seeds
        and the solved fixpoint come back in the plan so the runner
        never parses a changed file or solves the oracle twice."""
        changed = {
            path
            for path, digest in hashes.items()
            if path not in self.entries or self.entries[path].hash != digest
        }
        removed = set(self.entries) - set(hashes)
        if not changed and not removed:
            return CachePlan(changed=changed)
        old_files = {
            path: (entry.module, entry.functions)
            for path, entry in self.entries.items()
        }
        fresh_seeds = {path: extract(path) for path in sorted(changed)}
        for path in removed:
            del self.entries[path]
        new_files: dict[str, tuple[str, Mapping[str, FunctionSeed]]] = {}
        for path in hashes:
            if path in changed:
                module = (
                    self.entries[path].module
                    if path in self.entries
                    else _module_guess(path)
                )
                new_files[path] = (module, fresh_seeds[path])
            else:
                entry = self.entries[path]
                new_files[path] = (entry.module, entry.functions)
        old_graph = CallGraph(old_files)
        new_graph = CallGraph(new_files)
        hash_changed = changed_functions(old_graph, new_graph)
        closure = invalidated_functions(old_graph, new_graph, hash_changed)
        # The summary-delta cut: solve both fixpoints and dirty a
        # caller only when a callee's consumed info moved.  One hop
        # suffices -- if g's change propagates through f to e, then
        # f's own fixpoint info moved too, and e has an edge to f.
        old_project = ProjectSummaries(_seeds_by_module(old_files))
        new_project = ProjectSummaries(_seeds_by_module(new_files))
        dirty = set(hash_changed)
        for key in new_graph.keys():
            if key not in dirty and old_graph.resolutions(key) != new_graph.resolutions(key):
                dirty.add(key)
        summary_moved = {
            key
            for key in set(old_graph.keys()) | set(new_graph.keys())
            if old_project.info(key) != new_project.info(key)
        }
        for graph in (old_graph, new_graph):
            for key in graph.keys():
                if key in dirty:
                    continue
                if any(
                    target is not None and target in summary_moved
                    for _ref, target in graph.resolutions(key)
                ):
                    dirty.add(key)
        closure_owners = {
            new_graph.owner_file(key) for key in closure
        } - {None}
        invalidated: set[str] = set()
        ripple = 0
        for key in dirty:
            owner = new_graph.owner_file(key)
            if owner is not None and owner not in changed:
                ripple += 1
                invalidated.add(owner)
        return CachePlan(
            changed=changed,
            invalidated=invalidated,
            fresh_seeds=fresh_seeds,
            changed_functions=len(hash_changed),
            invalidated_functions=ripple,
            skipped_by_summary=len(closure - dirty),
            closure_files=len(changed | closure_owners),
            project=new_project,
        )

    def get(self, path: str) -> CachedFile:
        return self.entries[path]

    def put(self, path: str, record: CachedFile) -> None:
        self.entries[path] = record

    def save(self) -> None:
        """Atomic write (tmp + replace) so a crashed run never leaves a
        truncated cache behind.  I/O failure is swallowed: a cache that
        cannot be written just means the next run is cold."""
        payload = {
            "schema": CACHE_SCHEMA,
            "key": self.key,
            "cwd": os.getcwd(),
            "files": {
                file_path: entry.to_dict()
                for file_path, entry in sorted(self.entries.items())
            },
        }
        try:
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
            tmp.replace(self.path)
        except OSError:
            pass


def _seeds_by_module(
    files: Mapping[str, tuple[str, Mapping[str, FunctionSeed]]]
) -> dict[str, dict[str, FunctionSeed]]:
    """``{path: (module, seeds)}`` folded to the ``{module: seeds}``
    shape ``ProjectSummaries`` consumes (same merge the runner does)."""
    by_module: dict[str, dict[str, FunctionSeed]] = {}
    for path in sorted(files):
        module, seeds = files[path]
        by_module.setdefault(module, {}).update(seeds)
    return by_module


def _module_guess(path: str) -> str:
    """Module name for a file with no cache entry (a new file): resolved
    the same way the loader does, so closure matching sees the name its
    future importers will use."""
    from repro.staticcheck.loader import module_name_for

    return module_name_for(Path(path))
