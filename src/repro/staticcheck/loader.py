"""File discovery and per-module source model.

The loader turns a set of paths into :class:`SourceModule` objects: the
parsed AST, the dotted module name (resolved by walking up through
``__init__.py`` packages, so ``src/repro/core/base.py`` analyzes as
``repro.core.base`` no matter where the analyzer is invoked from), the
suppression table, and the enclosing-function map that lets an
``allow[...]`` comment on a ``def`` line waive findings anywhere in that
function's body.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.staticcheck.dataflow import ModuleDataflow
from repro.staticcheck.model import Suppression, parse_suppressions

__all__ = [
    "SourceModule",
    "iter_python_files",
    "load_module",
    "module_name_for",
    "module_imports",
]


def module_name_for(path: Path) -> str:
    """The dotted module name of *path*: climb while the parent directory
    is a package (has ``__init__.py``).  A file outside any package is its
    own top-level module (fixtures, scripts)."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass(slots=True)
class SourceModule:
    """One parsed source file plus everything the checkers and the
    suppression matcher need."""

    path: Path
    name: str
    source: str
    tree: ast.Module
    suppressions: list[Suppression] = field(default_factory=list)
    #: ``(first_line, last_line, def_line)`` per function, innermost last.
    function_spans: list[tuple[int, int, int]] = field(default_factory=list)
    #: Cross-module oracle (a ``summaries.ProjectSummaries``), attached
    #: by the runner when a whole-project analysis is available.
    project: object | None = None
    #: Lazily-built dataflow engine, shared by every flow-aware checker.
    _dataflow: ModuleDataflow | None = None

    def dataflow(self) -> ModuleDataflow:
        """The module's dataflow analysis, built on first use so purely
        syntactic runs (e.g. ``--rules R001``) never pay for it."""
        if self._dataflow is None:
            self._dataflow = ModuleDataflow(
                self.tree, module_name=self.name, project=self.project
            )
        return self._dataflow

    def suppression_for(self, rule: str, line: int) -> Suppression | None:
        """The suppression waiving *rule* at *line*: an allow comment
        anchored to the line itself (trailing, or a block comment
        directly above), else one anchored to the ``def`` line of any
        enclosing function (so a whole documented-inexact helper needs
        one comment, not one per expression)."""
        by_anchor = {s.anchor: s for s in self.suppressions}
        direct = by_anchor.get(line)
        if direct is not None and direct.covers(rule):
            return direct
        for first, last, def_line in self.function_spans:
            if first <= line <= last:
                candidate = by_anchor.get(def_line)
                if candidate is not None and candidate.covers(rule):
                    return candidate
        return None


def _function_spans(tree: ast.Module) -> list[tuple[int, int, int]]:
    spans: list[tuple[int, int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            end = node.end_lineno if node.end_lineno is not None else node.lineno
            spans.append((node.lineno, end, node.lineno))
    return spans


def load_module(path: Path) -> SourceModule:
    """Parse *path* into a :class:`SourceModule`.  Raises ``SyntaxError``
    for unparsable source -- the runner converts that into a finding."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    return SourceModule(
        path=path,
        name=module_name_for(path),
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
        function_spans=_function_spans(tree),
    )


def module_imports(tree: ast.Module, module_name: str) -> list[tuple[str, int]]:
    """Every imported module in *tree* as ``(dotted_name, line)``;
    relative imports are resolved against *module_name*.  Shared by the
    R004 layering checker and the incremental cache's reverse-import
    invalidation."""
    out: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = module_name.split(".")
                # level 1 = current package; each extra level climbs.
                base = parts[: len(parts) - node.level]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module or ""
            if target:
                out.append((target, node.lineno))
    return out


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``.py`` file under *paths* (files pass through, directories
    are walked), sorted for deterministic output.  Hidden directories and
    ``__pycache__`` are skipped *below* each walked directory only, so a
    project checked out under a hidden directory is still analysed."""
    seen: set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_file():
            if entry.suffix == ".py":
                seen.add(entry.resolve())
            continue
        for candidate in entry.rglob("*.py"):
            if not any(
                part.startswith(".") or part == "__pycache__"
                for part in candidate.relative_to(entry).parts
            ):
                seen.add(candidate.resolve())
    yield from sorted(seen)
