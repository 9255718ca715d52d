"""``[tool.reprolint]`` configuration.

The analyzer is generic; everything project-specific -- which modules are
*exact*, which must replay deterministically, the import DAG, the private
attributes each module owns, the event-publishing classes -- lives in
``pyproject.toml``::

    [tool.reprolint]

    [tool.reprolint.r001]
    exact-modules = ["repro.core.*", "repro.apf.*"]

    [tool.reprolint.r002]
    deterministic-modules = ["repro.webcompute.*"]

    [tool.reprolint.r004]
    private-attrs = { "_records" = "repro.webcompute.ledger" }
    [tool.reprolint.r004.allowed-imports]
    "repro.core" = ["repro.errors", "repro.numbertheory", "repro.core"]

    [tool.reprolint.r005]
    event-classes = ["AllocationEngine"]

    [[tool.reprolint.r006.grammar]]
    name = "ops"
    emit-functions = ["pkg.router.Router._journal"]
    handle-functions = ["pkg.worker.apply_live"]
    replay-functions = ["pkg.replay.apply_op"]
    pure-tags = ["probe"]

    [tool.reprolint.per-module]
    "repro.core.spread" = { disable = ["R001"] }

Module matching is ``fnmatch`` on dotted names (``repro.core.*`` also
matches ``repro.core`` itself, so one glob covers a package and its
``__init__``).  ``allowed-imports`` keys match by *longest dotted
prefix*, so a single module can carve out a wider allowance than its
package (the registry is the one core module allowed to import the APF
catalogue it registers).
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any

__all__ = [
    "ReprolintConfig",
    "GrammarSpec",
    "ConfigError",
    "load_config",
    "find_pyproject",
]

ALL_RULES = ("R001", "R002", "R003", "R004", "R005", "R006")


class ConfigError(Exception):
    """Malformed ``[tool.reprolint]`` content."""


def _module_matches(module: str, patterns: tuple[str, ...]) -> bool:
    for pattern in patterns:
        if fnmatchcase(module, pattern):
            return True
        # "pkg.*" also covers "pkg" itself: declaring a package exact
        # should include its __init__ module.
        if pattern.endswith(".*") and module == pattern[:-2]:
            return True
    return False


def _dotted_prefix(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


@dataclass(frozen=True, slots=True)
class GrammarSpec:
    """One R006 message grammar: the functions whose call sites *emit*
    tagged ops (``["tick", ...]`` list literals), the dispatcher that
    *handles* them live (``kind == "tick"`` branches), the dispatcher
    that *replays* them from the journal, and the tags sanctioned to be
    live-only (``pure-tags``: read-only ops with no journal footprint).
    Function refs are fully qualified (``pkg.mod.Cls.method`` /
    ``pkg.mod.func``)."""

    name: str
    emit: tuple[str, ...] = ()
    handle: tuple[str, ...] = ()
    replay: tuple[str, ...] = ()
    pure: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class ReprolintConfig:
    """The parsed ``[tool.reprolint]`` table (all fields optional; an
    empty config runs only the project-agnostic checks)."""

    #: R001 applies to modules matching these globs.
    exact_modules: tuple[str, ...] = ()
    #: R002 applies to modules matching these globs.
    deterministic_modules: tuple[str, ...] = ()
    #: R004 import DAG: dotted-prefix -> allowed internal import prefixes.
    allowed_imports: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: R004: the root package whose imports the DAG constrains.
    internal_root: str = "repro"
    #: R004 private state: attribute name -> owning module.
    private_attrs: dict[str, str] = field(default_factory=dict)
    #: R005 applies to classes with these names.
    event_classes: tuple[str, ...] = ()
    #: Per-module rule disables: glob -> rule codes.
    per_module_disable: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: R006 message grammars (no grammars -> the rule is a no-op).
    grammars: tuple[GrammarSpec, ...] = ()

    # ------------------------------------------------------------------

    def rules_for(self, module: str) -> frozenset[str]:
        """The rule codes enabled for *module* after per-module disables."""
        disabled: set[str] = set()
        for pattern, rules in self.per_module_disable.items():
            if _module_matches(module, (pattern,)):
                disabled.update(rules)
        return frozenset(r for r in ALL_RULES if r not in disabled)

    def is_exact(self, module: str) -> bool:
        return _module_matches(module, self.exact_modules)

    def is_deterministic(self, module: str) -> bool:
        return _module_matches(module, self.deterministic_modules)

    def import_allowance(self, module: str) -> tuple[str, ...] | None:
        """The allowed internal-import prefixes for *module*: the value
        under its longest matching dotted-prefix key, or ``None`` when no
        key constrains it."""
        best: str | None = None
        for prefix in self.allowed_imports:
            if _dotted_prefix(module, prefix):
                if best is None or len(prefix) > len(best):
                    best = prefix
        return None if best is None else self.allowed_imports[best]

    # ------------------------------------------------------------------

    @classmethod
    def from_mapping(cls, data: dict[str, Any]) -> "ReprolintConfig":
        """Build from the ``[tool.reprolint]`` dict (already parsed)."""

        def str_list(value: Any, where: str) -> tuple[str, ...]:
            if not isinstance(value, list) or not all(
                isinstance(v, str) for v in value
            ):
                raise ConfigError(f"{where} must be a list of strings")
            return tuple(value)

        r001 = data.get("r001", {})
        r002 = data.get("r002", {})
        r004 = data.get("r004", {})
        r005 = data.get("r005", {})
        r006 = data.get("r006", {})
        for name, table in (
            ("r001", r001),
            ("r002", r002),
            ("r004", r004),
            ("r005", r005),
            ("r006", r006),
        ):
            if not isinstance(table, dict):
                raise ConfigError(f"[tool.reprolint.{name}] must be a table")

        grammars_raw = r006.get("grammar", [])
        if not isinstance(grammars_raw, list):
            raise ConfigError("r006.grammar must be an array of tables")
        grammars: list[GrammarSpec] = []
        for index, entry in enumerate(grammars_raw):
            where = f"r006.grammar[{index}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{where} must be a table")
            grammar_name = entry.get("name", "")
            if not isinstance(grammar_name, str) or not grammar_name:
                raise ConfigError(f"{where}.name must be a non-empty string")
            grammars.append(
                GrammarSpec(
                    name=grammar_name,
                    emit=str_list(
                        entry.get("emit-functions", []), f"{where}.emit-functions"
                    ),
                    handle=str_list(
                        entry.get("handle-functions", []), f"{where}.handle-functions"
                    ),
                    replay=str_list(
                        entry.get("replay-functions", []), f"{where}.replay-functions"
                    ),
                    pure=str_list(
                        entry.get("pure-tags", []), f"{where}.pure-tags"
                    ),
                )
            )

        allowed_raw = r004.get("allowed-imports", {})
        if not isinstance(allowed_raw, dict):
            raise ConfigError("r004.allowed-imports must be a table")
        allowed = {
            key: str_list(value, f"r004.allowed-imports.{key}")
            for key, value in allowed_raw.items()
        }

        private_raw = r004.get("private-attrs", {})
        if not isinstance(private_raw, dict) or not all(
            isinstance(v, str) for v in private_raw.values()
        ):
            raise ConfigError("r004.private-attrs must map attr -> owning module")

        per_module_raw = data.get("per-module", {})
        if not isinstance(per_module_raw, dict):
            raise ConfigError("[tool.reprolint.per-module] must be a table")
        per_module: dict[str, tuple[str, ...]] = {}
        for pattern, entry in per_module_raw.items():
            if not isinstance(entry, dict):
                raise ConfigError(f"per-module.{pattern} must be a table")
            codes = str_list(entry.get("disable", []), f"per-module.{pattern}.disable")
            bad = [c for c in codes if c.upper() not in ALL_RULES]
            if bad:
                raise ConfigError(
                    f"per-module.{pattern}.disable names unknown rules {bad}"
                )
            per_module[pattern] = tuple(c.upper() for c in codes)

        internal_root = r004.get("internal-root", "repro")
        if not isinstance(internal_root, str):
            raise ConfigError("r004.internal-root must be a string")

        return cls(
            exact_modules=str_list(
                r001.get("exact-modules", []), "r001.exact-modules"
            ),
            deterministic_modules=str_list(
                r002.get("deterministic-modules", []), "r002.deterministic-modules"
            ),
            allowed_imports=allowed,
            internal_root=internal_root,
            private_attrs=dict(private_raw),
            event_classes=str_list(
                r005.get("event-classes", []), "r005.event-classes"
            ),
            per_module_disable=per_module,
            grammars=tuple(grammars),
        )


def find_pyproject(start: Path) -> Path | None:
    """The nearest ``pyproject.toml`` at or above *start*."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for directory in (probe, *probe.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(start: Path) -> tuple[ReprolintConfig, Path | None]:
    """The config governing *start*: the ``[tool.reprolint]`` table of the
    nearest ``pyproject.toml``, or the empty config when there is none.
    Returns ``(config, pyproject_path_or_None)``."""
    pyproject = find_pyproject(start)
    if pyproject is None:
        return ReprolintConfig(), None
    try:
        parsed = tomllib.loads(pyproject.read_text())
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{pyproject}: {exc}") from exc
    table = parsed.get("tool", {}).get("reprolint")
    if table is None:
        return ReprolintConfig(), pyproject
    if not isinstance(table, dict):
        raise ConfigError(f"{pyproject}: [tool.reprolint] must be a table")
    return ReprolintConfig.from_mapping(table), pyproject
