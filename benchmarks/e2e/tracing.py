"""Span tracing injected from outside the program.

A traced run replaces methods of the program's classes with wrappers
that record a span per call, so no source file changes and the
deterministic core never reads a clock.  Each span has a name
(``layer/Owner.method``; the layer is the module), a start, an end, the
enclosing span and the round it ran in.  Spans stay in memory:
per-name totals (calls, inclusive and self nanoseconds) for every span,
and the first :data:`KEEP` raw spans for ``--trace-out``.  A span's
self time is its duration minus the time its child spans cover.

A target that no longer exists -- a deleted class, module or method --
is reported in :attr:`Installed.absent` and skipped, so a change can
delete a layer without editing the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Layer name, owner, methods.  The owner is ``"module:attr"`` or a
#: class object resolved at run time (the APF and the index composer are
#: instances the workload builds).  ``None`` wraps every public function
#: the class defines or inherits; a module-level function takes ``None``.
Target = tuple[str, "str | type", "tuple[str, ...] | None"]

#: Raw spans kept for ``--trace-out``; the totals cover every span.
KEEP = 100_000


class Tracer:
    """Collects spans; :meth:`wrap` makes the traced version of a callable."""

    def __init__(self) -> None:
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list[tuple[str, int, int, str | None, int]] = []
        self.round_id = 0
        self._stack: list[list] = []  # [name, start_ns, child_ns]

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def end(self) -> None:
        self._close(time.perf_counter_ns())

    def _close(self, end: int) -> None:
        stack = self._stack
        name, start, child = stack.pop()
        duration = end - start
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        parent = None
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        if len(self.spans) < KEEP:
            self.spans.append((name, start, end, parent, self.round_id))

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        close = self._close

        def traced(*args, **kwargs):
            stack.append([name, clock(), 0])
            try:
                return fn(*args, **kwargs)
            finally:
                close(clock())

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def take(self) -> dict[str, list[int]]:
        """The totals so far, and start over (the workloads split a run
        into phases this way)."""
        totals, self.totals = self.totals, {}
        return totals


@dataclass
class Installed:
    """Wrappers in place; :meth:`remove` puts the originals back."""

    absent: list[str] = field(default_factory=list)
    #: (owner, attribute, original); ``None`` when the owner inherited it.
    originals: list[tuple[object, str, object]] = field(default_factory=list)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.originals):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self.originals.clear()


def _public_functions(cls: type) -> list[str]:
    return [
        name
        for name in dir(cls)
        if not name.startswith("_")
        and inspect.isfunction(inspect.getattr_static(cls, name, None))
    ]


def install(tracer: Tracer, targets: list[Target]) -> Installed:
    """Wrap every target; missing ones go to ``absent``."""
    done = Installed()
    for layer, owner_ref, methods in targets:
        if isinstance(owner_ref, str):
            module_name, _, attr = owner_ref.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                done.absent.append(owner_ref)
                continue
            owner = getattr(module, attr, None)
            if owner is None:
                done.absent.append(owner_ref)
                continue
        else:
            module, attr, owner = None, owner_ref.__name__, owner_ref
        if not inspect.isclass(owner):
            if not callable(owner):
                done.absent.append(str(owner_ref))
                continue
            done.originals.append((module, attr, owner))
            setattr(module, attr, tracer.wrap(f"{layer}/{attr}", owner))
            continue
        names = _public_functions(owner) if methods is None else methods
        for name in names:
            function = inspect.getattr_static(owner, name, None)
            if not inspect.isfunction(function):
                done.absent.append(f"{owner.__module__}:{owner.__name__}.{name}")
                continue
            done.originals.append((owner, name, owner.__dict__.get(name)))
            setattr(owner, name, tracer.wrap(f"{layer}/{owner.__name__}.{name}", function))
    return done


def write_spans(path: Path, spans: list[tuple[str, int, int, str | None, int]]) -> None:
    rows = [
        {"name": n, "start_ns": s, "end_ns": e, "parent": p, "round": r}
        for n, s, e, p, r in spans
    ]
    path.write_text(json.dumps({"spans": rows}) + "\n")


def add_totals(into: dict[str, list[int]], more: dict[str, list[int]]) -> None:
    for name, (calls, total, own) in more.items():
        entry = into.setdefault(name, [0, 0, 0])
        entry[0] += calls
        entry[1] += total
        entry[2] += own


def calls(totals: dict[str, list[int]], *names: str) -> int:
    return sum(totals[n][0] for n in names if n in totals)


def total_ns(totals: dict[str, list[int]], *names: str) -> int:
    return sum(totals[n][1] for n in names if n in totals)


def self_ns(totals: dict[str, list[int]], layer: str) -> int:
    """Self time of every span in *layer*."""
    prefix = layer + "/"
    return sum(entry[2] for name, entry in totals.items() if name.startswith(prefix))


def layer_calls(totals: dict[str, list[int]], layer: str, method: str) -> int:
    """Calls of *method* on any owner in *layer*."""
    prefix, suffix = layer + "/", "." + method
    return sum(
        entry[0]
        for name, entry in totals.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )
