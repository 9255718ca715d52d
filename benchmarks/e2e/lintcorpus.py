"""Seeded synthetic project for the ``lint`` workload.

The lint workload must not move when a change adds or deletes source in
this repository, so it analyzes a generated project instead of ``src/``.
The project's per-file shape follows ``src/repro`` (README.md, "The lint
corpus", has the comparison): modules of about 200 lines with one or two
classes and about ten functions that call helpers in other modules, one
module several times larger, and a ``[tool.reprolint]`` configuration
that gives every rule of the real one work to do.  It is a package
``corpus`` in four layers, with its own ``pyproject.toml``:

* ``corpus.base`` -- shared integer helpers (``util{k}``), float
  measurement helpers (``measure``), the hub helpers every layer calls
  (``hub``), and the exact modules ``arith{i}`` (R001 scope).  Half of
  the exact modules call ``measure.scale``, a float minted in another
  module, so R001 fires for those; every exact module also has one
  waived float estimate.
* ``corpus.chains`` -- ``chain{c}_{d}.step`` calls ``chain{c}_{d-1}.step``,
  so a value crosses ``depth`` module boundaries.  A chain's root reads
  OS entropy (*tainted*), calls ``hub.hub_value`` (*hub*), or is pure
  arithmetic (*pure*).
* ``corpus.service`` -- deterministic (R002 scope).  One ``det_chain{c}``
  per chain feeds the chain's top into ``random.Random``, so R002 fires
  for the tainted chains; ``det_hub{j}`` does the same with the hub.
  ``engine{j}`` holds an ``Engine`` (an R005 event class with an R003
  snapshot pair and helper-typed attributes), each with one waived R003
  attribute and one waived R005 method; ``router``, ``worker`` and
  ``replay`` carry the R006 op grammar, which agrees; ``server`` is the
  large module.
* ``corpus.tools`` -- reports over the other layers; one reads a private
  attribute under a waiver (R004).  R004's import DAG keeps every layer
  to the layers below it.

Every module also carries bulk *units* (a table class, record
processing, exact kernels, float statistics) that call the ``util``
helpers; they produce no findings.

The edit sequence touches only ``hub.py``, and the expected findings and
re-analysis counts follow from the structure alone:

=========  ==========================================  ========================
edit       what changes                                re-analyzed files
=========  ==========================================  ========================
comment    a comment appended to ``hub.py``             1 (``hub.py``)
neutral    a constant in ``hub_value``'s body           1 (its summary is unchanged)
summary    ``hub_value`` returns OS entropy              ``hub.py``, ``det_hub*``,
                                                       and each hub chain's
                                                       modules and consumer
=========  ==========================================  ========================

The summary edit adds one R002 finding per ``det_hub`` module and per
hub chain.  The seed picks the order of the chain roles and every
constant; module counts and body shapes, and with them the expected
numbers and the analysis cost, are the same on every seed.

``python3 benchmarks/e2e/lintcorpus.py [PACKAGE_DIR ...]`` prints the
shape table of the corpus and of each package directory given (such as
``src/repro``).
"""

from __future__ import annotations

import ast
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

PACKAGE = "corpus"

_PYPROJECT = """\
[tool.reprolint.r001]
exact-modules = ["corpus.base.arith*"]

[tool.reprolint.r002]
deterministic-modules = ["corpus.service.*"]

[tool.reprolint.r004]
private-attrs = { "_pending" = "corpus.service.engine0" }

[tool.reprolint.r004.allowed-imports]
"corpus.base" = ["corpus.base"]
"corpus.chains" = ["corpus.base", "corpus.chains"]
"corpus.service" = ["corpus.base", "corpus.chains", "corpus.service"]
"corpus.tools" = ["corpus.base", "corpus.chains", "corpus.service", "corpus.tools"]

[tool.reprolint.r005]
event-classes = ["Engine"]

[[tool.reprolint.r006.grammar]]
name = "corpus-ops"
emit-functions = [
    "corpus.service.router.Router._journal",
    "corpus.service.router.Router._send",
]
handle-functions = ["corpus.service.worker.apply_live"]
replay-functions = ["corpus.service.replay.apply_op"]
pure-tags = ["peek"]
"""

# -- bulk units ---------------------------------------------------------
#
# ``{u}`` makes names unique within the corpus, ``{h}`` is the helper
# prefix (``util2.``, or empty inside a util module), and the rest are
# seeded constants.

_TABLE = '''

class Table{u}:
    """Rows keyed by id, with an insertion order and a limit."""

    def __init__(self, limit):
        self.limit = limit
        self.rows = {{}}
        self.order = []

    def add(self, key, amount):
        if key not in self.rows:
            self.order.append(key)
        self.rows[key] = self.rows.get(key, 0) + {h}mix(amount, {a})
        if self.rows[key] > self.limit:
            self.rows[key] = {h}fold([self.rows[key], self.limit])
        return self.rows[key]

    def drop(self, key):
        amount = self.rows.pop(key, 0)
        if amount:
            self.order.remove(key)
        return amount

    def largest(self, count):
        ranked = sorted(self.rows.items(), key=lambda kv: (-kv[1], kv[0]))
        keys = [key for key, _amount in ranked[:count]]
        return keys, {h}fold([self.rows[key] for key in keys])

    def snapshot_state(self):
        return {{"limit": self.limit, "rows": dict(self.rows), "order": list(self.order)}}

    def restore_state(self, state):
        self.limit = state["limit"]
        self.rows = dict(state["rows"])
        self.order = list(state["order"])
'''

_PROCESS = '''

def collect{u}(records, limit):
    """Group records by key and keep the heaviest entries of each."""
    groups = {{}}
    order = []
    for key, amount in records:
        if amount <= 0:
            continue
        bucket = groups.get(key)
        if bucket is None:
            bucket = groups[key] = []
            order.append(key)
        bucket.append({h}mix(amount, {a}))
    out = []
    for key in order:
        values = sorted(groups[key], reverse=True)[:limit]
        total = {h}fold(values)
        if total % {m} == 0:
            total += len(values)
        out.append((key, total, {h}split(total, {p})))
    return out


def rebalance{u}(rows, shards):
    """Move rows between shards until the loads are within {cut}."""
    loads = [0] * shards
    placement = {{}}
    for key, total, parts in sorted(rows, key=lambda row: (-row[1], row[0])):
        target = min(range(shards), key=lambda s: (loads[s], s))
        placement[key] = target
        loads[target] += total + sum(parts)
    moves = 0
    while max(loads) - min(loads) > {cut} and moves < {r}:
        heavy = max(range(shards), key=lambda s: (loads[s], -s))
        light = min(range(shards), key=lambda s: (loads[s], s))
        candidates = sorted(k for k, s in placement.items() if s == heavy)
        if not candidates:
            break
        placement[candidates[0]] = light
        shift = {h}mix(moves + len(candidates), {b}) % {c} + 1
        loads[heavy] -= shift
        loads[light] += shift
        moves += 1
    return placement, moves
'''

_KERNEL = '''

def pair{u}(x, y):
    """Cantor's pairing of two naturals and its exact inverse, checked."""
    s = x + y
    z = s * (s + 1) // 2 + y
    w = (math.isqrt(8 * z + 1) - 1) // 2
    while (w + 1) * (w + 2) // 2 <= z:
        w += 1
    t = w * (w + 1) // 2
    if (w - (z - t), z - t) != (x, y):
        raise ValueError((x, y, z))
    return z


def sweep{u}(limit):
    """Pair every point of a {n}-offset window and fold the indices."""
    bad = 0
    seen = []
    for x in range({n}, {n} + limit):
        for y in range(limit - (x - {n})):
            try:
                seen.append(pair{u}(x, y))
            except ValueError:
                bad += 1
    seen.sort()
    gaps = [b - a for a, b in zip(seen, seen[1:])]
    return bad, {h}fold(gaps) + {h}mix(limit, {a}) % {m}
'''

_STATS = '''

def summary{u}(rows):
    """Mean, median and the share of rows over {cut}, as floats."""
    values = sorted(rows.values())
    if not values:
        return {{"mean": 0.0, "median": 0, "share": 0.0, "digest": 0}}
    mean = sum(values) / len(values)
    middle = values[len(values) // 2]
    over = len([v for v in values if v > {cut}])
    spread = (values[-1] - values[0]) / max(mean, 1.0)
    return {{
        "mean": round(mean, {p}),
        "median": middle,
        "share": round(over / len(values), {p}),
        "spread": spread,
        "digest": {h}fold(values),
    }}


def trend{u}(series):
    """Least-squares slope of *series* against its index."""
    n = len(series)
    if n < 2:
        return 0.0
    xs = list(range(n))
    mean_x = sum(xs) / n
    mean_y = sum(series) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, series))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den + {h}mix(n, {b}) % {m} * 0.0
'''

_UNITS = {"table": _TABLE, "process": _PROCESS, "kernel": _KERNEL, "stats": _STATS}

#: Units per module by layer, dealt in order: exact modules get no floats.
_EXACT_UNITS = ("table", "process", "kernel")
_PLAIN_UNITS = ("table", "process", "stats", "kernel")

# -- feature modules: (docstring, imports, body) ------------------------

_UTIL = (
    "Shared integer helpers, group {k}.",
    (),
    '''

MASK = {mask}


def mix(k, a):
    value = (k * a + {c}) & MASK
    return value ^ (value >> {s})


def fold(values):
    acc = {c2}
    for value in values:
        acc = mix(acc + value, {a})
    return acc


def split(k, parts):
    out = []
    for i in range(parts):
        k, r = divmod(k, {b})
        out.append(r + i)
    return out


class Ledger:
    """Amounts by key, with a total."""

    def __init__(self):
        self.rows = {{}}
        self.total = 0

    def add(self, key, amount):
        self.rows[key] = self.rows.get(key, 0) + amount
        self.total += amount
        return self.total

    def get(self, key):
        return self.rows.get(key, 0)

    def snapshot_state(self):
        return {{"rows": dict(self.rows), "total": self.total}}

    def restore_state(self, state):
        self.rows = dict(state["rows"])
        self.total = state["total"]
''',
)

_HUB = (
    "Helpers nearly every layer of the corpus calls.",
    ("import os",),
    '''

OFFSET = {offset}


def hub_value(k):
    base = k * {mul} + {add}
    return base + OFFSET


def hub_label(k):
    parts = [str(k), str(k % {mod})]
    return "-".join(parts)


def hub_path(name):
    return os.path.join("data", name)
''',
)

_MEASURE = (
    "Measurement helpers: floats are legal here.",
    ("import math",),
    '''


def scale(x):
    return math.sqrt(x) * {factor}


def count(items):
    return len(items) + {bias}
''',
)

_ARITH = (
    "Exact module {i}.",
    ("import math", "from corpus.base import measure"),
    '''


def combine(x, y):
    return measure.{helper}({arg}) + y * {a}


def approx_root(n):
    estimate = int(math.sqrt(n))  # reprolint: allow[R001] float estimate, repaired exactly below
    while estimate * estimate > n:
        estimate -= 1
    while (estimate + 1) * (estimate + 1) <= n:
        estimate += 1
    return estimate
''',
)

_CHAIN_ROOT = {
    "tainted": (
        "Chain {c} root: seeds from the process id.",
        ("import os",),
        '''


def step(k):
    return os.getpid() + k * {a}
''',
    ),
    "hub": (
        "Chain {c} root: seeds from the hub.",
        ("from corpus.base import hub",),
        '''


def step(k):
    return hub.hub_value(k) + {a}
''',
    ),
    "pure": (
        "Chain {c} root: pure arithmetic.",
        (),
        '''


def step(k):
    return k * {a} + {b}
''',
    ),
}

_CHAIN_LINK = (
    "Chain {c}, link {d}.",
    ("from corpus.chains import chain{c}_{prev} as prev",),
    '''


def step(k):
    value = prev.step(k)
    return value * {a} + {b}
''',
)

_DET_CHAIN = (
    "Deterministic consumer of chain {c}.",
    ("import random", "from corpus.chains import chain{c}_{top} as source"),
    '''


def make_rng(k):
    seed = source.step(k)
    return random.Random(seed)
''',
)

_DET_HUB = (
    "Deterministic consumer of the hub, number {j}.",
    ("import random", "from corpus.base import hub"),
    '''


def make_rng(k):
    seed = hub.hub_value(k) + {a}
    return random.Random(seed)
''',
)

_ENGINE = (
    "Service state for desk {j}: ledgers behind a typed event bus.",
    ("import random", "from corpus.base import hub", "from corpus.base import {first}",
     "from corpus.base import {second}"),
    '''


class Engine:
    """Ledgers of one desk; every transition publishes an event."""

    def __init__(self, bus, seed):
        self._bus = bus  # reprolint: allow[R003] event wiring, rebuilt on restore
        self._ledger = {first}.Ledger()
        self._book = {second}.Ledger()
        self._rng = random.Random(seed)
        self._pending = []

    def submit(self, key, amount):
        self._pending.append((key, amount))
        self._bus.publish(("submit", key, amount))
        return len(self._pending)

    def settle(self):
        settled = 0
        for key, amount in self._pending:
            settled += self._ledger.add(key, amount)
            self._book.add(hub.hub_label(key), amount)
        self._pending.clear()
        self._bus.publish(("settle", settled))
        return settled

    def audit(self, count):
        picks = []
        for key in sorted(self._ledger.rows)[:count]:
            if self._rng.randrange({rate}) == 0:
                picks.append((key, self._ledger.get(key)))
        self._bus.publish(("audit", len(picks)))
        return picks

    def snapshot_state(self):
        return {{
            "ledger": self._ledger.snapshot_state(),
            "book": self._book.snapshot_state(),
            "rng": self._rng.getstate(),
            "pending": list(self._pending),
        }}

    def restore_state(self, state):  # reprolint: allow[R005] a restore replays history; it publishes nothing
        self._ledger.restore_state(state["ledger"])
        self._book.restore_state(state["book"])
        self._rng.setstate(state["rng"])
        self._pending = list(state["pending"])
''',
)

_ROUTER = (
    "Routes ops to shards and journals every state-changing one.",
    (),
    '''


class Router:
    """The emit side of the corpus op grammar."""

    def __init__(self, shards):
        self.shards = shards
        self.journal = []
        self.sent = []

    def _journal(self, op):
        self.journal.append(op)

    def _send(self, op):
        self.sent.append(op)
        return len(self.sent)

    def open(self, key, value):
        self._journal(["open", key, value])
        return self._send(["open", key, value])

    def close(self, key):
        self._journal(["close", key])
        return self._send(["close", key])

    def move(self, key, shard):
        self._journal(["move", key, shard % self.shards])
        return self._send(["move", key, shard % self.shards])

    def tick(self, now):
        self._journal(["tick", now])
        return self._send(["tick", now])

    def peek(self, key):
        return self._send(["peek", key])
''',
)

_DISPATCH = (
    "{role} dispatch of the corpus op grammar.",
    (),
    '''


def {name}(state, op):
    kind = op[0]
    if kind == "open":
        state[op[1]] = op[2]
    elif kind == "close":
        state.pop(op[1], None)
    elif kind == "move":
        state[op[1]] = (state.get(op[1]), op[2])
    elif kind == "tick":
        state["now"] = op[1]
{extra}    else:
        raise ValueError(kind)
    return None
''',
)

_PEEK = '''\
    elif kind == "peek":
        return state.get(op[1])
'''

_SERVER = (
    "The corpus's large module: one front class over the service layer.",
    ("from corpus.base import hub", "from corpus.service import router"),
    '''


class Server:
    """Routes requests to desks and keeps per-desk books."""

    def __init__(self, shards, limit):
        self.router = router.Router(shards)
        self.limit = limit
        self.books = {{}}
        self.order = []
''',
)

#: One method of ``Server``, repeated with fresh names and constants.
_SERVER_METHOD = '''
    def handle{u}(self, key, amount):
        """Book *amount* for *key* and route the change."""
        book = self.books.get(key)
        if book is None:
            book = self.books[key] = []
            self.order.append(key)
            self.router.open(key, amount)
        book.append({h}mix(amount, {a}))
        if len(book) > self.limit:
            total = {h}fold(book)
            del book[: len(book) - self.limit]
            self.router.move(key, total % {m})
        label = hub.hub_label(key)
        parts = {h}split(sum(book), {p})
        if parts[0] % {c} == 0:
            self.router.tick(len(self.order))
        return label, parts
'''

_REPORT = (
    "Report {i}: summaries over the service layer.",
    ("from corpus.base import hub",),
    '''


def label_all(keys):
    return [hub.hub_label(k) for k in keys]
''',
)

_BACKLOG = '''

def backlog(engine):
    return len(engine._pending)  # reprolint: allow[R004] read-only size for the report
'''


@dataclass(frozen=True)
class Shape:
    """Module counts of one corpus; the expected numbers follow from them."""

    tainted: int = 2  # chains per root role
    hub_chains: int = 1
    pure: int = 2
    depth: int = 2  # modules per chain
    det_hub: int = 1
    utils: int = 4
    arith: int = 6
    engines: int = 4
    reports: int = 6
    units: int = 2  # bulk units per module; a util module gets one table
    server_methods: int = 80

    @property
    def chains(self) -> int:
        return self.tainted + self.hub_chains + self.pure

    @property
    def modules(self) -> int:
        # Five __init__, hub, measure, router, worker, replay, server.
        return (
            11 + self.utils + self.arith + self.chains * (self.depth + 1)
            + self.det_hub + self.engines + self.reports
        )

    @property
    def findings(self) -> int:
        """Findings of the unedited corpus: one R002 per tainted chain,
        one R001 per contaminated exact module."""
        return self.tainted + (self.arith + 1) // 2

    @property
    def waived(self) -> int:
        """Suppressed findings: R001 per exact module, R003 and R005 per
        engine, one R004."""
        return self.arith + 2 * self.engines + 1

    @property
    def findings_after_summary_edit(self) -> int:
        return self.findings + self.det_hub + self.hub_chains

    @property
    def reanalyzed_summary(self) -> int:
        """``hub.py``, its ``hub_value`` callers (det_hub, hub chain
        roots), and every link and consumer above a hub chain root."""
        return 1 + self.det_hub + self.hub_chains * (self.depth + 1)


FULL = Shape()
SMOKE = Shape(
    tainted=1, hub_chains=1, pure=1, depth=2, det_hub=1, utils=2, arith=2, engines=1,
    reports=1, units=0, server_methods=2,
)


@dataclass(frozen=True)
class Edit:
    """One step of the edit sequence and what it must produce."""

    kind: str
    old: str
    new: str
    findings: int
    reanalyzed: int


class Corpus:
    """A generated project on disk plus its edit sequence."""

    def __init__(self, root: Path, seed: int, shape: Shape = FULL) -> None:
        self.root = root
        self.package = root / PACKAGE
        self.hub = self.package / "base" / "hub.py"
        self.shape = shape
        self._rng = random.Random(seed)
        self._units = 0
        if root.exists():
            shutil.rmtree(root)
        for layer in ("", "base", "chains", "service", "tools"):
            (self.package / layer).mkdir(parents=True, exist_ok=True)
            init = f"{layer}/__init__" if layer else "__init__"
            self._write(init, f'"""Corpus layer {layer or "root"}."""\n')
        (root / "pyproject.toml").write_text(_PYPROJECT)
        mul, add = self._int(3, 97), self._int(1, 50)
        self._hub_text = _assemble(
            _HUB, offset=self._int(1, 999), mul=mul, add=add, mod=self._int(3, 17)
        )
        self.hub.write_text(self._hub_text)
        self._write_base()
        self._write_chains()
        self._write_service()
        for i in range(shape.reports):
            tail = _BACKLOG if i == 0 else ""
            self._module(f"tools/report{i}", _REPORT, i, _PLAIN_UNITS, tail=tail, i=i)
        base = f"k * {mul} + {add}"
        neutral = f"k * {mul} + {add + 1}"
        self.edits = (
            Edit("comment", "", "\n# edited: comment only\n", shape.findings, 1),
            Edit("neutral", base, neutral, shape.findings, 1),
            Edit(
                "summary",
                neutral,
                f"k * {mul} + os.getpid()",
                shape.findings_after_summary_edit,
                shape.reanalyzed_summary,
            ),
        )

    def _int(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def _write(self, name: str, text: str) -> None:
        (self.package / f"{name}.py").write_text(text)

    def _fill(self, template: str, helper: str) -> str:
        """*template* with a fresh unit number and seeded constants."""
        self._units += 1
        u = self._units
        return template.format(
            u=u, h=helper, a=self._int(2, 31), b=self._int(7, 97), c=self._int(5, 61),
            m=self._int(3, 11), cut=self._int(10, 500), r=self._int(3, 12), p=self._int(2, 6),
            n=self._int(1, 999),
        )

    def _module(
        self, module: str, feature: tuple, index: int, kinds: tuple[str, ...], *,
        tail: str = "", **fields,
    ) -> None:
        """*feature* filled with *fields*, then bulk units dealt in
        order from *kinds* calling ``util{index % utils}``, then *tail*."""
        doc, imports, body = feature
        util = f"util{index % self.shape.utils}"
        dealt = [kinds[n % len(kinds)] for n in range(self.shape.units)]
        bulk = "".join(self._fill(_UNITS[kind], f"{util}.") for kind in dealt)
        extra = [f"from corpus.base import {util}"] if dealt else []
        if "kernel" in dealt:
            extra.append("import math")
        self._write(module, _assemble((doc, (*imports, *extra), body), **fields) + bulk + tail)

    def _write_base(self) -> None:
        shape = self.shape
        for k in range(shape.utils):
            text = _assemble(
                _UTIL, k=k, mask=(1 << self._int(24, 40)) - 1, c=self._int(1, 999),
                s=self._int(3, 9), c2=self._int(1, 99), a=self._int(3, 31), b=self._int(7, 97),
            )
            bulk = self._fill(_TABLE, "") if shape.units else ""
            self._write(f"base/util{k}", text + bulk)
        self._write("base/measure", _assemble(_MEASURE, factor=self._int(2, 9), bias=self._int(0, 9)))
        for i in range(shape.arith):
            helper, arg = ("scale", "x") if i % 2 == 0 else ("count", "[x, y]")
            self._module(
                f"base/arith{i}", _ARITH, i, _EXACT_UNITS, i=i, helper=helper, arg=arg,
                a=self._int(2, 9),
            )

    def _write_chains(self) -> None:
        shape = self.shape
        roles = ["tainted"] * shape.tainted + ["hub"] * shape.hub_chains + ["pure"] * shape.pure
        self._rng.shuffle(roles)
        for c, role in enumerate(roles):
            self._module(
                f"chains/chain{c}_0", _CHAIN_ROOT[role], c, _PLAIN_UNITS, c=c,
                a=self._int(2, 99), b=self._int(0, 99),
            )
            for d in range(1, shape.depth):
                self._module(
                    f"chains/chain{c}_{d}", _CHAIN_LINK, c + d, _PLAIN_UNITS, c=c, d=d,
                    prev=d - 1, a=self._int(2, 9), b=self._int(0, 99),
                )
            self._module(
                f"service/det_chain{c}", _DET_CHAIN, c, _PLAIN_UNITS, c=c, top=shape.depth - 1
            )

    def _write_service(self) -> None:
        shape = self.shape
        for j in range(shape.det_hub):
            self._module(f"service/det_hub{j}", _DET_HUB, j, _PLAIN_UNITS, j=j, a=self._int(1, 99))
        for j in range(shape.engines):
            self._write(
                f"service/engine{j}",
                _assemble(
                    _ENGINE, j=j, first=f"util{j % shape.utils}",
                    second=f"util{(j + 1) % shape.utils}", rate=self._int(3, 9),
                ),
            )
        self._module("service/router", _ROUTER, 0, _PLAIN_UNITS)
        self._module(
            "service/worker", _DISPATCH, 1, _PLAIN_UNITS, role="Live", name="apply_live",
            extra=_PEEK,
        )
        self._module(
            "service/replay", _DISPATCH, 2, _PLAIN_UNITS, role="Replay", name="apply_op", extra=""
        )
        methods = "".join(
            self._fill(_SERVER_METHOD, f"util{n % shape.utils}.")
            for n in range(shape.server_methods)
        )
        utils = tuple(f"from corpus.base import util{k}" for k in range(shape.utils))
        doc, imports, body = _SERVER
        self._write("service/server", _assemble((doc, (*imports, *utils), body)) + methods)

    def apply(self, edit: Edit) -> None:
        """Apply *edit* to ``hub.py`` (edits are cumulative)."""
        text = self.hub.read_text()
        if edit.old:
            if edit.old not in text:
                raise RuntimeError(f"{edit.kind} edit: {edit.old!r} not in hub.py")
            self.hub.write_text(text.replace(edit.old, edit.new, 1))
        else:
            self.hub.write_text(text + edit.new)

    def reset(self) -> None:
        """Undo every edit."""
        self.hub.write_text(self._hub_text)


def _assemble(feature: tuple, **fields) -> str:
    """Docstring, then the standard-library imports, then the corpus
    imports, then the body, each filled with *fields*."""
    doc, imports, body = feature
    lines = sorted({line.format(**fields) for line in imports})
    std = [line for line in lines if line.startswith("import ")]
    own = [line for line in lines if line.startswith("from ")]
    head = f'"""{doc.format(**fields)}"""\n'
    for block in (std, own):
        if block:
            head += "\n" + "\n".join(block) + "\n"
    return head + body.format(**fields)


# -- shape --------------------------------------------------------------


def shape_of(package: Path) -> dict[str, float]:
    """Per-file averages of what drives reprolint's cost."""
    files = sorted(package.rglob("*.py"))
    totals = dict.fromkeys(("lines", "classes", "functions", "calls", "typed_attrs"), 0)
    for path in files:
        text = path.read_text()
        totals["lines"] += len(text.splitlines())
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                totals["classes"] += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                totals["functions"] += 1
            elif isinstance(node, ast.Call):
                totals["calls"] += 1
            elif isinstance(node, ast.Assign) and _typed_self_attr(node):
                totals["typed_attrs"] += 1
    count = max(len(files), 1)
    return {"files": len(files), **{k: v / count for k, v in totals.items()}}


def _typed_self_attr(node: ast.Assign) -> bool:
    """``self.x = Cls(...)`` or ``self.x = mod.Cls(...)``."""
    target, value = node.targets[0], node.value
    if not (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)):
        return False
    if target.value.id != "self" or not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name[:1].isupper()


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        rows = [("corpus", shape_of(Corpus(Path(tmp) / "work", 2002).package))]
    rows += [(arg, shape_of(Path(arg))) for arg in argv]
    keys = list(rows[0][1])
    print("| tree | " + " | ".join(keys) + " |")
    print("|---" * (len(keys) + 1) + "|")
    for name, shape in rows:
        print(f"| {name} | " + " | ".join(f"{shape[k]:.2f}" for k in keys) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
