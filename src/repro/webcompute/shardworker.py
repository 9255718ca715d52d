"""Shard hosts: the one protocol the sharded router drives its engines
through (the execution half of :mod:`~repro.webcompute.sharding`).

A :class:`~repro.webcompute.engine.AllocationEngine` is deterministic and
journal-replayable, which makes it *shippable*: the router drives each
shard's engine with exactly the ops it journals, through a host that
answers one message with one reply.  The same message handler runs in
both kinds of host, so the serial and the worker-process router share
one op dispatcher and one restore path by construction:

* :func:`shard_codec` -- builds a shard's
  :class:`~repro.webcompute.engine.IndexCodec` from ``(composer, shard)``.
  The codec's closures are *not* picklable, so the router never ships a
  codec; it ships the pair of values and the host rebuilds the bijection.
* :class:`EngineSpec` -- the picklable recipe for one shard's engine
  (APF, composer, shard number, ledger knobs, seed); ``build()`` is the
  only place shard engines are constructed.
* :func:`serve` -- the message handler over one host's :class:`Hosted`
  engines: applies ops through :func:`~repro.webcompute.recovery.apply_op`
  (the dispatcher journal replay uses too), answers read-only queries,
  and rebuilds a shard via the streaming-restore protocol
  (``restore_begin`` installs the base checkpoint, ``restore_apply``
  folds delta segments and replays journaled ops in arrival order,
  ``restore_finish`` promotes the engine and attaches its event hook).
* :class:`InProcessHost` -- calls :func:`serve` directly in the router's
  process, with no pickling.  Its live engines' buses share the router
  bus's subscribers, so each event is delivered in one ``publish``, and
  the router's engine slots hold the engines themselves, so the hot
  singular calls never go through a message.
* :func:`worker_main` / :class:`WorkerHandle` -- the process host: a
  child process looping over :func:`serve`, and the parent-side endpoint
  (one duplex pipe, with split ``start``/``finish`` so the router can
  fan a batch out to every worker before collecting any reply -- the
  overlap that makes multi-core sharding actually parallel).  Its
  engines' events ride back in each reply for the router to publish.

Protocol: one request message, one reply.  Every reply is
``(status, payload, events)`` where ``events`` is the ordered list of
events the hosted engines published since the previous reply and did not
deliver themselves (always empty in-process).  Every engine's bus carries
its shard number, so each event names its shard from the moment it is
built.  A worker process dying surfaces as :class:`WorkerDiedError` on
the parent side; the router maps that onto the existing
``crash_shard``/``restore_shard`` fault path, so a real process death is
indistinguishable from an injected crash.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Any

from repro.apf.base import AdditivePairingFunction
from repro.errors import AllocationError, RecoveryError, ShardDownError
from repro.webcompute.codecs import Composer
from repro.webcompute.engine import AllocationEngine, IndexCodec
from repro.webcompute.events import EventBus
from repro.webcompute.recovery import apply_op, replay

__all__ = [
    "shard_codec",
    "EngineSpec",
    "Hosted",
    "serve",
    "InProcessHost",
    "WorkerHandle",
    "WorkerDiedError",
    "worker_main",
]


class WorkerDiedError(ShardDownError):
    """The worker process behind a shard died mid-conversation.  A
    transient :class:`~repro.errors.ShardDownError`: the router crashes
    the hosted shards and the caller retries after ``restore_shard``."""


def shard_codec(composer: Composer, shard: int) -> IndexCodec:
    """Shard *shard*'s slice of the global index space: row ``shard + 1``
    of *composer* (1-indexed, like everything in the paper).  Built from
    plain values so a host in any process constructs the identical
    bijection.  ``composer.pair`` and ``composer.unpair`` are looked up
    on each call, never bound ahead: a wrapper installed on the
    composer's class later (a tracer, a test's counter) still sees every
    encode and decode."""
    shard_no = shard + 1

    def encode(local: int) -> int:
        return composer.pair(shard_no, local)

    def decode(global_index: int) -> int:
        x, y = composer.unpair(global_index)
        if x != shard_no:
            raise AllocationError(
                f"task {global_index} belongs to shard {x - 1}, not {shard}"
            )
        return y

    return IndexCodec(encode=encode, decode=decode)


@dataclass(frozen=True, slots=True)
class EngineSpec:
    """The picklable recipe for one shard's engine: seed offset by the
    shard number, the shard's codec, a bus stamping the shard number on
    every event, the ledger knobs.  Construction and recovery both start
    from ``build()``, in either host."""

    apf: AdditivePairingFunction
    composer: Composer
    shard: int
    verification_rate: float
    ban_after_strikes: int
    seed: int
    lease_ticks: int | None

    def build(self) -> AllocationEngine:
        return AllocationEngine(
            self.apf,
            verification_rate=self.verification_rate,
            ban_after_strikes=self.ban_after_strikes,
            seed=self.seed + self.shard,
            codec=shard_codec(self.composer, self.shard),
            bus=EventBus(shard=self.shard),
            lease_ticks=self.lease_ticks,
        )


# ----------------------------------------------------------------------
# The host protocol
# ----------------------------------------------------------------------


_QUERIES = {
    "clock": lambda e: e.clock,
    "seated_count": lambda e: e.seated_count,
    "max_task_index": lambda e: e.max_task_index,
    "report": lambda e: e.report(),
    "attribute": lambda e, index: e.attribute(index),
    "locate": lambda e, index: e.locate(index),
    "task": lambda e, index: e.ledger.task(index),
    "snapshot_state": lambda e: e.snapshot_state(),
    "snapshot_delta": lambda e, since: e.snapshot_delta(since),
    "seated_volunteers": lambda e: e.frontend.seated_volunteers(),
}


class Hosted:
    """The engines one host serves: the live ones by shard, the ones a
    streaming restore is rebuilding, and the events published since the
    last reply.  *attach* is the host's event hook, run on every engine
    as it goes live (never during replay, so replayed history is not
    re-published); by default it records events into :attr:`events` for
    the reply to carry."""

    __slots__ = ("engines", "restoring", "events", "_attach")

    def __init__(self, specs: dict[int, EngineSpec], attach=None) -> None:
        self.engines: dict[int, AllocationEngine] = {}
        self.restoring: dict[int, AllocationEngine] = {}
        self.events: list[Any] = []
        self._attach = self._record if attach is None else attach
        for shard in sorted(specs):
            self.install(shard, specs[shard].build())

    def _record(self, engine: AllocationEngine) -> None:
        engine.bus.subscribe(lambda event: self.events.append(event))

    def install(self, shard: int, engine: AllocationEngine) -> None:
        self._attach(engine)
        self.engines[shard] = engine

    def rebuilding(self, shard: int) -> AllocationEngine:
        engine = self.restoring.get(shard)
        if engine is None:
            raise RecoveryError(f"shard {shard} is not restoring here")
        return engine

    def drain(self) -> list[Any]:
        events, self.events = self.events, []
        return events


def _apply_ops(engine: AllocationEngine | None, shard: int, ops: list) -> list:
    """Per-op ``(ok, result-or-exception)`` outcomes, in order."""
    if engine is None:
        return [(False, ShardDownError(f"shard {shard} is not hosted")) for _ in ops]
    results = []
    for op in ops:
        try:
            results.append((True, apply_op(engine, op)))
        except Exception as exc:  # per-op outcome, shipped back
            results.append((False, exc))
    return results


def serve(hosted: Hosted, message: tuple) -> tuple[str, Any, list]:
    """Answer one protocol message against *hosted*; returns
    ``(status, payload, events)``.  A failing message comes back as
    ``("err", exception, events)`` rather than raising, so both hosts
    hand the router the same reply shapes.

    Messages: ``("ops", [(shard, [op, ...]), ...])`` (payload: per shard,
    the per-op outcomes), ``("call", shard, query, args)``,
    ``("restore_begin", shard, spec, state)``, ``("restore_apply", shard,
    items, replayed)`` (payload: the new count of replayed ops; a
    divergence names the op's position in the journal, counting the
    *replayed* ops applied by earlier chunks), ``("restore_finish",
    shard)`` (payload: ``(tasks issued, clock)`` for the audit),
    ``("drop", shard)`` and ``("stop",)``."""
    kind = message[0]
    try:
        if kind == "ops":
            payload: Any = [
                (shard, _apply_ops(hosted.engines.get(shard), shard, ops))
                for shard, ops in message[1]
            ]
        elif kind == "call":
            _kind, shard, name, args = message
            engine = hosted.engines.get(shard)
            if engine is None:
                raise ShardDownError(f"shard {shard} is not hosted")
            payload = _QUERIES[name](engine, *args)
        elif kind == "restore_begin":
            _kind, shard, spec, state = message
            engine = spec.build()
            engine.restore_state(state)
            hosted.restoring[shard] = engine
            payload = None
        elif kind == "restore_apply":
            _kind, shard, items, replayed = message
            engine = hosted.rebuilding(shard)
            for item_kind, item in items:
                if item_kind == "delta":
                    engine.apply_delta(item)
                else:
                    replayed += replay(engine, [item], first=replayed)
            payload = replayed
        elif kind == "restore_finish":
            shard = message[1]
            engine = hosted.rebuilding(shard)
            del hosted.restoring[shard]
            hosted.install(shard, engine)
            payload = (engine.ledger.tasks_issued_count(), engine.clock)
        elif kind == "drop":
            hosted.engines.pop(message[1], None)
            hosted.restoring.pop(message[1], None)
            payload = None
        elif kind == "stop":
            payload = None
        else:
            raise RecoveryError(f"unknown host message {kind!r}")
    except Exception as exc:
        return ("err", exc, hosted.drain())
    return ("ok", payload, hosted.drain())


class InProcessHost:
    """A host in the router's own process, with :class:`WorkerHandle`'s
    surface: every message is one direct :func:`serve` call (no pickling).
    Each engine's bus joins *bus* as the engine goes live, so its events
    reach the router's subscribers in one ``publish`` and replies carry
    none.  It never dies, and :meth:`close` leaves the engines readable."""

    def __init__(self, specs: dict[int, EngineSpec], bus: EventBus) -> None:
        self.hosted = Hosted(specs, lambda engine: engine.bus.join(bus))
        self.alive = True
        self._reply: tuple | None = None

    def slot(self, shard: int, proxy):
        """What the router's engine slot holds for live *shard*: the
        engine itself, so hot calls skip the protocol."""
        return self.hosted.engines[shard]

    def start(self, message: tuple) -> None:
        self._reply = serve(self.hosted, message)

    def finish(self) -> tuple:
        reply, self._reply = self._reply, None
        return reply

    def request(self, message: tuple) -> tuple:
        return serve(self.hosted, message)

    def close(self) -> None:
        pass


def worker_main(conn, specs: dict[int, EngineSpec]) -> None:
    """The worker process body: host the engines described by *specs*
    and :func:`serve` the router until a ``stop`` message or a closed
    pipe."""
    hosted = Hosted(specs)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        try:
            conn.send(serve(hosted, message))
        except (BrokenPipeError, OSError):
            return
        if message[0] == "stop":
            return


class WorkerHandle:
    """Parent-side endpoint for one worker process.

    ``start``/``finish`` are split so the router can ship a batch to every
    worker before collecting any reply -- with one round of pickling on
    each side, the engines crunch their shards concurrently.  Any pipe
    failure marks the handle dead and raises :class:`WorkerDiedError`;
    the router maps that onto the shard-crash path.
    """

    def __init__(self, specs: dict[int, EngineSpec]) -> None:
        ctx = multiprocessing.get_context()
        self.connection, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=worker_main, args=(child, specs), daemon=True
        )
        self.process.start()
        child.close()
        self.alive = True
        self._awaiting = False

    def slot(self, shard: int, proxy):
        """What the router's engine slot holds for live *shard*: *proxy*,
        since the engine lives in the child process."""
        return proxy

    def _die(self) -> WorkerDiedError:
        self.alive = False
        self._awaiting = False
        return WorkerDiedError(
            f"worker process pid={self.process.pid} died; its shards are "
            "crashed -- restore them and retry"
        )

    def start(self, message: tuple) -> None:
        """Ship one request without waiting for the reply."""
        if not self.alive:
            raise WorkerDiedError("worker process is not running")
        if self._awaiting:
            raise RecoveryError("worker has an outstanding request")
        try:
            self.connection.send(message)
        except (BrokenPipeError, OSError):
            raise self._die() from None
        self._awaiting = True

    def finish(self) -> tuple:
        """Collect the reply to the outstanding :meth:`start`."""
        if not self.alive:
            raise WorkerDiedError("worker process is not running")
        if not self._awaiting:
            raise RecoveryError("no outstanding request to finish")
        self._awaiting = False
        try:
            return self.connection.recv()
        except (EOFError, OSError):
            raise self._die() from None

    def request(self, message: tuple) -> tuple:
        """One synchronous round trip."""
        self.start(message)
        return self.finish()

    def close(self) -> None:
        """Stop the worker (graceful ``stop``, then terminate)."""
        if self.alive:
            try:
                self.request(("stop",))
            except (WorkerDiedError, RecoveryError):
                pass
            self.alive = False
        if self.process.is_alive():
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=1.0)
        self.connection.close()
