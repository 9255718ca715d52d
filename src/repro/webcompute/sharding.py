"""Horizontal sharding of the WBC service, composed with the paper's own
pairing functions.

A single :class:`~repro.webcompute.engine.AllocationEngine` is a
synchronous core; to scale out, :class:`ShardedWBCServer` runs ``S``
independent engine shards and keeps one *global, attributable* task-index
space by composing the mapping layers the way the paper composes arrays:
the pair ``(shard_no, local_index)`` is itself folded into one integer by
a composer, a bijection ``[S] x N <-> N`` named through the
:mod:`~repro.webcompute.codecs` registry.  The default is the
``congruence`` codec, Section 3.2.2's dovetailing with the shard count
fixed: shard ``k`` owns the class ``k - 1 mod S``, so the global index is
``S*(local - 1) + shard_no``, one ``divmod`` decodes it, and every
positive integer names a real shard.  The paper's own square-shell
composition (:class:`~repro.core.squareshell.SquareShellPairing`, the
``A_{1,1}`` of Section 3.2.1) and the other shell-walking PFs stay
selectable by name.  Global attribution is the composition of inverses:
``unpair`` recovers ``(shard_no, local_index)``, then the shard's APF
inverse plus its epoch table recovers ``(row, serial)`` and the volunteer
-- exact at any magnitude, because every step is integer-exact bignum
arithmetic.

Routing is fixed round-robin: registration ``k`` goes to the ``k mod n``-th
of the ``n`` shards that can take it, so a seeded run is exactly
reproducible, shard count included.

Fault tolerance (the difference between a demo and a service): every
mutating call is journaled to the shard's
:class:`~repro.webcompute.recovery.CheckpointStore` *after* it succeeds,
and the store periodically checkpoints the engine's complete snapshot.
:meth:`ShardedWBCServer.crash_shard` discards a shard's in-memory engine
(really discards it -- the slot is filled by a :class:`_DeadShard`
sentinel that refuses all traffic with the transient
:class:`~repro.errors.ShardDownError`);
:meth:`ShardedWBCServer.restore_shard` rebuilds it from checkpoint +
deterministic journal replay and audits that the rebuilt shard issued
exactly the indices the journal says it did -- no global task index is
ever double-issued across a crash.  While a shard is down, registration
routing degrades to the live shards only.

Checkpoints are **log-structured**: after the initial full snapshot, each
periodic checkpoint appends an incremental delta segment
(``engine.snapshot_delta`` since the log's newest covered tick) to the
shard's :class:`~repro.webcompute.recovery.CheckpointStore`, compacting
back into a full base every ``compact_every`` segments.  Restore is
**streaming**: :meth:`ShardedWBCServer.begin_restore` puts the shard into
a ``RESTORING`` degraded state (a :class:`_RestoringShard` sentinel) that
*accepts registrations* -- the round is buffered onto the replay queue and
seated when replay reaches it -- while every other call keeps raising the
transient :class:`~repro.errors.ShardDownError`;
:meth:`ShardedWBCServer.restore_step` incrementally applies delta
segments and journal ops, and :meth:`ShardedWBCServer.restore_shard`
remains the blocking begin + drain wrapper.  Ops that arrive while the
shard restores (global ticks, buffered registrations) are journaled *and*
appended to the replay queue, so the rebuilt engine converges on exactly
the state a blocking restore would have produced.  Events the engine
emits while replaying history are not published (the engine's bus joins
the global one only at the end) -- including the ``VolunteerRegistered``
events of rounds buffered during the restore window.

Execution modes: the router drives every shard through one host
protocol (:mod:`~repro.webcompute.shardworker`), and the mode only picks
the host.  With ``workers=None`` (the default) one in-process host holds
every shard; with ``workers=W`` the shards spread over ``min(W, S)``
worker-process hosts.  Both hosts run the same message handler, so ops
(through :func:`~repro.webcompute.recovery.apply_op`, the dispatcher
journal replay uses too), journals, restores and events are the same in
both modes by construction.  An in-process shard's engine slot holds
the engine itself, so singular calls are direct method calls; a
process-hosted shard's slot holds a proxy that ships each call as one
op.  Every shard engine's bus stamps the shard number on the events
built there.  An in-process engine's bus shares the global bus's
subscribers, so each of its events is delivered in one ``publish``; a
process host ships its events back with each reply and the router
publishes them.  The hot-path reads (``is_banned``, ``profile_of``)
come from a router-side mirror kept from the event stream in both
modes.  Batched entry points
(:meth:`ShardedWBCServer.request_tasks`,
:meth:`ShardedWBCServer.submit_results`,
:meth:`ShardedWBCServer.attribute_many`) fan one message out per host
and overlap the shards' work -- the amortization that turns sharding
from routing overhead into actual parallelism.  A worker process dying
is mapped onto the same ``crash_shard``/``restore_shard`` discipline as
an injected fault: its hosted shards go down with
:class:`~repro.errors.ShardDownError` and come back via checkpoint +
journal replay into a respawned process.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.apf.base import AdditivePairingFunction
from repro.errors import (
    AllocationError,
    ConfigurationError,
    RecoveryError,
    ReproError,
    ShardDownError,
)
from repro.webcompute.codecs import DEFAULT_CODEC, composer_for
from repro.webcompute.engine import AllocationEngine
from repro.webcompute.events import (
    CheckpointTaken,
    EventBus,
    ShardCrashed,
    ShardRestored,
    ShardRestoring,
    VolunteerBanned,
)
from repro.webcompute.ledger import LedgerReport
from repro.webcompute.recovery import CheckpointStore
from repro.webcompute.shardworker import EngineSpec, InProcessHost, WorkerHandle
from repro.webcompute.task import Task
from repro.webcompute.volunteer import VolunteerProfile

__all__ = ["AttributionPath", "ShardedWBCServer"]

#: Either kind of shard host; both speak the :mod:`shardworker` protocol.
_Host = InProcessHost | WorkerHandle


class _DeadShard:
    """The object occupying a crashed shard's engine slot.  Any attribute
    access raises :class:`~repro.errors.ShardDownError`, so traffic that
    slips past the liveness checks still fails transient-retryable rather
    than silently touching stale state.  The crashed engine itself is
    unreferenced (its in-memory state is genuinely lost)."""

    __slots__ = ("shard",)

    def __init__(self, shard: int) -> None:
        object.__setattr__(self, "shard", shard)

    def __getattr__(self, name: str):
        raise ShardDownError(
            f"shard {object.__getattribute__(self, 'shard')} is down "
            f"(attribute {name!r}); restore it and retry"
        )


class _RestoreSession:
    """Book-keeping for one shard's in-flight streaming restore (the
    rebuilding engine itself lives in the shard's host): the replay queue
    of ``("delta", segment)`` / ``("op", op)`` items, and the audit
    counters the finish step checks."""

    __slots__ = (
        "shard",
        "queue",
        "checkpoint_tick",
        "base_issued",
        "request_ops",
        "replayed_ops",
    )

    def __init__(self, shard: int, checkpoint_tick: int, base_issued: int) -> None:
        self.shard = shard
        self.queue: deque = deque()
        self.checkpoint_tick = checkpoint_tick
        self.base_issued = base_issued
        self.request_ops = 0
        self.replayed_ops = 0

    def enqueue_op(self, op: tuple | list) -> None:
        self.queue.append(("op", op))
        if op[0] == "request":
            self.request_ops += 1
        elif op[0] == "requests":
            self.request_ops += len(op[1])


class _RestoringShard:
    """The engine slot's occupant while a shard streams its restore.

    Registrations are *accepted* (degraded service): the server mints
    globally fresh volunteer ids, so the round cannot collide with any
    state still being replayed; the round's ``register`` op rides the
    replay queue (via the server's journaling seam) and the volunteers are
    actually seated when replay reaches it.  Everything else -- requests,
    returns, departures, reads -- raises the transient
    :class:`~repro.errors.ShardDownError` until the restore finishes."""

    __slots__ = ("shard", "_session")

    def __init__(self, shard: int, session: _RestoreSession) -> None:
        self.shard = shard
        self._session = session

    def validate_round(
        self, profiles: list[VolunteerProfile], ids: list[int] | None = None
    ) -> None:
        # Mirror the live engine's structural checks; the collision check
        # against already-registered ids is vacuous here because the
        # server only routes rounds with freshly minted ids.
        if ids is not None:
            if len(ids) != len(profiles):
                raise AllocationError(
                    f"got {len(ids)} ids for {len(profiles)} profiles"
                )
            for vid in ids:
                if isinstance(vid, bool) or not isinstance(vid, int) or vid <= 0:
                    raise AllocationError(
                        f"volunteer id must be a positive int, got {vid!r}"
                    )
            if len(set(ids)) != len(ids):
                raise AllocationError("duplicate volunteer id in one round")

    def register_round(
        self, profiles: list[VolunteerProfile], ids: list[int] | None = None
    ) -> list[int]:
        # The state change itself rides the replay queue: the server
        # journals the round's op right after this returns, and its
        # _journal seam appends every journaled op to the queue while the
        # shard is restoring.
        return list(ids)

    def __getattr__(self, name: str):
        raise ShardDownError(
            f"shard {object.__getattribute__(self, 'shard')} is restoring "
            f"(attribute {name!r}); only registration is served until "
            "replay finishes"
        )


class _Mirror:
    """Router-side read models of the hosted engines' state.

    The authoritative state lives in the engines; the router keeps just
    enough of a mirror to answer the hot-path reads (``is_banned``,
    ``profile_of``) without a host round trip, the same way for either
    host.  The ban set is maintained the way R005 wants every observer
    to work -- from the published event stream (``VolunteerBanned``,
    forwarded or shipped back with each reply); profiles are recorded at
    the two points the router already holds the authoritative object
    (registration commit and ``mark_corrupted``'s return value).  Both
    stay exact: an engine keeps a departed volunteer's profile, and bans
    are permanent.
    """

    __slots__ = ("profiles", "banned")

    def __init__(self) -> None:
        self.profiles: dict[int, VolunteerProfile] = {}
        self.banned: set[int] = set()

    def observe(self, event) -> None:
        if isinstance(event, VolunteerBanned):
            self.banned.add(event.volunteer_id)

    def note_profile(self, volunteer_id: int, profile: VolunteerProfile) -> None:
        self.profiles[volunteer_id] = profile


class _RemoteFrontend:
    """Read-only frontend facade of a worker-hosted engine."""

    __slots__ = ("_shard",)

    def __init__(self, shard: "_RemoteShard") -> None:
        self._shard = shard

    def seated_volunteers(self):
        return self._shard._call("seated_volunteers")


class _RemoteLedger:
    """Read-only ledger facade of a worker-hosted engine."""

    __slots__ = ("_shard",)

    def __init__(self, shard: "_RemoteShard") -> None:
        self._shard = shard

    def task(self, task_index: int) -> Task:
        return self._shard._call("task", task_index)


class _RemoteShard:
    """The engine slot's occupant for a shard on a process host: a
    stand-in for an :class:`~repro.webcompute.engine.AllocationEngine`
    living in a worker process.  Mutating methods ship the corresponding
    op; reads go through the host's query whitelist.  The server's
    routing/journaling method bodies run unchanged against either a real
    engine or this proxy."""

    __slots__ = ("_server", "shard")

    def __init__(self, server: "ShardedWBCServer", shard: int) -> None:
        self._server = server
        self.shard = shard

    # -- plumbing ------------------------------------------------------

    def _op(self, op: list):
        [(ok, value)] = self._server._scatter({self.shard: [op]})[self.shard]
        if not ok:
            raise value
        return value

    def _call(self, name: str, *args):
        return self._server._request(self.shard, ("call", self.shard, name, args))

    # -- engine surface ------------------------------------------------

    @property
    def apf(self) -> AdditivePairingFunction:
        return self._server._apf

    @property
    def apf_name(self) -> str:
        return self._server._apf.name

    @property
    def clock(self) -> int:
        return self._call("clock")

    @property
    def seated_count(self) -> int:
        return self._call("seated_count")

    @property
    def max_task_index(self) -> int:
        return self._call("max_task_index")

    @property
    def frontend(self) -> _RemoteFrontend:
        return _RemoteFrontend(self)

    @property
    def ledger(self) -> _RemoteLedger:
        return _RemoteLedger(self)

    def tick(self) -> int:
        return self._op(["tick"])

    def validate_round(
        self, profiles: list[VolunteerProfile], ids: list[int]
    ) -> None:
        self._op(["validate_register", [p.to_state() for p in profiles], list(ids)])

    def register_round(
        self, profiles: list[VolunteerProfile], ids: list[int]
    ) -> list[int]:
        return self._op(["register", [p.to_state() for p in profiles], list(ids)])

    def depart(self, volunteer_id: int) -> None:
        return self._op(["depart", volunteer_id])

    def request_task(self, volunteer_id: int) -> Task:
        return self._op(["request", volunteer_id])

    def submit_result(
        self,
        volunteer_id: int,
        task_index: int,
        result: int,
        local: int | None = None,
    ) -> None:
        return self._op(["submit", volunteer_id, task_index, result])

    def reap_expired(self) -> list[Task]:
        return self._op(["reap"])

    def mark_corrupted(self, volunteer_id: int, error_rate: float) -> VolunteerProfile:
        return self._op(["corrupt", volunteer_id, error_rate])

    # The worker decodes the global index itself: *local* is not shipped.
    def attribute(self, task_index: int, local: int | None = None) -> int:
        return self._call("attribute", task_index)

    def locate(self, task_index: int, local: int | None = None) -> tuple[int, int]:
        row, serial = self._call("locate", task_index)
        return row, serial

    def report(self) -> LedgerReport:
        return self._call("report")

    def snapshot_state(self) -> dict:
        return self._call("snapshot_state")

    def snapshot_delta(self, since_tick: int) -> dict:
        return self._call("snapshot_delta", since_tick)

    def __repr__(self) -> str:
        return f"<_RemoteShard shard={self.shard}>"


@dataclass(frozen=True, slots=True)
class AttributionPath:
    """The full inverse chain for one global task index: the witness the
    accountability argument rests on."""

    global_index: int
    shard: int
    local_index: int
    row: int
    serial: int
    volunteer_id: int


class ShardedWBCServer:
    """``S`` engine shards behind one attributable global index space.

    >>> from repro.apf.families import TSharp
    >>> server = ShardedWBCServer(TSharp(), shards=2)
    >>> a, b = server.register_round(
    ...     [VolunteerProfile("a", speed=2.0), VolunteerProfile("b")]
    ... )
    >>> server.shard_of(a), server.shard_of(b)
    (0, 1)
    >>> t = server.request_task(a)
    >>> server.attribute(t.index) == a
    True
    >>> server.submit_result(a, t.index, t.expected_result)

    Parameters
    ----------
    apf:
        The additive PF every shard allocates along (shards are
        independent, so they can share the stateless instance).
    shards:
        Number of engine shards ``S >= 1``.
    codec:
        The *name* of the registered index codec composing
        ``(shard_no, local_index)`` into the global index (see
        :mod:`~repro.webcompute.codecs`); ``None`` means
        :data:`~repro.webcompute.codecs.DEFAULT_CODEC`, the one-``divmod``
        ``congruence`` codec.  ``"square-shell"`` selects the paper's
        Rosenberg--Strong composition.
    lease_ticks:
        Task-lease length passed to every shard engine (``None`` = no
        leases).
    checkpoint_every:
        Checkpoint every live shard each time the global clock hits a
        multiple of this many ticks (``None`` = only the initial and
        explicitly requested checkpoints).
    compact_every:
        After the initial full checkpoint, periodic checkpoints append
        incremental delta segments; every ``compact_every`` segments the
        next checkpoint compacts the log back into a full base snapshot
        (``None`` = never compact automatically).
    workers:
        ``None`` (the default) hosts every engine in-process.  A
        positive int hosts the engines in ``min(workers, shards)``
        worker processes; call :meth:`close` (or use the server as a
        context manager) when done.
    """

    def __init__(
        self,
        apf: AdditivePairingFunction,
        shards: int,
        verification_rate: float = 0.1,
        ban_after_strikes: int = 2,
        seed: int = 0,
        *,
        codec: str | None = None,
        lease_ticks: int | None = None,
        checkpoint_every: int | None = None,
        compact_every: int | None = 8,
        workers: int | None = None,
    ) -> None:
        self.composer = composer_for(codec if codec is not None else DEFAULT_CODEC, shards)
        if checkpoint_every is not None and (
            isinstance(checkpoint_every, bool)
            or not isinstance(checkpoint_every, int)
            or checkpoint_every <= 0
        ):
            raise ConfigurationError(
                f"checkpoint_every must be a positive int or None, "
                f"got {checkpoint_every!r}"
            )
        if workers is not None and (
            isinstance(workers, bool) or not isinstance(workers, int) or workers < 1
        ):
            raise ConfigurationError(
                f"workers must be a positive int or None, got {workers!r}"
            )
        self.checkpoint_every = checkpoint_every
        self.compact_every = compact_every
        self.lease_ticks = lease_ticks
        # Kept so a crashed shard's engine can be rebuilt from scratch.
        self._apf = apf
        self._verification_rate = verification_rate
        self._ban_after_strikes = ban_after_strikes
        self._seed = seed
        self.bus = EventBus()
        self._clock = 0
        self.bus.set_clock(lambda: self._clock)
        self.engines: list[AllocationEngine] = []
        self._stores: list[CheckpointStore] = []
        self._alive: list[bool] = []
        self._restoring: dict[int, _RestoreSession] = {}
        self._mirror = _Mirror()
        self.bus.subscribe(self._mirror.observe, (VolunteerBanned,))
        self._workers = None if workers is None else min(workers, shards)
        layout: list[dict[int, EngineSpec]] = [{} for _ in range(self._workers or 1)]
        for shard in range(shards):
            layout[shard % len(layout)][shard] = self._spec_for(shard)
        self._hosts = [self._new_host(specs) for specs in layout]
        for shard in range(shards):
            engine = self._live_slot(shard)
            self.engines.append(engine)
            self._alive.append(True)
            store = CheckpointStore(compact_every=compact_every)
            self._stores.append(store)
            store.checkpoint_state(engine.snapshot_state())
        self._shard_of: dict[int, int] = {}
        self._next_volunteer_id = 1
        self._registrations = 0

    def _spec_for(self, shard: int) -> EngineSpec:
        """The picklable recipe every host builds this shard's engine
        from, at construction and on restore."""
        return EngineSpec(
            apf=self._apf,
            composer=self.composer,
            shard=shard,
            verification_rate=self._verification_rate,
            ban_after_strikes=self._ban_after_strikes,
            seed=self._seed,
            lease_ticks=self.lease_ticks,
        )

    def _new_host(self, specs: dict[int, EngineSpec]) -> _Host:
        """Start a host for the shards in *specs*: the one place the
        execution mode is chosen.  Serial mode runs a single in-process
        host holding every shard; worker mode one process per host."""
        if self._workers is None:
            return InProcessHost(specs, self.bus)
        return WorkerHandle(specs)

    def _live_slot(self, shard: int) -> AllocationEngine:
        """What a live shard's engine slot holds, as its host decides:
        the engine itself in-process, a :class:`_RemoteShard` otherwise."""
        return self._host_for(shard).slot(shard, _RemoteShard(self, shard))

    # -- host plumbing -------------------------------------------------

    @property
    def workers(self) -> int | None:
        """Worker-process count, or ``None`` in serial mode."""
        return self._workers

    def _host_for(self, shard: int) -> _Host:
        return self._hosts[shard % len(self._hosts)]

    def _hosted_by(self, host_index: int) -> list[int]:
        """The shards hosted by host *host_index*."""
        count = len(self._hosts)
        return [s for s in range(len(self.engines)) if s % count == host_index]

    def _mark_host_dead(self, handle: _Host) -> ShardDownError:
        """A host's worker process died: every live shard it hosted is
        now crashed (their in-memory engines are genuinely gone), exactly
        as if :meth:`crash_shard` had been called on each, and every
        restoring shard it hosted is plain-down again (the half-rebuilt
        engine died with the process; a fresh restore starts from the
        store).  Returns the transient error for the caller to raise or
        swallow.  (Only process hosts die.)"""
        downed: list[int] = []
        if handle in self._hosts:
            for shard in self._hosted_by(self._hosts.index(handle)):
                if not self._alive[shard] and shard not in self._restoring:
                    continue
                self._alive[shard] = False
                self._restoring.pop(shard, None)
                self.engines[shard] = _DeadShard(shard)  # type: ignore[assignment]
                self.bus.publish(
                    ShardCrashed(
                        tick=self._clock,
                        shard=shard,
                        pending_ops=self._stores[shard].pending_ops,
                    )
                )
                downed.append(shard)
        return ShardDownError(
            f"worker process died; shards {downed} crashed -- restore them "
            "and retry"
        )

    def _republish(self, events: list) -> None:
        """Deliver events a host shipped back to the global bus, in the
        order the host recorded them (each was built with its tick and
        shard already stamped)."""
        for event in events:
            self.bus.publish(event)

    def _request(self, shard: int, message: tuple):
        """One round trip to *shard*'s host: re-publishes the events the
        reply carries and returns its payload, or raises the error it
        reports (or the transient error a dead host's process leaves)."""
        handle = self._host_for(shard)
        try:
            status, payload, events = handle.request(message)
        except ShardDownError:
            raise self._mark_host_dead(handle) from None
        self._republish(events)
        if status == "err":
            raise payload
        return payload

    def _scatter(self, shard_ops: dict[int, list[list]]) -> dict[int, list]:
        """Apply each shard's ops on its host: one ``ops`` message per
        host, all sent before any reply is collected -- the overlap that
        lets worker processes crunch their shards concurrently.  Returns
        each shard's per-op ``(ok, result-or-exception)`` outcomes; every
        op sent to a host whose process died fails with the transient
        :class:`~repro.errors.ShardDownError`."""
        groups: dict[_Host, list[tuple[int, list]]] = {}
        for shard, ops in shard_ops.items():
            groups.setdefault(self._host_for(shard), []).append((shard, ops))
        outcomes: dict[int, list] = {}

        def fail(handle: _Host, exc: Exception) -> None:
            for shard, ops in groups[handle]:
                outcomes[shard] = [(False, exc)] * len(ops)

        started: list[_Host] = []
        for handle, batch in groups.items():
            try:
                handle.start(("ops", batch))
                started.append(handle)
            except ShardDownError:
                fail(handle, self._mark_host_dead(handle))
        for handle in started:
            try:
                status, payload, events = handle.finish()
            except ShardDownError:
                fail(handle, self._mark_host_dead(handle))
                continue
            self._republish(events)
            if status == "err":
                fail(handle, payload)
            else:
                outcomes.update(payload)
        return outcomes

    def close(self) -> None:
        """Shut down the worker processes (an in-process host has none).
        The server object stays readable afterwards only in serial mode;
        worker-mode traffic after ``close`` fails with
        :class:`~repro.errors.ShardDownError`."""
        for handle in self._hosts:
            handle.close()

    def __enter__(self) -> "ShardedWBCServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.engines)

    @property
    def codec_name(self) -> str:
        """The composer's registry name -- the codec the global index
        space is minted through."""
        return self.composer.name

    @property
    def clock(self) -> int:
        return self._clock

    # reprolint: allow[R005] clock advance: journaled to every shard's
    # store; the bus stamps events with the clock already
    def tick(self) -> int:
        """Advance every live shard's clock in lockstep.  The tick is
        journaled to *every* store -- including crashed shards', so a
        restore replays the downtime ticks and rejoins the global clock.
        The ticks fan out as one batch per host; a worker found dead here
        simply leaves its shards crashed (their journals already hold the
        tick, so restore rejoins the clock).
        """
        self._clock += 1
        for shard in range(len(self.engines)):
            self._journal(shard, ("tick",))
        self._scatter({shard: [["tick"]] for shard in self.alive_shards()})
        if (
            self.checkpoint_every is not None
            and self._clock % self.checkpoint_every == 0
        ):
            self.checkpoint_all()
        return self._clock

    @property
    def apf_name(self) -> str:
        return self._apf.name

    @property
    def max_task_index(self) -> int:
        """Largest *global* task index ever issued by a live shard -- the
        footprint of the composed space, the number the shard-scaling
        bench tracks.  (A crashed shard's contribution reappears when it
        is restored.)"""
        return max(
            (e.max_task_index for s, e in enumerate(self.engines) if self._alive[s]),
            default=0,
        )

    @property
    def seated_count(self) -> int:
        return sum(
            e.seated_count for s, e in enumerate(self.engines) if self._alive[s]
        )

    def shard_of(self, volunteer_id: int) -> int:
        try:
            return self._shard_of[volunteer_id]
        except KeyError:
            raise AllocationError(f"unknown volunteer {volunteer_id}") from None

    def engine_of(self, volunteer_id: int) -> AllocationEngine:
        return self._route(volunteer_id)[1]

    def _route(self, volunteer_id: int) -> tuple[int, AllocationEngine]:
        """(shard, engine) of a volunteer whose shard is live."""
        shard = self._shard_of.get(volunteer_id)
        if shard is None:
            raise AllocationError(f"unknown volunteer {volunteer_id}")
        if not self._alive[shard]:
            raise ShardDownError(
                f"volunteer {volunteer_id} lives on shard {shard}, "
                "which is down; retry after restore"
            )
        return shard, self.engines[shard]

    # -- liveness / crash / recovery -----------------------------------

    def _check_shard(self, shard: int) -> None:
        if isinstance(shard, bool) or not isinstance(shard, int):
            raise ConfigurationError(f"shard must be an int, got {shard!r}")
        if not 0 <= shard < len(self.engines):
            raise ConfigurationError(
                f"shard {shard} out of range 0..{len(self.engines) - 1}"
            )

    def is_shard_alive(self, shard: int) -> bool:
        self._check_shard(shard)
        return self._alive[shard]

    def is_shard_restoring(self, shard: int) -> bool:
        self._check_shard(shard)
        return shard in self._restoring

    def alive_shards(self) -> list[int]:
        """Indices of live shards, ascending."""
        return [s for s, alive in enumerate(self._alive) if alive]

    def routable_shards(self) -> list[int]:
        """Shards a registration can route to, ascending: live shards
        plus shards serving degraded while a streaming restore replays."""
        return sorted(set(self.alive_shards()) | set(self._restoring))

    def _journal(self, shard: int, op: tuple) -> None:
        """Journal *op* to the shard's durable store and, while the shard
        is mid-streaming-restore, onto the restore session's replay queue
        too: the op happened logically after the checkpoint the restore
        reads from, so the rebuilding engine must replay it as well."""
        self._stores[shard].journal(op)
        session = self._restoring.get(shard)
        if session is not None:
            session.enqueue_op(op)

    def checkpoint_shard(self, shard: int, *, full: bool = False) -> None:
        """Checkpoint one live shard.  Log-structured: the first
        checkpoint (and every one after ``compact_every`` delta segments
        accumulate, or when ``full=True``) stores the complete engine
        snapshot as a fresh base; otherwise an incremental delta since the
        log's newest covered tick is appended.  The snapshot/delta dict
        is pulled from the engine -- in-process or over the worker pipe
        -- and stored."""
        self._check_shard(shard)
        if not self._alive[shard]:
            raise ShardDownError(f"cannot checkpoint crashed shard {shard}")
        store = self._stores[shard]
        if full or not store.has_checkpoint or store.wants_compaction:
            cp = store.checkpoint_state(self.engines[shard].snapshot_state())
            issued, incremental = cp.tasks_issued, False
        else:
            delta = self.engines[shard].snapshot_delta(store.since_tick)
            _tick, issued = store.checkpoint_delta(delta)
            incremental = True
        self.bus.publish(
            CheckpointTaken(
                tick=self._clock,
                shard=shard,
                tasks_issued=issued,
                incremental=incremental,
            )
        )

    def checkpoint_all(self) -> None:
        """Checkpoint every live shard."""
        for shard in self.alive_shards():
            self.checkpoint_shard(shard)

    def crash_shard(self, shard: int) -> None:
        """Kill a shard: its engine object (all in-memory state) is
        dropped on the floor; only the checkpoint store survives.  Any
        call routed to the shard raises
        :class:`~repro.errors.ShardDownError` until
        :meth:`restore_shard`."""
        self._check_shard(shard)
        if not self._alive[shard]:
            raise RecoveryError(f"shard {shard} is already down")
        pending = self._stores[shard].pending_ops
        self.engines[shard] = _DeadShard(shard)  # type: ignore[assignment]
        self._alive[shard] = False
        self._drop(shard)
        self.bus.publish(
            ShardCrashed(tick=self._clock, shard=shard, pending_ops=pending)
        )

    def restore_shard(self, shard: int) -> None:
        """Blocking rebuild of a crashed shard: :meth:`begin_restore`
        then :meth:`restore_step` until the replay queue drains.  The
        rebuilt shard is audited to have issued exactly the indices the
        log says it should (``checkpoint + #request ops``) -- the
        no-double-issue guarantee across a crash -- and to have rejoined
        the global clock.  The rebuilt engine's events reach the global
        bus only *after* replay, so replayed history is not published."""
        self.begin_restore(shard)
        while not self.restore_step(shard):
            pass

    def begin_restore(self, shard: int) -> None:
        """Start a *streaming* restore of a crashed shard: restore the
        base checkpoint into a fresh engine in the shard's host, queue
        the log's delta segments and journaled ops for replay, and
        install the ``RESTORING`` sentinel -- the shard immediately
        serves registrations (buffered onto the replay queue) while
        everything else keeps failing with the transient
        :class:`~repro.errors.ShardDownError`.  Drive the replay with
        :meth:`restore_step`."""
        self._check_shard(shard)
        if self._alive[shard]:
            raise RecoveryError(f"shard {shard} is not down")
        if shard in self._restoring:
            raise RecoveryError(f"shard {shard} is already restoring")
        store = self._stores[shard]
        base = store.base_state()
        host_index = shard % len(self._hosts)
        if not self._hosts[host_index].alive:
            # Respawn empty: the other shards this process hosted are
            # down too (marked when it died) and will be restored into
            # the fresh process by their own restores.
            self._hosts[host_index] = self._new_host({})
        self._restore_request(
            shard, ("restore_begin", shard, self._spec_for(shard), base)
        )
        session = _RestoreSession(
            shard=shard,
            checkpoint_tick=store.checkpoint_tick,
            base_issued=store.checkpoint_issued,
        )
        for segment in store.segments():
            session.queue.append(("delta", segment))
        for op in store.ops():
            session.enqueue_op(op)
        self._restoring[shard] = session
        self.engines[shard] = _RestoringShard(shard, session)  # type: ignore[assignment]
        self.bus.publish(
            ShardRestoring(
                tick=self._clock,
                shard=shard,
                segments=store.segment_count,
                pending_ops=store.pending_ops,
            )
        )

    def restore_step(self, shard: int, max_items: int | None = None) -> bool:
        """Apply up to *max_items* queued restore items (delta segments,
        then journaled ops, then whatever arrived since) to the
        rebuilding engine; ``None`` drains the whole queue.  Returns
        ``True`` once the restore completed -- queue empty, audits
        passed, shard alive again.  A replay divergence aborts the
        restore (the half-rebuilt engine is discarded; the shard is
        plain-down again) and raises
        :class:`~repro.errors.RecoveryError`.  A *max_items* that is
        neither ``None`` nor a positive int could never drain the queue,
        so it raises :class:`~repro.errors.ConfigurationError`."""
        self._check_shard(shard)
        if max_items is not None and (
            isinstance(max_items, bool)
            or not isinstance(max_items, int)
            or max_items <= 0
        ):
            raise ConfigurationError(
                f"max_items must be a positive int or None, got {max_items!r}"
            )
        session = self._restoring.get(shard)
        if session is None:
            raise RecoveryError(f"shard {shard} is not restoring")
        budget = len(session.queue) if max_items is None else max_items
        chunk = []
        while budget > 0 and session.queue:
            chunk.append(session.queue.popleft())
            budget -= 1
        if chunk:
            try:
                session.replayed_ops = self._restore_request(
                    shard, ("restore_apply", shard, chunk, session.replayed_ops)
                )
            except Exception:
                self._abort_restore(shard)
                raise
        if session.queue:
            return False
        self._finish_restore(shard)
        return True

    def _finish_restore(self, shard: int) -> None:
        """The replay queue drained: audit the rebuilt engine (issued
        exactly ``base + #request ops``; clock rejoined the global clock)
        and swap it into the engine slot (the host attaches its event
        hook as it promotes the engine)."""
        session = self._restoring[shard]
        try:
            issued, clock = self._restore_request(shard, ("restore_finish", shard))
            expected = session.base_issued + session.request_ops
            if issued != expected:
                raise RecoveryError(
                    f"shard {shard} replay issued {issued} tasks, journal "
                    f"implies {expected} (checkpoint {session.base_issued} + "
                    f"{session.request_ops} requests)"
                )
            if clock != self._clock:
                raise RecoveryError(
                    f"shard {shard} replay ended at tick {clock}, "
                    f"global clock is {self._clock}"
                )
        except Exception:
            self._abort_restore(shard)
            raise
        self._restoring.pop(shard)
        self.engines[shard] = self._live_slot(shard)
        self._alive[shard] = True
        self.bus.publish(
            ShardRestored(
                tick=self._clock,
                shard=shard,
                checkpoint_tick=session.checkpoint_tick,
                replayed_ops=session.replayed_ops,
            )
        )

    # reprolint: allow[R005] not a state transition: the shard was already
    # down (its ShardCrashed published at crash time); abort just discards
    # the half-rebuilt engine, and the raised error is the caller's signal
    def _abort_restore(self, shard: int) -> None:
        """A streaming restore failed: discard the half-rebuilt engine
        and return the shard to plain-down (its store is untouched, so a
        fresh restore can start over)."""
        self._restoring.pop(shard, None)
        self.engines[shard] = _DeadShard(shard)  # type: ignore[assignment]
        self._drop(shard)

    def _drop(self, shard: int) -> None:
        """Make *shard*'s host drop its engines: the in-memory state must
        be genuinely lost, exactly like a process death."""
        if self._host_for(shard).alive:
            try:
                self._request(shard, ("drop", shard))
            except ShardDownError:
                pass  # the process died: its shards are already marked down

    def _restore_request(self, shard: int, message: tuple):
        """One restore-protocol message to *shard*'s host."""
        try:
            return self._request(shard, message)
        except ShardDownError as exc:
            raise RecoveryError(
                f"worker process died while restoring shard {shard}"
            ) from exc

    # ------------------------------------------------------------------

    def register(self, profile: VolunteerProfile) -> int:
        return self.register_round([profile])[0]

    # reprolint: allow[R005] each shard engine publishes VolunteerRegistered
    # itself; those events are forwarded to the global bus
    def register_round(self, profiles: list[VolunteerProfile]) -> list[int]:
        """Admit a batch: registration ``k`` goes to the ``k mod n``-th of
        the ``n`` routable shards, then each shard seats its sub-round
        (fastest first, as ever).  Volunteer ids are globally unique
        across shards.

        Degraded mode: only routable shards (live or streaming a
        restore) take registrations, so while a shard is down
        registrations route around it (and with every shard live,
        routing is bit-identical to the fault-free behavior).  Raises
        :class:`~repro.errors.AllocationError` when every shard is down.

        Atomicity: the round either seats every volunteer or none.
        Every per-shard bucket is validated before any engine mutates;
        if seating still fails partway (a shard dying mid-round), the
        already-seated buckets are rolled back with compensating departs
        and the raised error leaves no routing-table entry behind.  The
        consumed volunteer ids and registration sequence numbers are
        burned, never reused -- so a retried round gets fresh ids and
        identical routing behavior to any other round."""
        routable = self.routable_shards()
        if not routable:
            raise AllocationError("every shard is down; nothing can register")
        ids: list[int] = []
        per_shard: dict[int, tuple[list[VolunteerProfile], list[int]]] = {}
        try:
            for profile in profiles:
                shard = routable[self._registrations % len(routable)]
                vid = self._next_volunteer_id
                self._next_volunteer_id += 1
                self._registrations += 1
                self._shard_of[vid] = shard
                bucket = per_shard.setdefault(shard, ([], []))
                bucket[0].append(profile)
                bucket[1].append(vid)
                ids.append(vid)
            # Validate the whole round before any engine mutates: a bucket
            # a shard would reject must not leave earlier shards seated.
            for shard, (batch, batch_ids) in per_shard.items():
                self.engines[shard].validate_round(batch, ids=batch_ids)
        except Exception:
            for vid in ids:
                self._shard_of.pop(vid, None)
            raise
        committed: list[int] = []
        try:
            for shard, (batch, batch_ids) in per_shard.items():
                self.engines[shard].register_round(batch, ids=batch_ids)
                self._journal(
                    shard, ("register", [p.to_state() for p in batch], batch_ids)
                )
                committed.append(shard)
        except Exception:
            self._rollback_round(committed, per_shard)
            for vid in ids:
                self._shard_of.pop(vid, None)
            raise
        for batch, batch_ids in per_shard.values():
            for vid, profile in zip(batch_ids, batch):
                self._mirror.note_profile(vid, profile)
        return ids

    def _rollback_round(
        self,
        committed: list[int],
        per_shard: dict[int, tuple[list[VolunteerProfile], list[int]]],
    ) -> None:
        """Unseat the buckets a torn round already committed.  Each
        compensating depart is journaled even when the shard cannot be
        reached (it crashed mid-round): its journal already holds the
        round's ``register`` op, so the depart must follow it on replay
        for the restored shard to agree that the round never happened."""
        for shard in committed:
            _batch, batch_ids = per_shard[shard]
            for vid in batch_ids:
                try:
                    self.engines[shard].depart(vid)
                except ShardDownError:
                    pass
                self._journal(shard, ("depart", vid))

    def depart(self, volunteer_id: int) -> None:
        shard, engine = self._route(volunteer_id)
        engine.depart(volunteer_id)
        self._journal(shard, ("depart", volunteer_id))

    # ------------------------------------------------------------------

    def request_task(self, volunteer_id: int) -> Task:
        """The volunteer's next task; ``task.index`` is the composed
        global index."""
        shard, engine = self._route(volunteer_id)
        task = engine.request_task(volunteer_id)
        self._journal(shard, ("request", volunteer_id))
        return task

    def reap_expired(self) -> list[Task]:
        """Run the lease reaper on every live shard (each shard reissues
        its own expired tasks to its own idle volunteers)."""
        reissued: list[Task] = []
        for shard in self.alive_shards():
            reissued.extend(self.engines[shard].reap_expired())
            self._journal(shard, ("reap",))
        return reissued

    def mark_corrupted(self, volunteer_id: int, error_rate: float) -> VolunteerProfile:
        """Flip a volunteer malicious mid-run (the fault injector's hook)."""
        shard, engine = self._route(volunteer_id)
        profile = engine.mark_corrupted(volunteer_id, error_rate)
        self._journal(shard, ("corrupt", volunteer_id, error_rate))
        self._mirror.note_profile(volunteer_id, profile)
        return profile

    def _engine_for_index(self, global_index: int) -> tuple[int, int, AllocationEngine]:
        """(shard, local_index, engine) for a global task index.  The
        composer's ``unpair`` is the one check of the index: it raises
        :class:`~repro.errors.AllocationError` for anything that names no
        shard."""
        shard_no, local = self.composer.unpair(global_index)
        shard = shard_no - 1
        if not self._alive[shard]:
            raise ShardDownError(
                f"task {global_index} routes to shard {shard}, which is "
                "down; retry after restore"
            )
        return shard, local, self.engines[shard]

    def submit_result(self, volunteer_id: int, task_index: int, result: int) -> None:
        """Accept a result for a *global* task index.  Routing is by the
        index itself, so a forged submission against another shard's task
        is caught by that shard's attribution check.  A submission racing
        a crashed shard raises the transient
        :class:`~repro.errors.ShardDownError`; the caller (the
        simulation's retry queue, a real frontend) re-submits with
        backoff."""
        shard, local, engine = self._engine_for_index(task_index)
        engine.submit_result(volunteer_id, task_index, result, local)
        self._journal(shard, ("submit", volunteer_id, task_index, result))

    # -- batched entry points ------------------------------------------
    #
    # One entry per input, in input order; per-item failures come back as
    # exception *instances* instead of raising, so one dead shard cannot
    # abort the rest of the batch.  The batch fans out as one message per
    # host and the successes are journaled with the bulk grammar ops (see
    # repro.webcompute.recovery.apply_op).

    def request_tasks(self, volunteer_ids: list[int]) -> list:
        """Bulk :meth:`request_task`: each entry is the issued
        :class:`~repro.webcompute.task.Task`, or the
        :class:`~repro.errors.AllocationError` /
        :class:`~repro.errors.ShardDownError` that id's request raised."""
        results: list = [None] * len(volunteer_ids)
        entries: dict[int, list[tuple[int, int]]] = {}
        for pos, vid in enumerate(volunteer_ids):
            shard = self._shard_of.get(vid)
            if shard is None:
                results[pos] = AllocationError(f"unknown volunteer {vid}")
            elif not self._alive[shard]:
                results[pos] = ShardDownError(
                    f"volunteer {vid} lives on shard {shard}, "
                    "which is down; retry after restore"
                )
            else:
                entries.setdefault(shard, []).append((pos, vid))
        outcomes = self._scatter(
            {s: [["request", vid] for _pos, vid in pairs] for s, pairs in entries.items()}
        )
        for shard, pairs in entries.items():
            ok_vids: list[int] = []
            for (pos, vid), (ok, value) in zip(pairs, outcomes[shard]):
                results[pos] = value
                if ok:
                    ok_vids.append(vid)
            if ok_vids:
                self._journal(shard, ("requests", ok_vids))
        return results

    def submit_results(
        self, submissions: list[tuple[int, int, int]]
    ) -> list:
        """Bulk :meth:`submit_result` over ``(volunteer_id, task_index,
        result)`` triples: each entry is ``None`` on success or the
        exception that triple's submission raised (a forged submission's
        :class:`~repro.errors.AllocationError`, a crashed shard's
        :class:`~repro.errors.ShardDownError`, ...)."""
        results: list = [None] * len(submissions)
        entries: dict[int, list[tuple[int, tuple[int, int, int]]]] = {}
        for pos, (vid, index, result) in enumerate(submissions):
            try:
                shard, _local, _engine = self._engine_for_index(index)
            except ReproError as exc:
                results[pos] = exc
                continue
            entries.setdefault(shard, []).append((pos, (vid, index, result)))
        outcomes = self._scatter(
            {s: [["submit", *triple] for _pos, triple in items] for s, items in entries.items()}
        )
        for shard, items in entries.items():
            ok_triples: list[tuple[int, int, int]] = []
            for (pos, triple), (ok, value) in zip(items, outcomes[shard]):
                results[pos] = value  # None on success
                if ok:
                    ok_triples.append(triple)
            if ok_triples:
                self._journal(shard, ("submits", ok_triples))
        return results

    def attribute_many(self, task_indices: list[int]) -> list[int]:
        """Bulk :meth:`attribute`, same contract (raises on any invalid
        or down-shard index), batched one message per host."""
        owners: list = [None] * len(task_indices)
        entries: dict[int, list[tuple[int, int]]] = {}
        for pos, index in enumerate(task_indices):
            shard, _local, _engine = self._engine_for_index(index)
            entries.setdefault(shard, []).append((pos, index))
        outcomes = self._scatter(
            {
                s: [["attribute_many", [index for _pos, index in items]]]
                for s, items in entries.items()
            }
        )
        for shard, items in entries.items():
            [(ok, value)] = outcomes[shard]
            if not ok:
                raise value
            for (pos, _index), owner in zip(items, value):
                owners[pos] = owner
        return owners

    def task(self, task_index: int) -> Task:
        """The live :class:`~repro.webcompute.task.Task` record behind a
        global index (routed to its shard's ledger)."""
        _shard, _local, engine = self._engine_for_index(task_index)
        return engine.ledger.task(task_index)

    def attribute(self, task_index: int) -> int:
        """Global attribution: ``unpair`` to ``(shard, local)``, then the
        shard's APF inverse and epoch table.  The index is decoded once,
        here; the shard engine starts from ``local``."""
        _shard, local, engine = self._engine_for_index(task_index)
        return engine.attribute(task_index, local)

    def attribution_path(self, task_index: int) -> AttributionPath:
        """The full inverse chain
        ``global -> (shard, local) -> (row, serial) -> volunteer`` --
        the round-trip witness the sharded accountability property tests
        exercise at bignum scale."""
        shard, local, engine = self._engine_for_index(task_index)
        row, serial = engine.locate(task_index, local)
        return AttributionPath(
            global_index=task_index,
            shard=shard,
            local_index=local,
            row=row,
            serial=serial,
            volunteer_id=engine.attribute(task_index, local),
        )

    # ------------------------------------------------------------------

    def profile_of(self, volunteer_id: int) -> VolunteerProfile:
        """The volunteer's current profile.  Routed like
        :meth:`engine_of`, so a volunteer on a crashed shard fails with
        the clear retry-after-restore
        :class:`~repro.errors.ShardDownError`.  The profile comes from
        the router-side mirror (no host round trip)."""
        self._route(volunteer_id)
        return self._mirror.profiles[volunteer_id]

    def is_banned(self, volunteer_id: int) -> bool:
        """Whether the strike policy banned *volunteer_id*.  Unknown ids
        are simply not banned (``False``); a volunteer whose shard is
        down raises the clear retry-after-restore
        :class:`~repro.errors.ShardDownError`, as :meth:`engine_of` does.  The
        answer comes from the ban mirror, which the published
        ``VolunteerBanned`` stream keeps fresh."""
        if volunteer_id not in self._shard_of:
            return False
        self._route(volunteer_id)
        return volunteer_id in self._mirror.banned

    def report(self) -> LedgerReport:
        """The aggregate ledger report across every *live* shard (a
        crashed shard's ledger rejoins the aggregate once restored)."""
        reports = [self.engines[s].report() for s in self.alive_shards()]
        return LedgerReport(
            tasks_issued=sum(r.tasks_issued for r in reports),
            tasks_returned=sum(r.tasks_returned for r in reports),
            tasks_verified=sum(r.tasks_verified for r in reports),
            bad_results_returned=sum(r.bad_results_returned for r in reports),
            bad_results_caught=sum(r.bad_results_caught for r in reports),
            volunteers_banned=sum(r.volunteers_banned for r in reports),
            honest_volunteers_banned=sum(r.honest_volunteers_banned for r in reports),
            tasks_reissued=sum(r.tasks_reissued for r in reports),
            late_returns=sum(r.late_returns for r in reports),
        )

    def __repr__(self) -> str:
        return (
            f"<ShardedWBCServer shards={self.shard_count} "
            f"apf={self.apf_name} composer={self.composer.name} "
            f"seated={self.seated_count} max_task_index={self.max_task_index}>"
        )
