"""The allocation/attribution core of the web-computing service.

:class:`AllocationEngine` is the Section-4 cycle: allocator (cached APF
row contracts) + front end (seating, recycling, epochs) + ledger
(sampled verification, strikes, bans), behind a narrow public interface.
:class:`WBCServer` is one engine run as the whole service;
:class:`~repro.webcompute.sharding.ShardedWBCServer` runs several engines
side by side and composes their index spaces with a named codec.

Two seams make the engine shard-able:

* **Index codec** -- every task index leaving the engine passes through
  ``codec.encode`` and every index entering passes through
  ``codec.decode``, unless the caller already decoded it: the sharded
  router unpairs each global index once to route it, and hands the
  engine the local index.  The identity codec (the default) is the
  single-server behavior; a shard's codec is
  ``encode = pair(shard_no, .)`` / ``decode = unpair`` with the sharded
  server's composer (by default the ``congruence`` codec,
  ``S*(local - 1) + shard_no``, which is the identity at one shard; see
  :mod:`~repro.webcompute.codecs`), so the *ledger itself* records the
  globally-attributable indices and ground-truth verification stays
  consistent with what volunteers compute.
* **Event bus** -- every state transition publishes a typed event
  (:mod:`~repro.webcompute.events`), stamped with the bus's ``shard``; the
  metrics layer and the simulation driver subscribe instead of reaching
  into private state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.apf.base import AdditivePairingFunction
from repro.errors import AllocationError, ConfigurationError
from repro.webcompute.allocator import TaskAllocator
from repro.webcompute.events import (
    EventBus,
    TaskIssued,
    TaskReissued,
    VolunteerCorrupted,
    VolunteerDeparted,
    VolunteerRegistered,
)
from repro.webcompute.frontend import FrontEnd
from repro.webcompute.ledger import AccountabilityLedger, CounterRNG, LedgerReport
from repro.webcompute.task import Task
from repro.webcompute.volunteer import Behavior, VolunteerProfile

__all__ = [
    "IndexCodec",
    "IDENTITY_CODEC",
    "AllocationEngine",
    "WBCServer",
    "STATE_VERSION",
    "check_state",
]

#: The version of :meth:`AllocationEngine.snapshot_state`, the one
#: persisted state format (server snapshots and shard checkpoints alike).
STATE_VERSION = 3

_STATE_KEYS = frozenset(
    {
        "version",
        "apf",
        "clock",
        "max_task_index",
        "next_volunteer_id",
        "lease_ticks",
        "profiles",
        "contracts",
        "frontend",
        "ledger",
        "verification_rate",
        "ban_after_strikes",
        "rng_state",
    }
)


def check_state(state: dict[str, Any]) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless *state* is a
    complete :meth:`AllocationEngine.snapshot_state` dict of
    :data:`STATE_VERSION`: the one check on state read back from storage."""
    version = state.get("version")
    if version != STATE_VERSION:
        raise ConfigurationError(f"unsupported engine state version {version!r}")
    keys = set(state)
    if keys != _STATE_KEYS:
        raise ConfigurationError(
            f"engine state is missing {sorted(_STATE_KEYS - keys)} "
            f"and has unexpected {sorted(keys - _STATE_KEYS)}"
        )


@dataclass(frozen=True, slots=True)
class IndexCodec:
    """A bijection between the engine's local index space and the index
    space its callers see.  ``decode`` must invert ``encode`` exactly and
    raise :class:`~repro.errors.AllocationError` for indices outside the
    engine's slice of the global space."""

    encode: Callable[[int], int]
    decode: Callable[[int], int]


IDENTITY_CODEC = IndexCodec(encode=lambda index: index, decode=lambda index: index)


class AllocationEngine:
    """The accountable allocation core over one additive PF.

    >>> from repro.apf.families import TSharp
    >>> engine = AllocationEngine(TSharp())
    >>> vid = engine.register(VolunteerProfile("alice", speed=2.0))
    >>> task = engine.request_task(vid)
    >>> engine.submit_result(vid, task.index, task.expected_result)
    >>> engine.ledger.record_of(vid).returned
    1
    """

    def __init__(
        self,
        apf: AdditivePairingFunction,
        verification_rate: float = 0.1,
        ban_after_strikes: int = 2,
        seed: int = 0,
        *,
        codec: IndexCodec | None = None,
        bus: EventBus | None = None,
        lease_ticks: int | None = None,
    ) -> None:
        if lease_ticks is not None and (
            isinstance(lease_ticks, bool)
            or not isinstance(lease_ticks, int)
            or lease_ticks <= 0
        ):
            raise ConfigurationError(
                f"lease_ticks must be a positive int or None, got {lease_ticks!r}"
            )
        self.lease_ticks = lease_ticks
        # reprolint: allow[R003] wiring, not state: the codec is pure and
        # the restore caller passes the same one to the constructor
        self.codec = codec if codec is not None else IDENTITY_CODEC
        # reprolint: allow[R003] the bus is observer plumbing; snapshots
        # capture domain state only, subscribers re-attach after restore
        self.bus = bus if bus is not None else EventBus()
        self.bus.set_clock(lambda: self._clock)
        self.allocator = TaskAllocator(apf, clock=lambda: self._clock)
        self.frontend = FrontEnd(bus=self.bus, clock=lambda: self._clock)
        self.ledger = AccountabilityLedger(
            verification_rate=verification_rate,
            ban_after_strikes=ban_after_strikes,
            rng=CounterRNG(seed),
            bus=self.bus,
            clock=lambda: self._clock,
        )
        self._profiles: dict[int, VolunteerProfile] = {}
        self._profiles_changed: dict[int, int] = {}
        self._next_volunteer_id = 1
        self._clock = 0
        self._max_task_index = 0

    # ------------------------------------------------------------------

    @property
    def apf(self) -> AdditivePairingFunction:
        return self.allocator.apf

    @property
    def apf_name(self) -> str:
        return self.allocator.apf.name

    @property
    def clock(self) -> int:
        return self._clock

    # reprolint: allow[R005] the clock advance is journaled by owning
    # stores, and the bus stamps every event with the clock already
    def tick(self) -> int:
        """Advance the engine clock by one tick."""
        self._clock += 1
        return self._clock

    @property
    def max_task_index(self) -> int:
        """Largest (encoded) task index ever issued: the memory-footprint
        metric the paper's APF-compactness discussion optimizes.  Tracked
        across departures (unlike the allocator's live view)."""
        return self._max_task_index

    @property
    def next_volunteer_id(self) -> int:
        return self._next_volunteer_id

    @property
    def seated_count(self) -> int:
        return self.frontend.seated_count

    # ------------------------------------------------------------------

    def register(self, profile: VolunteerProfile) -> int:
        """Admit one volunteer; returns its id."""
        return self.register_round([profile])[0]

    def validate_round(
        self,
        profiles: list[VolunteerProfile],
        ids: list[int] | None = None,
    ) -> None:
        """The validation half of :meth:`register_round`, with no state
        change: raises :class:`~repro.errors.AllocationError` exactly when
        the same arguments would make :meth:`register_round` raise before
        mutating.  A router seating one logical round across several
        engines calls this on every bucket first, so a rejection cannot
        tear the round -- no engine is touched until all buckets pass."""
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
                if vid in self._profiles:
                    raise AllocationError(f"volunteer {vid} is already registered")
            if len(set(ids)) != len(ids):
                raise AllocationError("duplicate volunteer id in one round")

    def register_round(
        self,
        profiles: list[VolunteerProfile],
        ids: list[int] | None = None,
    ) -> list[int]:
        """Admit a batch; within the round, faster declared speeds receive
        smaller rows.  ``ids`` lets a router (the sharded server) assign
        globally-unique volunteer ids; by default the engine mints its own.
        """
        self.validate_round(profiles, ids)
        assigned: list[int] = []
        arrivals = []
        for i, profile in enumerate(profiles):
            if ids is None:
                vid = self._next_volunteer_id
                self._next_volunteer_id += 1
            else:
                vid = ids[i]
                self._next_volunteer_id = max(self._next_volunteer_id, vid + 1)
            self._profiles[vid] = profile
            self._profiles_changed[vid] = self._clock
            if not profile.is_faulty:
                self.ledger.note_honest(vid)
            assigned.append(vid)
            arrivals.append((vid, profile.speed))
        assignments = self.frontend.admit(arrivals)
        self.allocator.register_rows(
            [(a.row, a.start_serial) for a in assignments]
        )
        for vid, profile, assignment in zip(assigned, profiles, assignments):
            self.bus.publish(
                VolunteerRegistered(
                    tick=self._clock,
                    volunteer_id=vid,
                    row=assignment.row,
                    start_serial=assignment.start_serial,
                    speed=profile.speed,
                    shard=self.bus.shard,
                )
            )
        return assigned

    def depart(self, volunteer_id: int) -> None:
        """Volunteer leaves; its row is recycled (successor resumes from the
        first unissued serial, so no task index is ever double-issued).

        Raises :class:`~repro.errors.AllocationError` for an unknown (never
        registered) volunteer id -- same contract as :meth:`request_task` --
        and for a volunteer that already departed."""
        if volunteer_id not in self._profiles:
            raise AllocationError(f"unknown volunteer {volunteer_id}")
        row = self.frontend.depart(volunteer_id)
        resume = self.allocator.release_row(row)
        self.bus.publish(
            VolunteerDeparted(
                tick=self._clock,
                volunteer_id=volunteer_id,
                row=row,
                resume_serial=resume,
                banned=self.ledger.is_banned(volunteer_id),
                shard=self.bus.shard,
            )
        )

    # ------------------------------------------------------------------

    def request_task(self, volunteer_id: int) -> Task:
        """Hand *volunteer_id* its next task (index already encoded into
        the caller-visible space)."""
        profile = self._profiles.get(volunteer_id)
        if profile is None:
            raise AllocationError(f"unknown volunteer {volunteer_id}")
        if self.ledger.is_banned(volunteer_id):
            raise AllocationError(f"volunteer {volunteer_id} is banned")
        row = self.frontend.row_of(volunteer_id)
        contract = self.allocator.contract(row)
        serial = contract.next_serial
        index = self.codec.encode(self.allocator.next_task(row))
        self.frontend.note_issued(row, serial)
        task = Task(
            index=index,
            volunteer_id=volunteer_id,
            serial=serial,
            issued_at=self._clock,
            lease_expires_at=(
                self._clock + self.lease_ticks
                if self.lease_ticks is not None
                else None
            ),
        )
        self.ledger.record_issue(task)
        if index > self._max_task_index:
            self._max_task_index = index
        self.bus.publish(
            TaskIssued(
                tick=self._clock,
                volunteer_id=volunteer_id,
                task_index=index,
                row=row,
                serial=serial,
                shard=self.bus.shard,
            )
        )
        return task

    def submit_result(
        self,
        volunteer_id: int,
        task_index: int,
        result: int,
        local: int | None = None,
    ) -> None:
        """Accept a result.  The submitted task must attribute (via the APF
        inverse + epochs) to the submitting volunteer -- a mismatch is the
        accountability scheme catching a forged submission.  The one
        sanctioned exception is a lease reissue: the recorded reissue
        target may also return the task, but attribution (and hence
        responsibility for the original serial) still names the original
        assignee.  *local* is as in :meth:`locate`."""
        owner = self.attribute(task_index, local)
        if owner != volunteer_id:
            task = self.ledger.task(task_index)
            if task.reissued_to != volunteer_id:
                raise AllocationError(
                    f"task {task_index} attributes to volunteer {owner}, "
                    f"not {volunteer_id} (forged or misdirected submission)"
                )
        self.ledger.record_return(
            task_index, result, self._clock, submitter=volunteer_id
        )

    def reap_expired(self) -> list[Task]:
        """Reissue every outstanding task whose lease has expired to a new
        volunteer, deterministically: candidates are seated, non-banned
        volunteers with no outstanding assignment, scanned in ascending id
        order; the expired task's current assignee is never re-picked.
        Tasks with no eligible target stay with their current assignee
        (they will be reaped again next time).  Returns the reissued tasks.

        A call scans the ledger's outstanding index, never the whole task
        table, and sorts the seated ids once, so its cost does not grow
        with the number of tasks ever issued.
        """
        outstanding = self.ledger.outstanding_tasks()
        expired = [t for t in outstanding if t.lease_expired(self._clock)]
        if not expired:
            return []
        busy = {t.current_assignee for t in outstanding}
        seated = self.frontend.seated_volunteers()
        reissued: list[Task] = []
        for task in expired:
            previous = task.current_assignee
            target = None
            for vid in seated:
                if vid == previous or vid in busy or self.ledger.is_banned(vid):
                    continue
                target = vid
                break
            if target is None:
                continue
            new_lease = (
                self._clock + self.lease_ticks
                if self.lease_ticks is not None
                else None
            )
            self.ledger.record_reissue(
                task.index, target, self._clock, new_lease_expires_at=new_lease
            )
            busy.add(target)
            row, serial = self.locate(task.index)
            self.bus.publish(
                TaskReissued(
                    tick=self._clock,
                    task_index=task.index,
                    from_volunteer=previous,
                    to_volunteer=target,
                    row=row,
                    serial=serial,
                    shard=self.bus.shard,
                )
            )
            reissued.append(task)
        return reissued

    def mark_corrupted(self, volunteer_id: int, error_rate: float) -> VolunteerProfile:
        """A fault injector flipped *volunteer_id* malicious mid-run: swap
        in a corrupted profile, drop the ledger's honest oracle tag (a
        later ban is a correct ban), and publish the change."""
        profile = self.profile_of(volunteer_id)
        corrupted = VolunteerProfile(
            name=profile.name,
            speed=profile.speed,
            behavior=Behavior.MALICIOUS,
            error_rate=error_rate,
        )
        self._profiles[volunteer_id] = corrupted
        self._profiles_changed[volunteer_id] = self._clock
        self.ledger.note_corrupted(volunteer_id)
        self.bus.publish(
            VolunteerCorrupted(
                tick=self._clock,
                volunteer_id=volunteer_id,
                error_rate=error_rate,
                shard=self.bus.shard,
            )
        )
        return corrupted

    def locate(self, task_index: int, local: int | None = None) -> tuple[int, int]:
        """The allocation coordinates ``(row, serial)`` behind a
        caller-visible task index: codec decode, then ``T^-1``.  A router
        that already decoded *task_index* to this engine's slice passes
        the *local* index, and the codec is skipped."""
        if local is None:
            local = self.codec.decode(task_index)
        return self.allocator.attribute(local)

    def attribute(self, task_index: int, local: int | None = None) -> int:
        """Who is responsible for *task_index*?  Decode, ``T^-1``, epochs.
        *local* is as in :meth:`locate`."""
        row, serial = self.locate(task_index, local)
        return self.frontend.volunteer_for(row, serial)

    # ------------------------------------------------------------------

    def profile_of(self, volunteer_id: int) -> VolunteerProfile:
        try:
            return self._profiles[volunteer_id]
        except KeyError:
            raise AllocationError(f"unknown volunteer {volunteer_id}") from None

    def profiles(self) -> dict[int, VolunteerProfile]:
        """Every registered profile by volunteer id (a copy)."""
        return dict(self._profiles)

    def volunteer_ids(self) -> list[int]:
        """Every volunteer id ever registered on this engine, ascending."""
        return sorted(self._profiles)

    def is_banned(self, volunteer_id: int) -> bool:
        return self.ledger.is_banned(volunteer_id)

    def report(self) -> LedgerReport:
        return self.ledger.report()

    # -- snapshot / restore state (the persistence seam) ---------------

    def snapshot_state(self) -> dict[str, Any]:
        """The engine's *complete* persistent state as a JSON-able dict:
        the format version, the APF's registry name, engine scalars, and
        every component's own snapshot (allocator contracts, front-end
        epochs, ledger tasks/records, verification RNG).  This is the one
        persisted format: :func:`~repro.webcompute.persistence.dumps`
        writes it as is, and a shard's
        :class:`~repro.webcompute.recovery.CheckpointStore` base holds the
        same bytes."""
        return {
            "version": STATE_VERSION,
            "apf": self.apf_name,
            "clock": self._clock,
            "max_task_index": self._max_task_index,
            "next_volunteer_id": self._next_volunteer_id,
            "lease_ticks": self.lease_ticks,
            "profiles": {
                str(vid): p.to_state() for vid, p in self._profiles.items()
            },
            "contracts": self.allocator.snapshot_state(),
            "frontend": self.frontend.snapshot_state(),
            "ledger": self.ledger.snapshot_state(),
            "verification_rate": self.ledger.verification_rate,
            "ban_after_strikes": self.ledger.ban_after_strikes,
            "rng_state": self.ledger.rng_state(),
        }

    def snapshot_delta(self, since_tick: int) -> dict[str, Any]:
        """Everything that changed at or after *since_tick* as a JSON-able
        delta: scalars ship whole (they are tiny and idempotent to
        re-apply), components contribute their own ``snapshot_delta``, and
        ``tasks_issued`` denormalizes the audit count so a checkpoint store
        can track coverage without materializing state.  ``>=`` (not ``>``)
        keeps a delta cut mid-tick safe: re-shipped rows are upserts."""
        return {
            "since": since_tick,
            "clock": self._clock,
            "tasks_issued": self.ledger.tasks_issued_count(),
            "max_task_index": self._max_task_index,
            "next_volunteer_id": self._next_volunteer_id,
            "lease_ticks": self.lease_ticks,
            "verification_rate": self.ledger.verification_rate,
            "ban_after_strikes": self.ledger.ban_after_strikes,
            "profiles": {
                str(vid): self._profiles[vid].to_state()
                for vid, t in sorted(self._profiles_changed.items())
                if t >= since_tick
            },
            "contracts": self.allocator.snapshot_delta(since_tick),
            "frontend": self.frontend.snapshot_delta(since_tick),
            "ledger": self.ledger.snapshot_delta(since_tick),
        }

    # reprolint: allow[R005] folding a delta replays history: events were
    # already emitted when the original commands first ran
    def apply_delta(self, delta: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot_delta` dict into live state.  Applying
        the base state then every delta in log order must land bit-identical
        to the engine the deltas were cut from (the recovery differential
        tests pin this, and pin :func:`~repro.webcompute.recovery.fold_delta`
        against this method)."""
        self._clock = delta["clock"]
        self._max_task_index = delta["max_task_index"]
        self._next_volunteer_id = delta["next_volunteer_id"]
        self.lease_ticks = delta["lease_ticks"]
        # Folded rows are stamped a tick before the clock (see restore_state).
        for key, p in delta["profiles"].items():
            vid = int(key)
            self._profiles[vid] = VolunteerProfile.from_state(p)
            self._profiles_changed[vid] = self._clock - 1
        self.allocator.apply_delta(delta["contracts"])
        self.frontend.apply_delta(delta["frontend"])
        self.ledger.apply_delta(delta["ledger"])
        self.ledger.verification_rate = delta["verification_rate"]
        self.ledger.ban_after_strikes = delta["ban_after_strikes"]

    # reprolint: allow[R005] replay must not re-publish history: events
    # were already emitted when the journaled commands first ran
    def restore_state(self, state: dict[str, Any]) -> None:
        """Rebuild from a :meth:`snapshot_state` dict.  Every key is
        required (:func:`check_state`), and a state cut from an engine
        over a different APF is rejected: its task indices would decode
        to other volunteers."""
        check_state(state)
        if state["apf"] != self.apf_name:
            raise ConfigurationError(
                f"state was cut under APF {state['apf']!r}, "
                f"this engine runs {self.apf_name!r}"
            )
        self._clock = state["clock"]
        self._max_task_index = state["max_task_index"]
        self._next_volunteer_id = state["next_volunteer_id"]
        self.lease_ticks = state["lease_ticks"]
        self._profiles = {
            int(vid): VolunteerProfile.from_state(p)
            for vid, p in state["profiles"].items()
        }
        # Restored rows are already in the log: stamped a tick before the
        # clock, the next delta ships only what replay or later ticks change.
        self._profiles_changed = {vid: self._clock - 1 for vid in self._profiles}
        self.allocator.restore_state(state["contracts"])
        self.frontend.restore_state(state["frontend"])
        self.ledger.restore_state(state["ledger"])
        self.ledger.verification_rate = state["verification_rate"]
        self.ledger.ban_after_strikes = state["ban_after_strikes"]
        self.ledger.set_rng_state(state["rng_state"])

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} apf={self.apf_name} "
            f"seated={self.frontend.seated_count} "
            f"max_task_index={self._max_task_index}>"
        )


# A subclass, not an alias: class-level patches of ``WBCServer`` (a
# tracer's per-layer wrappers, a test's monkeypatched method) must not
# reach the engines a sharded server runs.
class WBCServer(AllocationEngine):
    """An accountable web-computing server over an additive PF.

    >>> from repro.apf.families import TSharp
    >>> server = WBCServer(TSharp())
    >>> vid = server.register(VolunteerProfile("alice", speed=2.0))
    >>> task = server.request_task(vid)
    >>> server.submit_result(vid, task.index, task.expected_result)
    >>> server.ledger.record_of(vid).returned
    1
    """

    # Pins the single-server configuration (identity codec, its own
    # bus): ``persistence.restore`` rebuilds a server from these knobs.
    def __init__(
        self,
        apf: AdditivePairingFunction,
        verification_rate: float = 0.1,
        ban_after_strikes: int = 2,
        seed: int = 0,
        lease_ticks: int | None = None,
    ) -> None:
        super().__init__(
            apf, verification_rate, ban_after_strikes, seed, lease_ticks=lease_ticks
        )
