"""The accountability ledger and ban policy (Section 4, after [13]).

"A computationally lightweight scheme for keeping track of which volunteer
computed which task(s), thereby enabling the head of the WBC project to ban
frequently errant volunteers from continued participation."

The ledger records every issue and every return, verifies a *sample* of
returns (accountability, not full redundancy -- the paper is explicit that
this addresses accountability, not security), attributes each bad result to
its volunteer via the allocation function's inverse plus the front end's
epochs, and applies a strike-based ban policy.

Determinism: the verification sample is drawn from a caller-seeded RNG, so
any run is exactly reproducible.

The ledger is the system of record for accountability state, so its
internals stay private; everything other layers need is exposed through
the public read API (:meth:`~AccountabilityLedger.volunteer_ids`,
:meth:`~AccountabilityLedger.records`, :meth:`~AccountabilityLedger.tasks`,
:meth:`~AccountabilityLedger.banned_at_of`) and the snapshot/restore state
methods -- no neighbor reaches into ``_records``/``_tasks`` (the lint gate
enforces it).  Returns and bans are additionally published as structured
events on an optional :class:`~repro.webcompute.events.EventBus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError, DomainError
from repro.webcompute.events import EventBus, ResultReturned, VolunteerBanned
from repro.webcompute.task import Task, TaskStatus

__all__ = ["VolunteerRecord", "LedgerReport", "AccountabilityLedger", "CounterRNG"]


class CounterRNG:
    """Counter-based (SplitMix64) uniform stream for the verification
    sample: ``random()`` plus ``getstate``/``setstate``, with state that
    is two integers -- seed and draw counter -- where Mersenne Twister
    carries 625 words (~8 KB JSON-encoded), which every checkpoint delta
    would ship whenever a draw happened in its window.  The value at draw
    *n* is a pure function of ``(seed, n)``, so replay from any
    checkpoint is bit-identical by construction."""

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed & self._MASK
        self._counter = 0

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        self._counter += 1
        z = (self._seed + self._counter * self._GAMMA) & self._MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        z ^= z >> 31
        return (z >> 11) / 9007199254740992  # 2 ** 53

    def getstate(self) -> tuple[int, int]:
        return (self._seed, self._counter)

    def setstate(self, state: tuple[int, int]) -> None:
        seed, counter = state
        self._seed = int(seed) & self._MASK
        self._counter = int(counter)


def _encode_record(r: VolunteerRecord) -> list[Any]:
    """One record as its persisted 7-tuple ``[volunteer_id, issued,
    returned, verified, strikes, banned, banned_at]``."""
    return [
        r.volunteer_id, r.issued, r.returned, r.verified,
        r.strikes, r.banned, r.banned_at,
    ]


def _decode_record(row: list[Any]) -> VolunteerRecord:
    """Invert :func:`_encode_record`."""
    vid, issued, returned, verified, strikes, banned, banned_at = row
    return VolunteerRecord(
        volunteer_id=vid,
        issued=issued,
        returned=returned,
        verified=verified,
        strikes=strikes,
        banned=banned,
        banned_at=banned_at,
    )


def _encode_task(t: Task) -> list[Any]:
    """One task as its persisted 11-tuple ``[index, volunteer_id, serial,
    issued_at, status, returned_at, reported_result, returned_by,
    lease_expires_at, reissued_to, reissued_at]``."""
    return [
        t.index, t.volunteer_id, t.serial, t.issued_at,
        t.status.value, t.returned_at, t.reported_result,
        t.returned_by, t.lease_expires_at, t.reissued_to,
        t.reissued_at,
    ]


#: Persisted status value -> member: a dict lookup, where calling
#: ``TaskStatus(value)`` goes through the Enum machinery on every row.
_STATUS_OF = {status.value: status for status in TaskStatus}


def _decode_task(row: list[Any]) -> Task:
    """Invert :func:`_encode_task` in one ``Task(...)`` call."""
    (index, vid, serial, issued_at, status, returned_at, reported_result,
     returned_by, lease_expires_at, reissued_to, reissued_at) = row
    return Task(
        index, vid, serial, issued_at, _STATUS_OF[status], returned_at,
        reported_result, returned_by, lease_expires_at, reissued_to,
        reissued_at,
    )


@dataclass(slots=True)
class VolunteerRecord:
    """Per-volunteer accountability state."""

    volunteer_id: int
    issued: int = 0
    returned: int = 0
    verified: int = 0
    strikes: int = 0
    banned: bool = False
    banned_at: int | None = None

    @property
    def observed_error_rate(self) -> float:
        if self.verified == 0:
            return 0.0
        return self.strikes / self.verified


@dataclass(frozen=True, slots=True)
class LedgerReport:
    """Aggregate accountability metrics for one run.

    ``tasks_reissued`` counts tasks whose lease expired and that were
    handed to a new volunteer (the task *index* is never re-minted, so
    ``tasks_issued`` is unaffected); ``late_returns`` counts returns that
    arrived against an already-expired lease -- recorded, per the
    accountability contract, against the original assignee."""

    tasks_issued: int
    tasks_returned: int
    tasks_verified: int
    bad_results_returned: int
    bad_results_caught: int
    volunteers_banned: int
    honest_volunteers_banned: int
    tasks_reissued: int = 0
    late_returns: int = 0

    @property
    def catch_rate(self) -> float:
        """Fraction of returned-bad results the verification sample caught."""
        if self.bad_results_returned == 0:
            return 1.0
        return self.bad_results_caught / self.bad_results_returned


class AccountabilityLedger:
    """Issue/return bookkeeping, sampled verification, strike-based bans.

    Parameters
    ----------
    verification_rate:
        Probability that a returned task is spot-checked against ground
        truth.  1.0 verifies everything (full redundancy); the interesting
        regime is small rates, where accountability still catches persistent
        offenders because *every* task is attributable.
    ban_after_strikes:
        Confirmed-bad results before a volunteer is banned.
    rng:
        The seeded :class:`CounterRNG` for the verification sample
        (``CounterRNG(0)`` by default).
    bus:
        Optional :class:`~repro.webcompute.events.EventBus`; every return
        publishes a :class:`~repro.webcompute.events.ResultReturned` and
        every ban a :class:`~repro.webcompute.events.VolunteerBanned`.
    """

    def __init__(
        self,
        verification_rate: float = 0.1,
        ban_after_strikes: int = 2,
        rng: CounterRNG | None = None,
        bus: EventBus | None = None,
        clock: Callable[[], int] | None = None,
    ) -> None:
        if not 0.0 <= verification_rate <= 1.0:
            raise ConfigurationError(
                f"verification_rate must be in [0, 1], got {verification_rate}"
            )
        if isinstance(ban_after_strikes, bool) or not isinstance(ban_after_strikes, int):
            raise ConfigurationError("ban_after_strikes must be an int")
        if ban_after_strikes <= 0:
            raise ConfigurationError(
                f"ban_after_strikes must be positive, got {ban_after_strikes}"
            )
        # Policy scalars and RNG state are owned by the engine snapshot
        # (verification_rate / ban_after_strikes / rng_state keys); the
        # bus is observer plumbing, re-attached after restore.
        self.verification_rate = verification_rate  # reprolint: allow[R003]
        self.ban_after_strikes = ban_after_strikes  # reprolint: allow[R003]
        self.bus = bus  # reprolint: allow[R003]
        self._rng = rng if rng is not None else CounterRNG(0)  # reprolint: allow[R003]
        # on construction; delta bookkeeping is rebuilt by restore_state
        self._clock_fn = clock if clock is not None else (lambda: 0)
        self._tasks: dict[int, Task] = {}
        # Derived index over ``_tasks``: the tasks still ``ISSUED``, what
        # the lease reaper scans.  Never persisted: record_issue inserts,
        # record_return deletes, and _put_task keeps it in step for rows
        # read back from the log.
        self._outstanding: dict[int, Task] = {}
        self._records: dict[int, VolunteerRecord] = {}
        # Ground truth for reporting only (not visible to the ban policy):
        # every bad return, caught or not.
        self._bad_returns = 0
        self._bad_caught = 0
        self._late_returns = 0
        self._honest_ids: set[int] = set()
        # Delta-protocol dirty tracking: tick of each record/task/honest-tag
        # mutation, plus the tick of the last verification-RNG draw (the RNG
        # state only rides in a delta when it actually advanced).
        self._record_changed: dict[int, int] = {}
        self._task_changed: dict[int, int] = {}
        self._honest_changed: dict[int, int] = {}
        self._rng_changed = 0

    # ------------------------------------------------------------------

    def _record(self, volunteer_id: int) -> VolunteerRecord:
        rec = self._records.get(volunteer_id)
        if rec is None:
            rec = VolunteerRecord(volunteer_id=volunteer_id)
            self._records[volunteer_id] = rec
        return rec

    def _put_task(self, task: Task, changed_at: int) -> None:
        """The one writer of task rows read back from the log
        (:meth:`restore_state`, :meth:`apply_delta`): store *task*, stamp
        it changed at *changed_at*, and keep the outstanding index in
        step with its status."""
        self._tasks[task.index] = task
        self._task_changed[task.index] = changed_at
        if task.status is TaskStatus.ISSUED:
            self._outstanding[task.index] = task
        else:
            self._outstanding.pop(task.index, None)

    def note_honest(self, volunteer_id: int) -> None:
        """Report-only oracle tag: lets :meth:`report` count false bans.
        The ban policy itself never reads this."""
        self._honest_ids.add(volunteer_id)
        self._honest_changed[volunteer_id] = self._clock_fn()

    def note_corrupted(self, volunteer_id: int) -> None:
        """Drop the honest oracle tag for a volunteer whose behavior a
        fault injector corrupted mid-run: a later ban is a *correct* ban,
        not a false positive."""
        self._honest_ids.discard(volunteer_id)
        self._honest_changed[volunteer_id] = self._clock_fn()

    def record_issue(self, task: Task) -> None:
        if task.index in self._tasks:
            raise DomainError(f"task {task.index} was already issued")
        self._tasks[task.index] = task
        self._outstanding[task.index] = task
        self._record(task.volunteer_id).issued += 1
        now = self._clock_fn()
        self._task_changed[task.index] = now
        self._record_changed[task.volunteer_id] = now

    def record_reissue(
        self, task_index: int, to_volunteer: int, at_tick: int,
        new_lease_expires_at: int | None = None,
    ) -> Task:
        """Hand a still-unreturned task whose lease expired to a new
        volunteer.  Both assignments stay on the record: the task keeps
        its original ``volunteer_id`` (``T^-1`` attribution is untouched)
        and the reissue target is noted so its eventual return is
        accepted and charged to *it*, while a late return by the original
        assignee stays charged to the original assignee."""
        task = self._tasks.get(task_index)
        if task is None:
            raise DomainError(f"task {task_index} was never issued")
        if task.status is not TaskStatus.ISSUED:
            raise DomainError(
                f"task {task_index} cannot be reissued from status {task.status.value}"
            )
        task.reissued_to = to_volunteer
        task.reissued_at = at_tick
        if new_lease_expires_at is not None:
            task.lease_expires_at = new_lease_expires_at
        self._record(to_volunteer).issued += 1
        now = self._clock_fn()
        self._task_changed[task_index] = now
        self._record_changed[to_volunteer] = now
        return task

    def record_return(
        self, task_index: int, result: int, at_tick: int,
        submitter: int | None = None,
    ) -> bool:
        """Record a returned result; spot-check it with probability
        ``verification_rate``.  Returns ``True`` when the return triggered
        a ban.

        ``submitter`` is the volunteer handing in the result; it must be
        the task's original assignee or its current reissue target
        (anyone else is a forgery the caller should already have
        rejected).  The return -- and any strike it earns -- is charged
        to the submitter: a late return by the original assignee against
        an expired lease therefore stays on the original's record.

        A return is *late* when the submitter's own lease view has
        lapsed: the live lease has expired, or the task was reissued and
        the submitter is the original assignee (whose lease expired by
        definition -- the renewed lease belongs to the target)."""
        task = self._tasks.get(task_index)
        if task is None:
            raise DomainError(f"task {task_index} was never issued")
        if submitter is None:
            submitter = task.volunteer_id
        if submitter not in (task.volunteer_id, task.reissued_to):
            raise DomainError(
                f"task {task_index} belongs to volunteer {task.volunteer_id}"
                + (
                    f" (reissued to {task.reissued_to})"
                    if task.reissued_to is not None
                    else ""
                )
                + f", not {submitter}"
            )
        original_after_reissue = (
            task.reissued_to is not None and submitter == task.volunteer_id
        )
        if task.lease_expired(at_tick) or original_after_reissue:
            self._late_returns += 1
        task.mark_returned(result, at_tick)
        del self._outstanding[task_index]
        task.returned_by = submitter
        rec = self._record(submitter)
        rec.returned += 1
        is_bad = result != task.expected_result
        if is_bad:
            self._bad_returns += 1
        now = self._clock_fn()
        self._task_changed[task_index] = now
        self._record_changed[submitter] = now
        self._rng_changed = now
        verified = self._rng.random() < self.verification_rate
        banned_now = False
        if verified:
            rec.verified += 1
            ok = task.verify()
            if not ok:
                self._bad_caught += 1
                rec.strikes += 1
                if not rec.banned and rec.strikes >= self.ban_after_strikes:
                    rec.banned = True
                    rec.banned_at = at_tick
                    banned_now = True
        if self.bus is not None:
            self.bus.publish(
                ResultReturned(
                    tick=at_tick,
                    volunteer_id=submitter,
                    task_index=task_index,
                    bad=is_bad,
                    verified=verified,
                    shard=self.bus.shard,
                )
            )
            if banned_now:
                self.bus.publish(
                    VolunteerBanned(
                        tick=at_tick,
                        volunteer_id=submitter,
                        strikes=rec.strikes,
                        shard=self.bus.shard,
                    )
                )
        return banned_now

    def audit_task(self, task_index: int) -> TaskStatus:
        """Force-verify a single returned task (the project head's manual
        audit path).  A strike is charged to the volunteer that actually
        returned the result (``returned_by``) -- under a lease reissue
        that may be the reissue target, not the original assignee."""
        task = self._tasks.get(task_index)
        if task is None:
            raise DomainError(f"task {task_index} was never issued")
        if task.status is TaskStatus.RETURNED:
            returner = (
                task.returned_by if task.returned_by is not None else task.volunteer_id
            )
            rec = self._record(returner)
            now = self._clock_fn()
            self._task_changed[task_index] = now
            self._record_changed[returner] = now
            rec.verified += 1
            if not task.verify():
                self._bad_caught += 1
                rec.strikes += 1
                if not rec.banned and rec.strikes >= self.ban_after_strikes:
                    rec.banned = True
                    if self.bus is not None:
                        self.bus.publish(
                            VolunteerBanned(
                                tick=self.bus.now(),
                                volunteer_id=returner,
                                strikes=rec.strikes,
                                shard=self.bus.shard,
                            )
                        )
        return task.status

    # ------------------------------------------------------------------

    def is_banned(self, volunteer_id: int) -> bool:
        rec = self._records.get(volunteer_id)
        return rec is not None and rec.banned

    def record_of(self, volunteer_id: int) -> VolunteerRecord:
        rec = self._records.get(volunteer_id)
        if rec is None:
            raise DomainError(f"volunteer {volunteer_id} has no ledger record")
        return rec

    def task(self, task_index: int) -> Task:
        task = self._tasks.get(task_index)
        if task is None:
            raise DomainError(f"task {task_index} was never issued")
        return task

    def tasks_of(self, volunteer_id: int) -> list[Task]:
        """Every task ever issued to *volunteer_id* -- "keeping track of
        which volunteer computed which task(s)"."""
        return [t for t in self._tasks.values() if t.volunteer_id == volunteer_id]

    # -- public read API (what metrics / persistence / dashboards use) --

    def volunteer_ids(self) -> list[int]:
        """Every volunteer with a ledger record, ascending.  (Honest
        volunteers get a record at registration via :meth:`note_honest`;
        every volunteer gets one on its first issue.)"""
        return sorted(self._records)

    def records(self) -> list[VolunteerRecord]:
        """All per-volunteer records, by volunteer id.  The returned list
        is a copy; the records themselves are the live objects (treat them
        as read-only)."""
        return [self._records[vid] for vid in sorted(self._records)]

    def tasks(self) -> list[Task]:
        """Every task ever issued, by task index.  The list is a copy;
        the tasks are the live objects (treat them as read-only)."""
        return [self._tasks[idx] for idx in sorted(self._tasks)]

    def tasks_issued_count(self) -> int:
        """How many distinct task indices were ever issued -- the audit
        denominator incremental checkpoints carry in every delta."""
        return len(self._tasks)

    def outstanding_tasks(self) -> list[Task]:
        """Issued-but-unreturned tasks, by task index -- what the lease
        reaper scans and what a volunteer may still legitimately return.
        Sorts only the outstanding index, never the whole task table."""
        return [self._outstanding[idx] for idx in sorted(self._outstanding)]

    @property
    def late_returns(self) -> int:
        """Returns recorded against an already-expired lease."""
        return self._late_returns

    def banned_at_of(self, volunteer_id: int) -> int | None:
        """The tick a volunteer was banned at, or ``None`` if it is not
        banned (or was banned through :meth:`audit_task`, which has no
        tick)."""
        rec = self._records.get(volunteer_id)
        if rec is None or not rec.banned:
            return None
        return rec.banned_at

    # -- snapshot / restore state (the persistence seam) ---------------

    def rng_state(self) -> list[int]:
        """The verification RNG state as a JSON-able ``[seed, draws]``."""
        return list(self._rng.getstate())

    def set_rng_state(self, encoded: list[int]) -> None:
        """Adopt an :meth:`rng_state` list read back from the log,
        stamped one tick before the clock like every restored row (see
        :meth:`restore_state`): the next delta re-ships it only if a draw
        advances it."""
        self._rng.setstate(encoded)
        self._rng_changed = self._clock_fn() - 1

    def snapshot_state(self) -> dict[str, Any]:
        """The ledger's complete persistent state as a JSON-able dict
        (rates and RNG state are snapshot separately by the caller).
        Records are :func:`_encode_record` 7-tuples and tasks
        :func:`_encode_task` 11-tuples."""
        return {
            "honest_ids": sorted(self._honest_ids),
            "bad_returns": self._bad_returns,
            "bad_caught": self._bad_caught,
            "late_returns": self._late_returns,
            "records": [_encode_record(r) for r in self.records()],
            "tasks": [_encode_task(t) for t in self.tasks()],
        }

    def snapshot_delta(self, since_tick: int) -> dict[str, Any]:
        """Records/tasks/honest-tags mutated at or after *since_tick*.
        Counters ship as absolute values (idempotent to re-apply); the
        verification RNG state rides along only when a draw happened in the
        window."""
        delta: dict[str, Any] = {
            "bad_returns": self._bad_returns,
            "bad_caught": self._bad_caught,
            "late_returns": self._late_returns,
            "honest": [
                [vid, vid in self._honest_ids]
                for vid, t in sorted(self._honest_changed.items())
                if t >= since_tick
            ],
            "records": [
                _encode_record(self._records[vid])
                for vid, t in sorted(self._record_changed.items())
                if t >= since_tick
            ],
            "tasks": [
                _encode_task(self._tasks[idx])
                for idx, t in sorted(self._task_changed.items())
                if t >= since_tick
            ],
        }
        if self._rng_changed >= since_tick:
            delta["rng_state"] = self.rng_state()
        return delta

    def apply_delta(self, delta: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot_delta` dict into live state: upsert
        records/tasks, replay honest-tag membership, overwrite counters,
        and adopt the RNG state when it rode along.  Folded rows are
        stamped one tick before the clock, as in :meth:`restore_state`."""
        logged = self._clock_fn() - 1
        self._bad_returns = delta["bad_returns"]
        self._bad_caught = delta["bad_caught"]
        self._late_returns = delta["late_returns"]
        for vid, member in delta["honest"]:
            if member:
                self._honest_ids.add(vid)
            else:
                self._honest_ids.discard(vid)
            self._honest_changed[vid] = logged
        for row in delta["records"]:
            rec = _decode_record(row)
            self._records[rec.volunteer_id] = rec
            self._record_changed[rec.volunteer_id] = logged
        for row in delta["tasks"]:
            self._put_task(_decode_task(row), logged)
        if "rng_state" in delta:
            self.set_rng_state(delta["rng_state"])

    def restore_state(self, state: dict[str, Any]) -> None:
        """Rebuild record/task state from a :meth:`snapshot_state` dict."""
        self._honest_ids = set(state["honest_ids"])
        self._bad_returns = state["bad_returns"]
        self._bad_caught = state["bad_caught"]
        self._late_returns = state["late_returns"]
        self._records = {}
        for r in state["records"]:
            rec = _decode_record(r)
            self._records[rec.volunteer_id] = rec
        # Stamp every restored row one tick before the clock.  A delta
        # ships rows stamped at or after its since_tick, which is never
        # below the restored clock, so rows the log already holds are not
        # re-shipped; rows journal replay touches are re-stamped at their
        # real tick and still ship.
        logged = self._clock_fn() - 1
        self._tasks = {}
        self._outstanding = {}
        self._task_changed = {}
        for t in state["tasks"]:
            self._put_task(_decode_task(t), logged)
        self._record_changed = {vid: logged for vid in self._records}
        self._honest_changed = {vid: logged for vid in self._honest_ids}
        self._rng_changed = logged

    def report(self) -> LedgerReport:
        issued = len(self._tasks)
        returned = sum(
            1 for t in self._tasks.values() if t.status is not TaskStatus.ISSUED
        )
        verified = sum(
            1
            for t in self._tasks.values()
            if t.status in (TaskStatus.VERIFIED_OK, TaskStatus.VERIFIED_BAD)
        )
        banned = [r for r in self._records.values() if r.banned]
        return LedgerReport(
            tasks_issued=issued,
            tasks_returned=returned,
            tasks_verified=verified,
            bad_results_returned=self._bad_returns,
            bad_results_caught=self._bad_caught,
            volunteers_banned=len(banned),
            honest_volunteers_banned=sum(
                1 for r in banned if r.volunteer_id in self._honest_ids
            ),
            tasks_reissued=sum(
                1 for t in self._tasks.values() if t.reissued_to is not None
            ),
            late_returns=self._late_returns,
        )
