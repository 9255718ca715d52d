"""Shard crash recovery: checkpoints, op journals, deterministic replay.

The sharded service (Section 4 at scale) must keep the accountability
invariant -- no global task index double-issued, ``T^-1`` attribution
exact -- across the failure a real deployment actually sees: a shard
process dying and being restarted.  The recovery discipline here is the
classic checkpoint + write-ahead-journal pair, specialized to the
engine's determinism:

* A :class:`ShardCheckpoint` is the engine's **complete** snapshot
  (:meth:`~repro.webcompute.engine.AllocationEngine.snapshot_state`:
  contracts, epochs, ledger tasks, verification-RNG state) taken at a
  known tick, serialized through JSON so the stored form is exactly what
  a durable medium would hold.
* The store itself is **log-structured**: a base checkpoint plus delta
  segments (:meth:`~repro.webcompute.engine.AllocationEngine.snapshot_delta`
  cuts), compacted back into a fresh base every ``compact_every``
  segments.  :meth:`CheckpointStore.latest` materializes state by folding
  segments over the base with :func:`fold_delta` -- a dict-level fold
  pinned bit-identical to the engine's live ``apply_delta`` by the
  recovery differential tests.
* The **op journal** records every state-mutating engine call made after
  the checkpoint, in order, as small JSON-able entries, serialized in
  batches of :data:`JOURNAL_BATCH`.  Because the engine is deterministic
  (the only randomness is the ledger's verification RNG, whose state is
  *inside* the checkpoint), replaying the journal against the restored
  checkpoint reproduces the lost state bit-for-bit -- same task indices,
  same strikes, same bans.
* :func:`replay` applies a journal to a restored engine and returns the
  op count; :func:`apply_op` is the single-op dispatcher (also the
  documentation of the journal grammar), shared with the shard hosts'
  live path so live application and replay cannot drift apart.

Ops are journaled *after* the engine call succeeds ("journal-after-
success"): every mutating engine method validates before mutating, so a
rejected call leaves neither state nor journal entry, and replay never
re-raises.

:class:`Backoff` is the retry-pacing half of the story: returns that race
a crashed shard fail with the *transient*
:class:`~repro.errors.ShardDownError` and are retried on an exponential
schedule instead of being dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError, RecoveryError
from repro.webcompute.engine import AllocationEngine
from repro.webcompute.volunteer import VolunteerProfile

__all__ = [
    "JOURNAL_BATCH",
    "ShardCheckpoint",
    "CheckpointStore",
    "fold_delta",
    "apply_op",
    "replay",
    "Backoff",
]


@dataclass(frozen=True, slots=True)
class ShardCheckpoint:
    """One durable full-state snapshot of a shard's engine.

    ``state`` is the engine snapshot dict (possibly materialized by
    folding delta segments over a base); ``tick`` and ``tasks_issued``
    are denormalized out of it so recovery audits (and the bench) can
    read them without parsing the whole blob.
    """

    tick: int
    tasks_issued: int
    state: dict[str, Any]


def fold_delta(state: dict[str, Any], delta: dict[str, Any]) -> None:
    """Fold one engine delta (an
    :meth:`~repro.webcompute.engine.AllocationEngine.snapshot_delta` dict)
    into a full engine-state dict, in place.

    This is the *storage-side* twin of the engine's live ``apply_delta``:
    folding a base snapshot through every segment must produce exactly
    ``snapshot_state()`` of the engine the segments were cut from (the
    recovery differential tests pin the two against each other).  It only
    understands the compact row formats this version writes -- fine,
    because bases and segments are always written by the same store.
    """
    state["clock"] = delta["clock"]
    state["max_task_index"] = delta["max_task_index"]
    state["next_volunteer_id"] = delta["next_volunteer_id"]
    state["lease_ticks"] = delta["lease_ticks"]
    state["verification_rate"] = delta["verification_rate"]
    state["ban_after_strikes"] = delta["ban_after_strikes"]
    state["profiles"].update(delta["profiles"])
    # Allocator: rows are [row, base, stride, next_serial].
    ad = delta["contracts"]
    rows = {c[0]: c for c in state["contracts"]}
    for row in ad["released"]:
        rows.pop(row, None)
    for c in ad["rows"]:
        rows[c[0]] = c
    state["contracts"] = [rows[r] for r in sorted(rows)]
    # Front end.
    fe, fd = state["frontend"], delta["frontend"]
    fe["free_rows"] = list(fd["free_rows"])
    fe["next_fresh_row"] = fd["next_fresh_row"]
    for key, info in fd["rows"].items():
        if info["resume"] is not None:
            fe["row_resume_serial"][key] = info["resume"]
        if info["issued"] is not None:
            fe["issued_serials"][key] = info["issued"]
        fe["epochs"][key] = info["epochs"]
    for vid in fd["unseated"]:
        fe["row_of_volunteer"].pop(str(vid), None)
    fe["row_of_volunteer"].update(fd["seats"])
    # Ledger: records are 7-tuples, tasks 11-tuples, keyed by field 0.
    ld, dd = state["ledger"], delta["ledger"]
    ld["bad_returns"] = dd["bad_returns"]
    ld["bad_caught"] = dd["bad_caught"]
    ld["late_returns"] = dd["late_returns"]
    honest = set(ld["honest_ids"])
    for vid, member in dd["honest"]:
        if member:
            honest.add(vid)
        else:
            honest.discard(vid)
    ld["honest_ids"] = sorted(honest)
    records = {r[0]: r for r in ld["records"]}
    for r in dd["records"]:
        records[r[0]] = r
    ld["records"] = [records[k] for k in sorted(records)]
    tasks = {t[0]: t for t in ld["tasks"]}
    for t in dd["tasks"]:
        tasks[t[0]] = t
    ld["tasks"] = [tasks[k] for k in sorted(tasks)]
    if "rng_state" in dd:
        state["rng_state"] = dd["rng_state"]


#: Journaled ops serialized by one ``json.dumps`` call.
JOURNAL_BATCH = 256


class CheckpointStore:
    """Per-shard durable storage, log-structured: a base checkpoint, the
    delta segments appended since it, and the op journal accumulated
    since the newest segment.

    The base and each delta segment are stored as their ``json.dumps``
    text, so a checkpoint is provably serializable (what a disk or object
    store would hold).  The journal keeps the ops it was handed until
    :data:`JOURNAL_BATCH` of them are pending, then stores them as one
    JSON array; a cut serializes what is still pending before it
    truncates the journal.  An op JSON cannot encode therefore raises
    ``TypeError`` at the batch that holds it or at the next cut, not at
    restore, and at most :data:`JOURNAL_BATCH` ops are ever held
    unserialized.  Everything read back (:meth:`base_state`,
    :meth:`segments`, :meth:`latest`, :meth:`ops`) is decoded fresh from
    JSON, so the restored state shares no mutable structure with the
    live engine or the router -- a crashed shard really does lose its
    in-memory objects.

    ``compact_every`` bounds the log: once that many segments have
    accumulated, :attr:`wants_compaction` turns true and the owner's next
    checkpoint should be a full one (``None`` disables compaction -- the
    log grows until someone takes a full checkpoint explicitly).
    """

    def __init__(self, compact_every: int | None = 8) -> None:
        if compact_every is not None and (
            isinstance(compact_every, bool)
            or not isinstance(compact_every, int)
            or compact_every <= 0
        ):
            raise ConfigurationError(
                f"compact_every must be a positive int or None, got {compact_every!r}"
            )
        self.compact_every = compact_every
        self._base: str | None = None
        self._base_tick = 0
        self._base_issued = 0
        self._segments: list[str] = []
        self._segment_meta: list[tuple[int, int]] = []  # (tick, issued)
        self._journal: list[str] = []  # JSON arrays of JOURNAL_BATCH ops each
        self._pending: list = []  # ops journaled since the last batch

    # ------------------------------------------------------------------

    def checkpoint(self, engine: AllocationEngine) -> ShardCheckpoint:
        """Full-snapshot *engine* into a fresh base (compaction) and
        truncate segments and journal."""
        return self.checkpoint_state(engine.snapshot_state())

    def checkpoint_state(self, state: dict[str, Any]) -> ShardCheckpoint:
        """Store an already-captured engine snapshot as the new base and
        truncate segments and journal.  The seam the sharded router uses:
        the engine may live in another process, so the router receives
        the snapshot dict from the shard's host and checkpoints *that*
        rather than a live engine."""
        issued = len(state["ledger"]["tasks"])
        base = json.dumps(state, sort_keys=True)
        self._truncate_journal()
        self._base = base
        self._base_tick = state["clock"]
        self._base_issued = issued
        self._segments = []
        self._segment_meta = []
        return ShardCheckpoint(
            tick=state["clock"], tasks_issued=issued, state=state
        )

    def checkpoint_delta(self, delta: dict[str, Any]) -> tuple[int, int]:
        """Append one delta segment (an engine ``snapshot_delta`` dict cut
        at :attr:`since_tick`) and truncate the journal.  Returns the
        ``(tick, tasks_issued)`` the log now covers."""
        if self._base is None:
            raise RecoveryError("no base checkpoint to append a delta to")
        segment = json.dumps(delta, sort_keys=True)
        self._truncate_journal()
        self._segments.append(segment)
        meta = (delta["clock"], delta["tasks_issued"])
        self._segment_meta.append(meta)
        return meta

    def journal(self, op: tuple | list) -> None:
        """Append one op (see :func:`apply_op` for the grammar).  The
        store keeps *op* itself until its batch is serialized, so the
        caller must not mutate it afterwards."""
        pending = self._pending
        pending.append(op)
        if len(pending) >= JOURNAL_BATCH:
            self._journal.append(json.dumps(pending))
            pending.clear()

    def _truncate_journal(self) -> None:
        """Drop the journal at a cut, after proving the ops still pending
        serializable: a bad op fails the cut, never a later restore."""
        if self._pending:
            json.dumps(self._pending)
            self._pending = []
        self._journal = []

    @property
    def has_checkpoint(self) -> bool:
        return self._base is not None

    @property
    def checkpoint_tick(self) -> int:
        """The newest tick the log covers (last segment, else the base)."""
        if self._segment_meta:
            return self._segment_meta[-1][0]
        return self._base_tick

    @property
    def checkpoint_issued(self) -> int:
        """Tasks issued as of the newest log entry (the double-issue
        audit's baseline)."""
        if self._segment_meta:
            return self._segment_meta[-1][1]
        return self._base_issued

    @property
    def since_tick(self) -> int:
        """The tick the *next* delta segment must cover from -- same as
        :attr:`checkpoint_tick`, named for the cut-side call site
        (``engine.snapshot_delta(store.since_tick)``)."""
        return self.checkpoint_tick

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def wants_compaction(self) -> bool:
        """True once the segment log is long enough that the next
        checkpoint should be a full (base) one."""
        return (
            self.compact_every is not None
            and len(self._segments) >= self.compact_every
        )

    @property
    def base_bytes(self) -> int:
        """Serialized size of the base checkpoint (bench instrumentation)."""
        return len(self._base) if self._base is not None else 0

    @property
    def segment_bytes(self) -> list[int]:
        """Serialized size of each delta segment, in log order."""
        return [len(s) for s in self._segments]

    @property
    def pending_ops(self) -> int:
        """Journal length since the newest log entry -- the replay work a
        restore will have to do."""
        return len(self._journal) * JOURNAL_BATCH + len(self._pending)

    def base_state(self) -> dict[str, Any]:
        """The base checkpoint's engine state, deserialized fresh."""
        if self._base is None:
            raise RecoveryError("no checkpoint has been taken")
        return json.loads(self._base)

    def segments(self) -> list[dict[str, Any]]:
        """The delta segments in log order, deserialized fresh."""
        return [json.loads(s) for s in self._segments]

    def latest(self) -> ShardCheckpoint:
        """The newest coverable state: the base with every delta segment
        folded over it, deserialized fresh (no shared state)."""
        state = self.base_state()
        for delta in self.segments():
            fold_delta(state, delta)
        return ShardCheckpoint(
            tick=self.checkpoint_tick,
            tasks_issued=self.checkpoint_issued,
            state=state,
        )

    def ops(self) -> list[list[Any]]:
        """The journaled ops since the newest log entry, in order, as
        fresh lists decoded from JSON (sharing nothing with the ops the
        store was handed)."""
        ops = [op for batch in self._journal for op in json.loads(batch)]
        ops.extend(json.loads(json.dumps(self._pending)))
        return ops


def apply_op(engine: AllocationEngine, op: list[Any]) -> Any:
    """Apply one op to *engine* and return what the engine call returned
    (a list, one entry per item, for the bulk tags).  The one op
    dispatcher: shard hosts apply live ops through it and :func:`replay`
    applies journaled ones, ignoring the results.  The journal grammar::

        ["tick"]
        ["register", [profile_state, ...], [volunteer_id, ...]]
        ["depart", volunteer_id]
        ["request", volunteer_id]
        ["requests", [volunteer_id, ...]]
        ["submit", volunteer_id, task_index, result]
        ["submits", [[volunteer_id, task_index, result], ...]]
        ["reap"]
        ["corrupt", volunteer_id, error_rate]

    The bulk forms (``requests``/``submits``) are what the batched router
    journals: one entry per shard per batch instead of one per call, with
    only the calls that *succeeded* (journal-after-success is per item).
    Replaying a bulk op is defined as replaying its singular ops in order,
    so a bulk journal restores the same state as the singular journal.

    Two live-only tags are never journaled, because they change no
    state: ``["validate_register", [profile_state, ...], [volunteer_id,
    ...]]`` (the round check that precedes a journaled ``register``) and
    ``["attribute_many", [task_index, ...]]``.

    Replay is deterministic because every op carries the ids the original
    call resolved and the engine's only RNG rides in the checkpoint.
    """
    kind = op[0]
    if kind == "tick":
        return engine.tick()
    if kind == "register":
        profiles = [VolunteerProfile.from_state(p) for p in op[1]]
        return engine.register_round(profiles, ids=list(op[2]))
    if kind == "validate_register":
        profiles = [VolunteerProfile.from_state(p) for p in op[1]]
        return engine.validate_round(profiles, ids=list(op[2]))
    if kind == "depart":
        return engine.depart(op[1])
    if kind == "request":
        return engine.request_task(op[1])
    if kind == "requests":
        return [engine.request_task(vid) for vid in op[1]]
    if kind == "submit":
        return engine.submit_result(op[1], op[2], op[3])
    if kind == "submits":
        return [
            engine.submit_result(vid, task_index, result)
            for vid, task_index, result in op[1]
        ]
    if kind == "reap":
        return engine.reap_expired()
    if kind == "corrupt":
        return engine.mark_corrupted(op[1], op[2])
    if kind == "attribute_many":
        return [engine.attribute(index) for index in op[1]]
    raise RecoveryError(f"unknown journal op {kind!r}")


def replay(engine: AllocationEngine, ops: list[list[Any]], first: int = 0) -> int:
    """Apply *ops* in order; returns the number replayed.  Any engine
    rejection during replay means the journal diverged from the
    checkpoint -- recovery must fail loudly, not half-restore.  *first*
    is the journal position of ``ops[0]``, so a restore replaying the
    journal in chunks still names the diverging op's place in it."""
    for i, op in enumerate(ops, first):
        try:
            apply_op(engine, op)
        except Exception as exc:
            raise RecoveryError(
                f"journal replay diverged at op {i} ({op[0]!r}): {exc}"
            ) from exc
    return len(ops)


@dataclass(slots=True)
class Backoff:
    """Deterministic exponential backoff schedule, in ticks.

    Drives the frontend's retry queue for returns that race a crashed
    shard: attempt 0 retries after ``base`` ticks, each later attempt
    doubles the wait (factor ``factor``) up to ``cap``; after
    ``max_attempts`` failed attempts the return is abandoned (and the
    task's lease will eventually expire and reissue it).

    >>> b = Backoff()
    >>> [b.delay(a) for a in range(6)]
    [1, 2, 4, 8, 16, 16]
    """

    base: int = 1
    factor: int = 2
    cap: int = 16
    max_attempts: int = 8
    attempts: int = field(default=0, compare=False)

    def delay(self, attempt: int | None = None) -> int:
        """Ticks to wait before retry number *attempt* (default: the
        current attempt counter)."""
        n = self.attempts if attempt is None else attempt
        return min(self.cap, self.base * self.factor**n)

    def next_retry_tick(self, now: int) -> int:
        """Record a failed attempt at tick *now*; returns the tick at
        which to retry."""
        due = now + self.delay()
        self.attempts += 1
        return due

    @property
    def exhausted(self) -> bool:
        return self.attempts >= self.max_attempts
