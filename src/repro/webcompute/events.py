"""Structured event layer for the web-computing stack.

The paper's Section-4 service is observable only through post-hoc ledger
queries; a production-scale deployment needs *live* signals.  This module
is the observability seam threaded through every layer of the refactored
stack: the :class:`~repro.webcompute.engine.AllocationEngine` publishes
registration / issue / departure events, the
:class:`~repro.webcompute.ledger.AccountabilityLedger` publishes return and
ban events, the :class:`~repro.webcompute.frontend.FrontEnd` publishes row
seating / recycling events, and the
:class:`~repro.webcompute.sharding.ShardedWBCServer` delivers every
shard's stream to one global bus's subscribers.  A shard's events carry
its id from the moment they are built: each component stamps the
``shard`` of the bus it publishes on.

Design constraints:

* **Typed** -- each event is a frozen dataclass; subscribers filter by
  class, not by string tags, so a typo is an ``AttributeError`` at test
  time rather than a silently-empty dashboard.
* **Synchronous and deterministic** -- ``publish`` runs handlers inline in
  subscription order.  The simulation's reproducibility guarantee (one
  seed, one history) extends to the event stream.
* **Zero-cost when unobserved** -- a bus with no subscribers is two
  attribute loads and a truth test per event site.

>>> bus = EventBus()
>>> counters = EventCounters.attach(bus)
>>> bus.publish(TaskIssued(tick=3, volunteer_id=1, task_index=7, row=1, serial=4))
>>> counters.count(TaskIssued)
1
>>> counters.tick_span(TaskIssued)
(3, 3)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Union

from repro.errors import ConfigurationError

__all__ = [
    "VolunteerRegistered",
    "TaskIssued",
    "TaskReissued",
    "ResultReturned",
    "VolunteerBanned",
    "VolunteerDeparted",
    "VolunteerCorrupted",
    "RowSeated",
    "RowRecycled",
    "ShardCrashed",
    "ShardRestoring",
    "ShardRestored",
    "CheckpointTaken",
    "ReturnDropped",
    "ReturnDelayed",
    "WBCEvent",
    "EventBus",
    "EventCounters",
    "EventLog",
]


@dataclass(frozen=True, slots=True)
class VolunteerRegistered:
    """A volunteer was admitted and seated on a row."""

    tick: int
    volunteer_id: int
    row: int
    start_serial: int
    speed: float
    shard: int | None = None


@dataclass(frozen=True, slots=True)
class TaskIssued:
    """A task index was handed out.  ``task_index`` is the index the
    volunteer sees (globally composed under sharding); ``row``/``serial``
    are the allocation coordinates behind it."""

    tick: int
    volunteer_id: int
    task_index: int
    row: int
    serial: int
    shard: int | None = None


@dataclass(frozen=True, slots=True)
class ResultReturned:
    """A result came back.  ``bad`` is ground truth (the simulation's
    oracle view); ``verified`` says whether the sampled spot-check ran."""

    tick: int
    volunteer_id: int
    task_index: int
    bad: bool
    verified: bool
    shard: int | None = None


@dataclass(frozen=True, slots=True)
class VolunteerBanned:
    """The strike policy banned a volunteer."""

    tick: int
    volunteer_id: int
    strikes: int
    shard: int | None = None


@dataclass(frozen=True, slots=True)
class VolunteerDeparted:
    """A volunteer left (or was ejected).  ``banned`` distinguishes the
    ejection of a banned volunteer from a voluntary departure;
    ``resume_serial`` is where the row's successor will continue."""

    tick: int
    volunteer_id: int
    row: int
    resume_serial: int
    banned: bool
    shard: int | None = None


@dataclass(frozen=True, slots=True)
class RowSeated:
    """Front-end level: a row went to a tenant (``recycled`` when the row
    had a previous tenure)."""

    tick: int
    row: int
    volunteer_id: int
    start_serial: int
    recycled: bool
    shard: int | None = None


@dataclass(frozen=True, slots=True)
class RowRecycled:
    """Front-end level: a row returned to the free pool."""

    tick: int
    row: int
    resume_serial: int
    shard: int | None = None


@dataclass(frozen=True, slots=True)
class TaskReissued:
    """A task whose lease expired was handed to a new volunteer.  The
    task *index* is unchanged -- ``T^-1`` attribution keeps naming
    ``from_volunteer`` (the original assignee if this is the first
    reissue); ``to_volunteer`` is merely allowed to return the result."""

    tick: int
    task_index: int
    from_volunteer: int
    to_volunteer: int
    row: int
    serial: int
    shard: int | None = None


@dataclass(frozen=True, slots=True)
class VolunteerCorrupted:
    """A fault injector flipped a volunteer's behavior mid-run (an honest
    machine going bad); the ledger's report-only oracle tag is updated so
    a subsequent ban is not miscounted as a false positive."""

    tick: int
    volunteer_id: int
    error_rate: float
    shard: int | None = None


@dataclass(frozen=True, slots=True)
class ShardCrashed:
    """An engine shard lost its in-memory state.  ``pending_ops`` is the
    length of the durable op journal since the last checkpoint -- the
    replay work a restore will have to do."""

    tick: int
    shard: int | None = None
    pending_ops: int = 0


@dataclass(frozen=True, slots=True)
class ShardRestoring:
    """A crashed shard began a streaming restore: it serves registrations
    (degraded) while checkpoint segments and journal replay in the
    background; everything else raises transient ``ShardDownError`` until
    :class:`ShardRestored` follows."""

    tick: int
    shard: int | None = None
    segments: int = 0
    pending_ops: int = 0


@dataclass(frozen=True, slots=True)
class ShardRestored:
    """A crashed shard was rebuilt from its latest checkpoint plus a
    deterministic replay of the journaled operations."""

    tick: int
    shard: int | None = None
    checkpoint_tick: int = 0
    replayed_ops: int = 0


@dataclass(frozen=True, slots=True)
class CheckpointTaken:
    """A shard's state was checkpointed (journal truncated):
    ``incremental`` distinguishes a delta segment appended to the log
    from a full base checkpoint (compaction)."""

    tick: int
    shard: int | None = None
    tasks_issued: int = 0
    incremental: bool = False


@dataclass(frozen=True, slots=True)
class ReturnDropped:
    """A fault injector dropped a volunteer's return in flight; the task
    stays issued and its lease will eventually expire."""

    tick: int
    volunteer_id: int
    task_index: int
    shard: int | None = None


@dataclass(frozen=True, slots=True)
class ReturnDelayed:
    """A fault injector delayed a return by ``delay`` ticks; it may race
    a lease expiry and arrive as a late return."""

    tick: int
    volunteer_id: int
    task_index: int
    delay: int
    shard: int | None = None


WBCEvent = Union[
    VolunteerRegistered,
    TaskIssued,
    TaskReissued,
    ResultReturned,
    VolunteerBanned,
    VolunteerDeparted,
    VolunteerCorrupted,
    RowSeated,
    RowRecycled,
    ShardCrashed,
    ShardRestoring,
    ShardRestored,
    CheckpointTaken,
    ReturnDropped,
    ReturnDelayed,
]

EVENT_TYPES: tuple[type, ...] = (
    VolunteerRegistered,
    TaskIssued,
    TaskReissued,
    ResultReturned,
    VolunteerBanned,
    VolunteerDeparted,
    VolunteerCorrupted,
    RowSeated,
    RowRecycled,
    ShardCrashed,
    ShardRestoring,
    ShardRestored,
    CheckpointTaken,
    ReturnDropped,
    ReturnDelayed,
)


class EventBus:
    """Synchronous publish/subscribe fan-out for :data:`WBCEvent` streams.

    ``clock`` is an optional zero-argument callable giving the current
    tick; components without their own clock (the front end) stamp events
    with :meth:`now`.  ``shard`` is the id every component publishing on
    this bus stamps on the events it builds (``None`` outside a sharded
    server).
    """

    def __init__(
        self, clock: Callable[[], int] | None = None, shard: int | None = None
    ) -> None:
        self._clock = clock
        self.shard = shard
        self._handlers: list[tuple[tuple[type, ...] | None, Callable[[WBCEvent], None]]] = []

    def now(self) -> int:
        """The current tick per the bus's clock source (0 without one)."""
        return self._clock() if self._clock is not None else 0

    def set_clock(self, clock: Callable[[], int]) -> None:
        self._clock = clock

    def subscribe(
        self,
        handler: Callable[[WBCEvent], None],
        event_types: Iterable[type] | None = None,
    ) -> Callable[[], None]:
        """Register *handler*; restrict to *event_types* when given.
        Returns an unsubscribe callable."""
        types = tuple(event_types) if event_types is not None else None
        entry = (types, handler)
        self._handlers.append(entry)

        def unsubscribe() -> None:
            try:
                self._handlers.remove(entry)
            except ValueError:
                pass

        return unsubscribe

    def publish(self, event: WBCEvent) -> None:
        """Deliver *event* to every matching subscriber, in order."""
        for types, handler in list(self._handlers):
            if types is None or isinstance(event, types):
                handler(event)

    def join(self, target: "EventBus") -> None:
        """Share *target*'s subscriber list from now on: one
        :meth:`publish` here delivers to every subscriber of *target*,
        present and future, and a subscription on either bus is a
        subscription on both.  The sharded router's aggregation hook: an
        in-process shard's engine joins the global bus when it goes live
        (never while it replays, so replayed history is not delivered).
        Keeps this bus's own clock and ``shard``; a bus that already has
        subscribers cannot join, since they would silently be dropped."""
        if self._handlers:
            raise ConfigurationError("a bus with subscribers cannot join another bus")
        self._handlers = target._handlers

    @property
    def subscriber_count(self) -> int:
        return len(self._handlers)


class EventCounters:
    """Live per-type counters with tick timings.

    Tracks, for every event type seen: the total count and the first /
    last tick it occurred on.  ``per_tick_rate`` turns that into an
    events-per-tick throughput figure -- the live twin of the post-hoc
    :mod:`~repro.webcompute.metrics` forensics.
    """

    def __init__(self) -> None:
        self._counts: dict[type, int] = {}
        self._first_tick: dict[type, int] = {}
        self._last_tick: dict[type, int] = {}

    @classmethod
    def attach(cls, bus: EventBus) -> "EventCounters":
        counters = cls()
        bus.subscribe(counters.observe)
        return counters

    def observe(self, event: WBCEvent) -> None:
        etype = type(event)
        self._counts[etype] = self._counts.get(etype, 0) + 1
        if etype not in self._first_tick:
            self._first_tick[etype] = event.tick
        self._last_tick[etype] = event.tick

    # ------------------------------------------------------------------

    def count(self, event_type: type) -> int:
        return self._counts.get(event_type, 0)

    def tick_span(self, event_type: type) -> tuple[int, int] | None:
        """(first, last) tick the type occurred on; None if never seen."""
        if event_type not in self._first_tick:
            return None
        return (self._first_tick[event_type], self._last_tick[event_type])

    def per_tick_rate(self, event_type: type) -> float:
        """Mean events per tick over the type's active span."""
        span = self.tick_span(event_type)
        if span is None:
            return 0.0
        first, last = span
        return self.count(event_type) / (last - first + 1)

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def summary(self) -> dict[str, dict[str, int | float]]:
        """JSON-able dump: per event-type count, tick span, and rate."""
        out: dict[str, dict[str, int | float]] = {}
        for etype, n in sorted(self._counts.items(), key=lambda kv: kv[0].__name__):
            first, last = self._first_tick[etype], self._last_tick[etype]
            out[etype.__name__] = {
                "count": n,
                "first_tick": first,
                "last_tick": last,
                "per_tick_rate": self.per_tick_rate(etype),
            }
        return out


class EventLog:
    """Bounded capture of the raw event stream (newest last).

    >>> bus = EventBus()
    >>> log = EventLog.attach(bus, maxlen=2)
    >>> for t in (1, 2, 3):
    ...     bus.publish(VolunteerBanned(tick=t, volunteer_id=t, strikes=2))
    >>> [e.tick for e in log.events]
    [2, 3]
    """

    def __init__(self, maxlen: int | None = None) -> None:
        self._events: deque[WBCEvent] = deque(maxlen=maxlen)

    @classmethod
    def attach(
        cls,
        bus: EventBus,
        maxlen: int | None = None,
        event_types: Iterable[type] | None = None,
    ) -> "EventLog":
        log = cls(maxlen=maxlen)
        bus.subscribe(log.record, event_types)
        return log

    def record(self, event: WBCEvent) -> None:
        """Append one event (the subscription handler)."""
        self._events.append(event)

    @property
    def events(self) -> list[WBCEvent]:
        return list(self._events)

    def of_type(self, event_type: type) -> list[WBCEvent]:
        return [e for e in self._events if isinstance(e, event_type)]

    def __len__(self) -> int:
        return len(self._events)
