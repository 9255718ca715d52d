"""Accountability quality metrics, computed post-hoc from a server's
ledger -- through the ledger's *public* read API only.

The paper's scheme promises the project head can "ban frequently errant
volunteers"; operationally the questions are *how fast* and *at what
pollution cost*:

* **detection latency** -- for each banned volunteer, the ticks between
  its first bad return and the ban;
* **pollution** -- bad results that entered the project's result pool
  before (or despite) the ban, per offending volunteer;
* **exposure** -- tasks issued to a volunteer after its first bad return
  (work the project would have saved with instant detection).

Timeline semantics, made explicit: ``bad_returns`` counts every bad
return, but the timeline quantities (``first_bad_tick``,
``tasks_after_first_bad``, ``detection_latency``) consider only bad
returns with a known return tick.  A bad return whose ``returned_at`` is
``None`` (possible only for externally reconstructed ledger state --
live returns are always tick-stamped) is counted as pollution yet
excluded from the timeline rather than silently polluting the ordering.

All metrics derive from the ledger's task records and the simulation's
ground truth; they feed the verification-rate tradeoff study in
``bench_wbc_accountability.py``.  The functions accept a
:class:`~repro.webcompute.engine.WBCServer` (or any
:class:`~repro.webcompute.engine.AllocationEngine`), or a
:class:`~repro.webcompute.sharding.ShardedWBCServer` (whose per-shard
ledgers are aggregated).  For *live* observation, subscribe an
:class:`~repro.webcompute.events.EventCounters` to the server's bus
instead -- :func:`live_summary` turns one into the matching dashboard row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DomainError
from repro.webcompute.events import (
    EventCounters,
    ResultReturned,
    TaskIssued,
    VolunteerBanned,
    VolunteerDeparted,
    VolunteerRegistered,
)
from repro.webcompute.ledger import AccountabilityLedger
from repro.webcompute.task import TaskStatus

__all__ = [
    "VolunteerForensics",
    "AccountabilityMetrics",
    "compute_metrics",
    "volunteer_forensics",
    "live_summary",
]


@dataclass(frozen=True, slots=True)
class VolunteerForensics:
    """Per-volunteer accountability timeline."""

    volunteer_id: int
    bad_returns: int
    first_bad_tick: int | None
    banned_at: int | None
    tasks_after_first_bad: int

    @property
    def detection_latency(self) -> int | None:
        """Ticks from first bad return to ban (None if never banned or
        never bad)."""
        if self.banned_at is None or self.first_bad_tick is None:
            return None
        return self.banned_at - self.first_bad_tick


@dataclass(frozen=True, slots=True)
class AccountabilityMetrics:
    """Aggregate accountability quality for one run."""

    offenders: int
    offenders_banned: int
    mean_detection_latency: float | None
    total_pollution: int
    total_exposure: int

    @property
    def ban_coverage(self) -> float:
        """Fraction of offending volunteers that ended up banned."""
        if self.offenders == 0:
            return 1.0
        return self.offenders_banned / self.offenders


def _ledgers_of(server) -> list[AccountabilityLedger]:
    """The ledger(s) behind any server-like object: a sharded server
    contributes one per shard, everything else exactly one."""
    engines = getattr(server, "engines", None)
    if engines is not None:
        return [engine.ledger for engine in engines]
    return [server.ledger]


def _forensics_from_ledger(
    ledger: AccountabilityLedger, volunteer_id: int
) -> VolunteerForensics:
    tasks = ledger.tasks_of(volunteer_id)
    if not tasks:
        raise DomainError(f"volunteer {volunteer_id} has no ledger history")
    bad_returns = 0
    first_bad: int | None = None
    for task in tasks:
        if task.status is TaskStatus.ISSUED or task.reported_result is None:
            continue
        if task.reported_result != task.expected_result:
            bad_returns += 1
            # Timeline quantities use only tick-stamped bad returns; an
            # un-ticked bad return still counts as pollution above.
            if task.returned_at is not None and (
                first_bad is None or task.returned_at < first_bad
            ):
                first_bad = task.returned_at
    after = 0
    if first_bad is not None:
        after = sum(1 for t in tasks if t.issued_at > first_bad)
    return VolunteerForensics(
        volunteer_id=volunteer_id,
        bad_returns=bad_returns,
        first_bad_tick=first_bad,
        banned_at=ledger.banned_at_of(volunteer_id),
        tasks_after_first_bad=after,
    )


def volunteer_forensics(server, volunteer_id: int) -> VolunteerForensics:
    """The accountability timeline of one volunteer, from the ledger."""
    if isinstance(volunteer_id, bool) or not isinstance(volunteer_id, int):
        raise DomainError(f"volunteer_id must be an int, got {volunteer_id!r}")
    for ledger in _ledgers_of(server):
        if ledger.tasks_of(volunteer_id):
            return _forensics_from_ledger(ledger, volunteer_id)
    raise DomainError(f"volunteer {volunteer_id} has no ledger history")


def compute_metrics(server) -> AccountabilityMetrics:
    """Aggregate forensics across every volunteer with ledger history
    (across every shard, for a sharded server)."""
    offenders = 0
    banned = 0
    latencies: list[int] = []
    pollution = 0
    exposure = 0
    for ledger in _ledgers_of(server):
        volunteer_ids = {t.volunteer_id for t in ledger.tasks()}
        for vid in sorted(volunteer_ids):
            forensics = _forensics_from_ledger(ledger, vid)
            if forensics.bad_returns == 0:
                continue
            offenders += 1
            pollution += forensics.bad_returns
            exposure += forensics.tasks_after_first_bad
            if forensics.banned_at is not None:
                banned += 1
                latency = forensics.detection_latency
                if latency is not None:
                    latencies.append(latency)
    return AccountabilityMetrics(
        offenders=offenders,
        offenders_banned=banned,
        mean_detection_latency=(
            sum(latencies) / len(latencies) if latencies else None
        ),
        total_pollution=pollution,
        total_exposure=exposure,
    )


def live_summary(counters: EventCounters) -> dict[str, int | float]:
    """One dashboard row from a live :class:`EventCounters` subscriber:
    the event-stream view of the same quantities the post-hoc forensics
    compute from the ledger."""
    returns = counters.count(ResultReturned)
    return {
        "registered": counters.count(VolunteerRegistered),
        "issued": counters.count(TaskIssued),
        "returned": returns,
        "banned": counters.count(VolunteerBanned),
        "departed": counters.count(VolunteerDeparted),
        "issue_rate_per_tick": counters.per_tick_rate(TaskIssued),
        "return_rate_per_tick": counters.per_tick_rate(ResultReturned),
    }
