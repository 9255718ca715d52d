"""Seeded discrete-time simulation of a web-computing project.

Drives a :class:`~repro.webcompute.engine.WBCServer` -- or, with
``shards > 1``, ``workers`` or a named ``codec``, a
:class:`~repro.webcompute.sharding.ShardedWBCServer` -- with a synthetic volunteer population: arrivals (optionally in waves),
per-volunteer speeds (tasks completed per tick, realized stochastically),
honest / careless / malicious behavior, and optional mid-run departures.

The driver observes the run through the structured event layer: it
subscribes to the server's bus and reads completions, voluntary
departures, and bans off the typed event stream -- the same stream an
operator's dashboard would watch -- instead of keeping parallel private
counters.  Only the invariant a *driver* must check from outside
(attribution round-trips against the simulation's own ground truth)
remains hand-counted.

Everything is parameterized by :class:`SimulationConfig` and driven by a
single seed, so any reported number is exactly reproducible.  The outputs
(:class:`SimulationOutcome`) are the paper's quantities of interest:

* accountability -- every bad result attributes to its true producer; the
  strike policy bans persistent offenders; honest volunteers are never
  banned (verification compares against recomputable ground truth, so there
  are no false strikes);
* compactness -- the largest task index issued, per APF family, for the
  same workload (the memory-management argument of Section 4.2).  With
  sharding, that index lives in the *composed* global space, so the same
  column also measures the composition overhead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.apf.base import AdditivePairingFunction
from repro.errors import (
    AllocationError,
    ConfigurationError,
    DomainError,
    ReproError,
    ShardDownError,
)
from repro.webcompute.engine import WBCServer
from repro.webcompute.events import (
    CheckpointTaken,
    EventCounters,
    ResultReturned,
    ReturnDelayed,
    ReturnDropped,
    ShardCrashed,
    ShardRestored,
    VolunteerDeparted,
)
from repro.webcompute.faults import FaultInjector, FaultSpec
from repro.webcompute.recovery import Backoff
from repro.webcompute.sharding import ShardedWBCServer
from repro.webcompute.task import Task
from repro.webcompute.volunteer import Behavior, VolunteerProfile

__all__ = [
    "SimulationConfig",
    "SimulationOutcome",
    "WBCSimulation",
    "run_family_comparison",
    "run_shard_comparison",
]


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Knobs for one simulated project run."""

    ticks: int = 200
    initial_volunteers: int = 20
    careless_fraction: float = 0.15
    malicious_fraction: float = 0.10
    careless_error_rate: float = 0.25
    malicious_error_rate: float = 0.9
    verification_rate: float = 0.2
    ban_after_strikes: int = 2
    departure_rate: float = 0.002  # per volunteer per tick
    arrival_rate: float = 0.05  # expected new volunteers per tick
    min_speed: float = 0.2
    max_speed: float = 3.0
    seed: int = 2002  # the venue year; any int works
    shards: int = 1  # > 1 drives a ShardedWBCServer
    lease_ticks: int | None = None  # task-lease length (None = no leases)
    checkpoint_every: int | None = None  # periodic shard checkpoints
    compact_every: int | None = 8  # full rebase after this many deltas
    faults: str = ""  # FaultSpec grammar (see repro.webcompute.faults)
    workers: int | None = None  # worker processes (None = in-process)
    codec: str | None = None  # index codec name (None = congruence)

    def __post_init__(self) -> None:
        if self.ticks <= 0 or self.initial_volunteers <= 0:
            raise ConfigurationError("ticks and initial_volunteers must be positive")
        if not 0.0 <= self.careless_fraction + self.malicious_fraction <= 1.0:
            raise ConfigurationError("behavior fractions must sum to <= 1")
        if not 0.0 < self.min_speed <= self.max_speed:
            raise ConfigurationError("need 0 < min_speed <= max_speed")
        if isinstance(self.shards, bool) or not isinstance(self.shards, int) or self.shards < 1:
            raise ConfigurationError(f"shards must be a positive int, got {self.shards!r}")
        if self.workers is not None and (
            isinstance(self.workers, bool)
            or not isinstance(self.workers, int)
            or self.workers < 1
        ):
            raise ConfigurationError(
                f"workers must be a positive int or None, got {self.workers!r}"
            )
        if self.codec is not None:
            from repro.webcompute.codecs import composer_for

            composer_for(self.codec, self.shards)  # fail fast on an unknown codec name
        spec = FaultSpec.parse(self.faults)  # fail fast on a bad grammar
        for fault in spec.scheduled:
            if fault.kind in ("crash", "restore"):
                if self.shards < 2:
                    raise ConfigurationError(
                        f"{fault.kind}@ faults need shards >= 2 "
                        f"(got shards={self.shards})"
                    )
                if fault.arg >= self.shards:
                    raise ConfigurationError(
                        f"{fault.kind}@{fault.tick}:{fault.arg} targets a "
                        f"nonexistent shard (shards={self.shards})"
                    )


@dataclass(frozen=True, slots=True)
class SimulationOutcome:
    """What one run produced."""

    apf_name: str
    ticks: int
    volunteers_total: int
    tasks_completed: int
    bad_results_returned: int
    bad_results_caught: int
    faulty_banned: int
    honest_banned: int
    departures: int
    max_task_index: int
    attribution_checks: int
    attribution_failures: int
    shards: int = 1
    tasks_reissued: int = 0
    late_returns: int = 0
    shard_crashes: int = 0
    shard_restores: int = 0
    checkpoints_taken: int = 0
    returns_dropped: int = 0
    returns_delayed: int = 0
    returns_retried: int = 0
    returns_abandoned: int = 0

    @property
    def density(self) -> float:
        """Tasks completed per unit of task-index space consumed -- the
        compactness payoff (higher is better)."""
        if self.max_task_index == 0:
            return 0.0
        return self.tasks_completed / self.max_task_index


@dataclass(slots=True)
class _PendingReturn:
    """One computed result waiting to be (re)submitted: a fault-delayed
    return, or a return that raced a crashed shard and is backing off."""

    volunteer_id: int
    task: Task
    result: int
    due: int
    backoff: Backoff = field(default_factory=Backoff)
    retried: bool = False


class WBCSimulation:
    """One reproducible project run against one APF (and, with
    ``config.shards > 1``, several engine shards).

    Fault handling: a ``config.faults`` spec drives a seeded
    :class:`~repro.webcompute.faults.FaultInjector`.  The injector's RNG
    is separate from the arrival/work RNG streams, so a run with
    scheduled faults only (crash/restore) consumes *identical* arrival,
    behavior, and work randomness as the fault-free run -- the basis of
    the crash-recovery differential test."""

    def __init__(self, apf: AdditivePairingFunction, config: SimulationConfig) -> None:
        self.config = config
        if config.shards > 1 or config.workers is not None or config.codec is not None:
            self.server: WBCServer | ShardedWBCServer = ShardedWBCServer(
                apf,
                shards=config.shards,
                verification_rate=config.verification_rate,
                ban_after_strikes=config.ban_after_strikes,
                seed=config.seed,
                codec=config.codec,
                lease_ticks=config.lease_ticks,
                checkpoint_every=config.checkpoint_every,
                compact_every=config.compact_every,
                workers=config.workers,
            )
        else:
            self.server = WBCServer(
                apf,
                verification_rate=config.verification_rate,
                ban_after_strikes=config.ban_after_strikes,
                seed=config.seed,
                lease_ticks=config.lease_ticks,
            )
        self.injector = FaultInjector(FaultSpec.parse(config.faults), seed=config.seed)
        # Observability taps: aggregate typed counters, plus one filtered
        # count (voluntary departures) the aggregates cannot express.
        self.counters = EventCounters.attach(self.server.bus)
        self._voluntary_departures = 0
        self.server.bus.subscribe(self._on_departure, [VolunteerDeparted])
        self._rng = random.Random(config.seed ^ 0xA5A5A5A5)
        self._work_rng = random.Random(config.seed ^ 0x5A5A5A5A)
        self._active: list[int] = []
        self._in_flight: dict[int, Task] = {}  # volunteer -> outstanding task
        self._pending_returns: list[_PendingReturn] = []
        self._profile_count = 0
        self._attribution_checks = 0
        self._attribution_failures = 0
        self._returns_retried = 0
        self._returns_abandoned = 0

    def _on_departure(self, event: VolunteerDeparted) -> None:
        if not event.banned:
            self._voluntary_departures += 1

    # ------------------------------------------------------------------

    def _make_profile(self) -> VolunteerProfile:
        self._profile_count += 1
        roll = self._rng.random()
        cfg = self.config
        speed = self._rng.uniform(cfg.min_speed, cfg.max_speed)
        name = f"v{self._profile_count}"
        if roll < cfg.malicious_fraction:
            return VolunteerProfile(
                name, speed=speed, behavior=Behavior.MALICIOUS,
                error_rate=cfg.malicious_error_rate,
            )
        if roll < cfg.malicious_fraction + cfg.careless_fraction:
            return VolunteerProfile(
                name, speed=speed, behavior=Behavior.CARELESS,
                error_rate=cfg.careless_error_rate,
            )
        return VolunteerProfile(name, speed=speed)

    def _admit(self, count: int) -> None:
        profiles = [self._make_profile() for _ in range(count)]
        if not profiles:
            return
        ids = self.server.register_round(profiles)
        self._active.extend(ids)

    # -- fault plumbing ------------------------------------------------

    def _reachable(self, vid: int) -> bool:
        """Whether *vid*'s shard is up (always true for a single server)."""
        server = self.server
        if isinstance(server, ShardedWBCServer):
            return server.is_shard_alive(server.shard_of(vid))
        return True

    def _check_attribution(self, task: Task) -> None:
        """The accountability invariant, checked on every computed
        result: attribution must name the task's *original* assignee --
        under a lease reissue that is still the original volunteer, never
        the reissue target."""
        self._attribution_checks += 1
        if self.server.attribute(task.index) != task.volunteer_id:
            self._attribution_failures += 1

    @staticmethod
    def _lost_reissue_race(pending: _PendingReturn, exc: Exception) -> bool:
        """Whether a rejected return is a reissue race: the task was
        already returned by another assignee (the ledger's
        :class:`~repro.errors.DomainError`), or the submitter held it only
        as a reissue target and the reaper has since handed it on, so the
        engine's attribution check rejects it
        (:class:`~repro.errors.AllocationError`).  Any other rejection is
        a real fault."""
        if isinstance(exc, DomainError):
            return True
        return (
            isinstance(exc, AllocationError)
            and pending.volunteer_id != pending.task.volunteer_id
        )

    def _submit_or_queue(self, pending: _PendingReturn) -> None:
        """Deliver one computed result.  A down shard re-queues it on the
        backoff schedule (until exhausted); a reissue race (see
        :meth:`_lost_reissue_race`) abandons it (the ledger keeps the
        return it accepted, or the task's current assignee returns it)."""
        try:
            self.server.submit_result(
                pending.volunteer_id, pending.task.index, pending.result
            )
        except ShardDownError:
            if pending.backoff.exhausted:
                self._returns_abandoned += 1
                return
            pending.retried = True
            pending.due = pending.backoff.next_retry_tick(self.server.clock)
            self._pending_returns.append(pending)
            return
        except (DomainError, AllocationError) as exc:
            if not self._lost_reissue_race(pending, exc):
                raise
            self._returns_abandoned += 1
            return
        if pending.retried:
            self._returns_retried += 1

    def _apply_scheduled_faults(self) -> None:
        """Fire this tick's scheduled faults (corrupt, then crash, then
        restore -- so a crash+restore pair scheduled on the same tick is
        a lossless bounce)."""
        server = self.server
        for fault in self.injector.scheduled_at(server.clock):
            if fault.kind == "corrupt":
                candidates = [
                    vid
                    for vid in self._active
                    if self._reachable(vid) and not server.profile_of(vid).is_faulty
                ]
                for vid in self.injector.corruption_targets(fault.arg, candidates):
                    server.mark_corrupted(vid, self.config.malicious_error_rate)
            elif fault.kind == "crash":
                assert isinstance(server, ShardedWBCServer)  # enforced by config
                server.crash_shard(fault.arg)
            elif fault.kind == "restore":
                assert isinstance(server, ShardedWBCServer)
                server.restore_shard(fault.arg)

    def _check_attributions(self, tasks: list[Task]) -> None:
        """Bulk form of :meth:`_check_attribution`: one batched
        ``attribute_many`` round-trip for the tick's completed tasks.
        ``attribute_many`` raises on *any* bad index, so a failure falls
        back to per-task attribution to count exactly which ones failed."""
        if not tasks:
            return
        self._attribution_checks += len(tasks)
        server = self.server
        assert isinstance(server, ShardedWBCServer)
        try:
            owners = server.attribute_many([task.index for task in tasks])
        except ReproError:
            for task in tasks:
                try:
                    owner = server.attribute(task.index)
                except ReproError:
                    self._attribution_failures += 1
                    continue
                if owner != task.volunteer_id:
                    self._attribution_failures += 1
            return
        for task, owner in zip(tasks, owners):
            if owner != task.volunteer_id:
                self._attribution_failures += 1

    def _work_phase_batched(self) -> None:
        """The work phase restructured for worker-process mode: the same
        per-volunteer decisions as the serial loop, but the server calls
        are batched (``request_tasks`` / ``attribute_many`` /
        ``submit_results``) so each tick costs a constant number of
        worker round-trips instead of one per volunteer.

        Determinism: ``self._work_rng`` and the fault injector are drawn
        in the same volunteer order as the serial loop, and without
        leases every ban lands on the volunteer whose own return caused
        it (after that volunteer's work for the tick), so splitting the
        tick into request / work / submit phases cannot change any
        decision the serial loop would have made."""
        server = self.server
        assert isinstance(server, ShardedWBCServer)
        workable: list[int] = []
        need: list[int] = []
        for vid in list(self._active):
            if not self._reachable(vid):
                continue
            if server.is_banned(vid):
                # Banned volunteers are ejected from the project.
                try:
                    server.depart(vid)
                except AllocationError:  # pragma: no cover - defensive
                    pass
                self._active.remove(vid)
                self._in_flight.pop(vid, None)
                continue
            workable.append(vid)
            if vid not in self._in_flight:
                need.append(vid)
        for vid, issued in zip(need, server.request_tasks(need)):
            if isinstance(issued, ShardDownError):
                continue  # raced a dying worker; sit this tick out
            if isinstance(issued, Exception):
                raise issued
            self._in_flight[vid] = issued
        to_check: list[Task] = []
        ready: list[_PendingReturn] = []
        for vid in workable:
            task = self._in_flight.get(vid)
            if task is None:
                continue
            profile = server.profile_of(vid)
            if self._work_rng.random() >= min(1.0, profile.speed):
                continue
            result = profile.compute(task.index, self._work_rng)
            fate = self.injector.return_fate()
            del self._in_flight[vid]
            if fate.dropped:
                # The result is lost in flight; the task stays issued
                # and its lease will expire and reissue.
                server.bus.publish(
                    ReturnDropped(
                        tick=server.clock,
                        volunteer_id=vid,
                        task_index=task.index,
                    )
                )
                continue
            to_check.append(task)
            if fate.delay > 0:
                server.bus.publish(
                    ReturnDelayed(
                        tick=server.clock,
                        volunteer_id=vid,
                        task_index=task.index,
                        delay=fate.delay,
                    )
                )
                self._pending_returns.append(
                    _PendingReturn(
                        volunteer_id=vid,
                        task=task,
                        result=result,
                        due=server.clock + fate.delay,
                    )
                )
                continue
            ready.append(
                _PendingReturn(
                    volunteer_id=vid,
                    task=task,
                    result=result,
                    due=server.clock,
                )
            )
        self._check_attributions(to_check)
        outcomes = server.submit_results(
            [(p.volunteer_id, p.task.index, p.result) for p in ready]
        )
        for pending, outcome in zip(ready, outcomes):
            if outcome is None:
                if pending.retried:  # pragma: no cover - fresh returns
                    self._returns_retried += 1
                continue
            if isinstance(outcome, ShardDownError):
                if pending.backoff.exhausted:  # pragma: no cover - defensive
                    self._returns_abandoned += 1
                    continue
                pending.retried = True
                pending.due = pending.backoff.next_retry_tick(server.clock)
                self._pending_returns.append(pending)
                continue
            if self._lost_reissue_race(pending, outcome):
                self._returns_abandoned += 1
                continue
            raise outcome

    def close(self) -> None:
        """Shut down worker processes (no-op for in-process servers)."""
        if isinstance(self.server, ShardedWBCServer):
            self.server.close()

    # ------------------------------------------------------------------

    def run(self) -> SimulationOutcome:
        cfg = self.config
        server = self.server
        self._admit(cfg.initial_volunteers)
        for _ in range(cfg.ticks):
            server.tick()
            self._apply_scheduled_faults()
            # Retry queue: deliver returns that came due this tick
            # (delayed in flight, or backing off after racing a crash).
            due = [p for p in self._pending_returns if p.due <= server.clock]
            if due:
                self._pending_returns = [
                    p for p in self._pending_returns if p.due > server.clock
                ]
                for pending in due:
                    self._submit_or_queue(pending)
            # Lease reaper: expired tasks are reissued shard-locally; the
            # sim hands each reissued task to its new assignee if that
            # volunteer is free (otherwise the lease just expires again).
            if cfg.lease_ticks is not None:
                for task in server.reap_expired():
                    target = task.reissued_to
                    if target in self._active and target not in self._in_flight:
                        self._in_flight[target] = task
            # Arrivals: Bernoulli approximation of a Poisson stream.
            if self._rng.random() < cfg.arrival_rate:
                self._admit(1)
            # Departures (volunteers with no outstanding task can leave).
            for vid in list(self._active):
                if vid in self._in_flight or not self._reachable(vid):
                    continue
                if self._rng.random() < cfg.departure_rate:
                    server.depart(vid)
                    self._active.remove(vid)
            # Work: each active volunteer advances; speed s means the
            # volunteer finishes its task this tick with probability
            # min(1, s) (coarse but monotone in s and fully seeded).
            if cfg.workers is not None:
                self._work_phase_batched()
                continue
            for vid in list(self._active):
                if not self._reachable(vid):
                    continue
                if server.is_banned(vid):
                    # Banned volunteers are ejected from the project.
                    try:
                        server.depart(vid)
                    except AllocationError:  # pragma: no cover - defensive
                        pass
                    self._active.remove(vid)
                    self._in_flight.pop(vid, None)
                    continue
                profile = server.profile_of(vid)
                task = self._in_flight.get(vid)
                if task is None:
                    task = server.request_task(vid)
                    self._in_flight[vid] = task
                if self._work_rng.random() < min(1.0, profile.speed):
                    result = profile.compute(task.index, self._work_rng)
                    fate = self.injector.return_fate()
                    del self._in_flight[vid]
                    if fate.dropped:
                        # The result is lost in flight; the task stays
                        # issued and its lease will expire and reissue.
                        server.bus.publish(
                            ReturnDropped(
                                tick=server.clock,
                                volunteer_id=vid,
                                task_index=task.index,
                            )
                        )
                        continue
                    self._check_attribution(task)
                    if fate.delay > 0:
                        server.bus.publish(
                            ReturnDelayed(
                                tick=server.clock,
                                volunteer_id=vid,
                                task_index=task.index,
                                delay=fate.delay,
                            )
                        )
                        self._pending_returns.append(
                            _PendingReturn(
                                volunteer_id=vid,
                                task=task,
                                result=result,
                                due=server.clock + fate.delay,
                            )
                        )
                        continue
                    self._submit_or_queue(
                        _PendingReturn(
                            volunteer_id=vid,
                            task=task,
                            result=result,
                            due=server.clock,
                        )
                    )
        report = server.report()
        faulty_banned = report.volunteers_banned - report.honest_volunteers_banned
        return SimulationOutcome(
            apf_name=server.apf_name,
            ticks=cfg.ticks,
            volunteers_total=self._profile_count,
            tasks_completed=self.counters.count(ResultReturned),
            bad_results_returned=report.bad_results_returned,
            bad_results_caught=report.bad_results_caught,
            faulty_banned=faulty_banned,
            honest_banned=report.honest_volunteers_banned,
            departures=self._voluntary_departures,
            max_task_index=server.max_task_index,
            attribution_checks=self._attribution_checks,
            attribution_failures=self._attribution_failures,
            shards=cfg.shards,
            tasks_reissued=report.tasks_reissued,
            late_returns=report.late_returns,
            shard_crashes=self.counters.count(ShardCrashed),
            shard_restores=self.counters.count(ShardRestored),
            checkpoints_taken=self.counters.count(CheckpointTaken),
            returns_dropped=self.counters.count(ReturnDropped),
            returns_delayed=self.counters.count(ReturnDelayed),
            returns_retried=self._returns_retried,
            returns_abandoned=self._returns_abandoned,
        )


def run_family_comparison(
    apfs: list[AdditivePairingFunction], config: SimulationConfig
) -> list[SimulationOutcome]:
    """Run the *same* seeded workload against several APF families.

    Behavior, arrivals, departures and per-tick work all derive from the
    config seed, so the only variable across rows is the allocation
    function -- the compactness column (``max_task_index``) is therefore a
    controlled comparison, the Section 4.2 tradeoff made measurable.
    """
    return [WBCSimulation(apf, config).run() for apf in apfs]


def run_shard_comparison(
    apf: AdditivePairingFunction,
    config: SimulationConfig,
    shard_counts: list[int],
) -> list[SimulationOutcome]:
    """Run the same seeded workload at several shard counts.

    Arrival, behavior, and work streams derive only from the config seed,
    so the rows expose exactly what sharding costs (the global-index
    footprint of the square-shell composition) and what it preserves
    (accountability: zero attribution failures at every scale).
    """
    return [
        WBCSimulation(apf, replace(config, shards=shards)).run()
        for shards in shard_counts
    ]
