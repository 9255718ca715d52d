"""The four WBC workloads: a seeded, closed-loop volunteer population
driving ``WBCServer`` or ``ShardedWBCServer`` through the public API.

Closed loop: a volunteer sends its next request only after the previous
reply, which is how volunteers use the service (it has no network front
end yet).  Per round: ``tick``; with leases, ``reap_expired`` and hand
each reissued task to its new assignee; in ``recovery``, a crash+restore
bounce every tenth round; churn; ``request_task`` for every idle,
unbanned volunteer; then each volunteer finishes its task with
probability ``min(1, speed)``, the driver checks that ``attribute`` names
the task's original assignee, and submits the result.

Only names in ``repro.webcompute.__all__`` (plus the APF, ``TSharp``)
are used.  One rep builds a fresh server from the same seed, so every
rep does the same work round by round, and every count repeats exactly.
"""

from __future__ import annotations

import gc
import random
import time
from array import array
from dataclasses import dataclass, field

from repro.apf import TSharp
from repro.webcompute import (
    Behavior,
    CheckpointStore,
    ShardRestored,
    ShardedWBCServer,
    VolunteerProfile,
    WBCServer,
    dumps,
)

import tracing
from measure import Result, best_of, median, peak_rss_mb, per, percentile, rep_count

VOLUNTEERS = 64
MIN_SPEED, MAX_SPEED = 0.3, 3.0
CARELESS, CARELESS_ERROR = 0.15, 0.25
MALICIOUS, MALICIOUS_ERROR = 0.10, 0.9
VERIFICATION_RATE = 0.2
CHURN = 0.05
BOUNCE_PERIOD, BOUNCE_PHASE = 10, 5
WARMUP = 100
SMOKE_ROUNDS, SMOKE_WARMUP = 40, 5
KINDS = ("create", "query", "update")


@dataclass(frozen=True)
class Workload:
    rounds: int
    rep_s: float  # seconds one rep takes on the reference host
    shards: int | None = None  # None: WBCServer
    workers: int | None = None
    lease_ticks: int | None = None
    checkpoint_every: int | None = None
    abandon: float = 0.0  # share of finished tasks never returned
    bounce: bool = False
    #: The round-time percentile reported.  It must sit inside one class
    #: of rounds: about 5% of rounds carry churn and are heavier, and a
    #: seed-dependent count of them decides a 95th percentile, so the
    #: tail is the 90th.  In ``recovery`` a tenth of the rounds bounce a
    #: shard and another tenth checkpoint; the 95th lies among those.
    tail: float = 0.90


WORKLOADS = {
    "single": Workload(rounds=1000, rep_s=1.5),
    "sharded": Workload(rounds=1000, rep_s=3.0, shards=4),
    "workers": Workload(rounds=500, rep_s=3.0, shards=4, workers=2),
    "recovery": Workload(
        rounds=300, rep_s=3.0, shards=4, lease_ticks=8, checkpoint_every=10, abandon=0.02,
        bounce=True, tail=0.95,
    ),
}


def targets(server) -> list[tracing.Target]:
    """What the traced run wraps: the service classes by module, plus the
    APF and the index composer the server actually uses."""
    wc = "repro.webcompute"
    out: list[tracing.Target] = [
        ("server", f"{wc}:WBCServer", None),
        ("sharding", f"{wc}:ShardedWBCServer", None),
        ("engine", f"{wc}:AllocationEngine", None),
        ("allocator", f"{wc}:TaskAllocator", None),
        ("frontend", f"{wc}:FrontEnd", None),
        ("ledger", f"{wc}:AccountabilityLedger", None),
        ("events", f"{wc}:EventBus", None),
        ("recovery", f"{wc}:CheckpointStore", None),
        ("shardworker", f"{wc}:WorkerHandle", None),
        ("apf", TSharp, None),
    ]
    if isinstance(server, ShardedWBCServer):
        out.append(("codecs", type(server.composer), None))
    return out


@dataclass
class Rep:
    """What one rep measured, round by round."""

    setup_s: float = 0.0
    timed_s: float = 0.0
    tasks: int = 0  # completed in the timed rounds
    all_tasks: int = 0  # completed including warm-up
    rounds_ns: array = field(default_factory=lambda: array("q"))
    #: Per kind, the median call of each round that made such calls.
    p50_ns: dict[str, array] = field(default_factory=lambda: {k: array("d") for k in KINDS})
    calls: dict[str, int] = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    #: The current round's call times, per kind.
    open_ns: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in KINDS})
    bounce_ns: array = field(default_factory=lambda: array("q"))
    state_per_task: float = 0.0  # stored bytes per task, first rep only
    max_index: int = 0
    replayed_ops: int = 0
    totals: dict[str, list[int]] | None = None  # tracer totals, traced reps only
    spans: list = field(default_factory=list)
    absent: list[str] = field(default_factory=list)

    def close_round(self) -> None:
        """Keep the round's median call per kind; drop its samples."""
        for kind, samples in self.open_ns.items():
            if samples:
                self.p50_ns[kind].append(median(samples))
                self.calls[kind] += len(samples)
                samples.clear()

    def reset(self) -> None:
        """Forget what the warm-up rounds recorded."""
        self.rounds_ns = array("q")
        self.bounce_ns = array("q")
        self.p50_ns = {k: array("d") for k in KINDS}
        self.calls = dict.fromkeys(KINDS, 0)


class _CheckpointBytes:
    """The one hook the untraced run installs: bytes each checkpoint
    stores, read from ``CheckpointStore.base_bytes`` / ``segment_bytes``
    right after the call."""

    def __init__(self) -> None:
        self.counting = False
        self.bytes = 0
        self._originals = (CheckpointStore.checkpoint_state, CheckpointStore.checkpoint_delta)
        full, delta = self._originals
        hook = self

        def checkpoint_state(store, state):
            out = full(store, state)
            if hook.counting:
                hook.bytes += store.base_bytes
            return out

        def checkpoint_delta(store, d):
            out = delta(store, d)
            if hook.counting:
                hook.bytes += store.segment_bytes[-1]
            return out

        CheckpointStore.checkpoint_state = checkpoint_state
        CheckpointStore.checkpoint_delta = checkpoint_delta

    def remove(self) -> None:
        CheckpointStore.checkpoint_state, CheckpointStore.checkpoint_delta = self._originals


class Driver:
    """One rep of one workload: the population, the server, the loop.
    Attempts and failures go to the workload's *result*."""

    def __init__(self, workload: Workload, seed: int, rep: Rep, result: Result) -> None:
        self.w = workload
        self.rep = rep
        self.result = result
        self.seed = seed
        self._profiles_rng = random.Random(seed ^ 0x51A7)
        self._churn_rng = random.Random(seed ^ 0xC4A2)
        self._work_rng = random.Random(seed ^ 0x3D0C)
        self._made = 0
        self.profiles: dict[int, VolunteerProfile] = {}
        self.active: list[int] = []
        self.in_flight: dict[int, object] = {}  # volunteer -> Task
        self.holder: dict[int, int] = {}  # task index -> volunteer (leases only)
        self.completed = 0
        self.round_no = 0
        self.server = None

    # -- population ---------------------------------------------------

    def _seats(self) -> list[VolunteerProfile]:
        """The population: speeds evenly spaced over the speed range and
        behaviors in fixed shares, dealt out in a seeded order.  Every
        seed gets the same mix, so the work per round does not depend on
        the seed; the seed decides who sits where and every random draw."""
        step = (MAX_SPEED - MIN_SPEED) / VOLUNTEERS
        speeds = [MIN_SPEED + step * (i + 0.5) for i in range(VOLUNTEERS)]
        malicious = round(VOLUNTEERS * MALICIOUS)
        careless = round(VOLUNTEERS * CARELESS)
        kinds = [(Behavior.MALICIOUS, MALICIOUS_ERROR)] * malicious
        kinds += [(Behavior.CARELESS, CARELESS_ERROR)] * careless
        kinds += [(Behavior.HONEST, 0.0)] * (VOLUNTEERS - len(kinds))
        self._profiles_rng.shuffle(speeds)
        self._profiles_rng.shuffle(kinds)
        return [self._named(speed, *kind) for speed, kind in zip(speeds, kinds)]

    def _named(self, speed: float, behavior: Behavior, error_rate: float) -> VolunteerProfile:
        self._made += 1
        return VolunteerProfile(f"v{self._made}", speed, behavior, error_rate)

    def _replace(self, vid: int) -> None:
        """*vid* leaves; a newcomer takes its seat (speed and behavior)."""
        old = self.profiles[vid]
        self._leave(vid)
        self._admit([self._named(old.speed, old.behavior, old.error_rate)])

    def _admit(self, profiles: list[VolunteerProfile]) -> None:
        ids = self._op(self.server.register_round, profiles)
        if ids is None:
            return
        for vid, profile in zip(ids, profiles):
            self.profiles[vid] = profile
            self.active.append(vid)

    def _leave(self, vid: int) -> None:
        self._op(self.server.depart, vid)
        self.active.remove(vid)
        del self.profiles[vid]
        task = self.in_flight.pop(vid, None)
        if task is not None:
            self.holder.pop(task.index, None)

    def _op(self, fn, *args):
        """A program call that is not timed: counted, failures recorded."""
        self.result.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is a result, not a crash
            self.result.fail(f"{getattr(fn, '__name__', fn)}{args[:2]}: {exc!r}")
            return None

    # -- the run ------------------------------------------------------

    def build(self) -> None:
        w = self.w
        if w.shards is None:
            self.server = WBCServer(TSharp(), verification_rate=VERIFICATION_RATE, seed=self.seed)
        else:
            self.server = ShardedWBCServer(
                TSharp(),
                shards=w.shards,
                verification_rate=VERIFICATION_RATE,
                seed=self.seed,
                lease_ticks=w.lease_ticks,
                checkpoint_every=w.checkpoint_every,
                workers=w.workers,
            )
        self._admit(self._seats())

    def close(self) -> None:
        if isinstance(self.server, ShardedWBCServer):
            self.server.close()

    def run_rounds(self, count: int, tracer: tracing.Tracer | None = None) -> None:
        step = self._round_batched if self.w.workers else self._round
        clock = time.perf_counter_ns
        rep = self.rep
        for _ in range(count):
            self.round_no += 1
            if tracer is None:
                start = clock()
                step()
                rep.rounds_ns.append(clock() - start)
            else:
                tracer.round_id = self.round_no
                tracer.begin("bench/round")
                step()
                tracer.end()
            rep.close_round()

    def _churn_and_reissue(self) -> None:
        server, w = self.server, self.w
        if w.lease_ticks is not None:
            for task in self._op(server.reap_expired) or ():
                previous = self.holder.pop(task.index, None)
                if previous is not None:
                    # The lease ran out: the holder's client drops the task.
                    del self.in_flight[previous]
                target = task.reissued_to
                if target in self.profiles and target not in self.in_flight:
                    self.in_flight[target] = task
                    self.holder[task.index] = target
        if w.bounce and self.round_no % BOUNCE_PERIOD == BOUNCE_PHASE:
            shard = (self.round_no // BOUNCE_PERIOD) % w.shards
            self.result.attempted += 1
            start = time.perf_counter_ns()
            try:
                server.crash_shard(shard)
                server.restore_shard(shard)
            except Exception as exc:
                self.result.fail(f"bounce of shard {shard}: {exc!r}")
            self.rep.bounce_ns.append(time.perf_counter_ns() - start)
        if self._churn_rng.random() < CHURN:
            idle = [vid for vid in self.active if vid not in self.in_flight]
            if idle:
                self._replace(self._churn_rng.choice(idle))

    def _replace_banned(self, finished: list[int]) -> None:
        for vid in finished:
            if self.profiles[vid].is_faulty and self._op(self.server.is_banned, vid):
                self._replace(vid)

    def _round(self) -> None:
        server, result = self.server, self.result
        create, query, update = (self.rep.open_ns[k] for k in KINDS)
        clock = time.perf_counter_ns
        self._op(server.tick)
        self._churn_and_reissue()
        for vid in self.active:
            if vid in self.in_flight:
                continue
            result.attempted += 1
            start = clock()
            try:
                task = server.request_task(vid)
            except Exception as exc:
                result.fail(f"request_task({vid}): {exc!r}")
                continue
            create.append(clock() - start)
            if task.volunteer_id != vid:
                result.fail(f"request_task({vid}) issued a task for {task.volunteer_id}")
                continue
            self.in_flight[vid] = task
            if self.w.lease_ticks is not None:
                self.holder[task.index] = vid
        finished = []
        work = self._work_rng
        for vid in list(self.in_flight):
            profile = self.profiles[vid]
            if work.random() >= min(1.0, profile.speed):
                continue
            task = self.in_flight.pop(vid)
            self.holder.pop(task.index, None)
            outcome = profile.compute(task.index, work)
            if self.w.abandon and work.random() < self.w.abandon:
                continue  # never returned; the lease expires and the task is reissued
            result.attempted += 2
            start = clock()
            try:
                owner = server.attribute(task.index)
            except Exception as exc:
                result.fail(f"attribute({task.index}): {exc!r}")
                continue
            mid = clock()
            query.append(mid - start)
            if owner != task.volunteer_id:
                result.fail(f"attribute({task.index}) named {owner}, not {task.volunteer_id}")
                continue
            try:
                server.submit_result(vid, task.index, outcome)
            except Exception as exc:
                result.fail(f"submit_result({vid}, {task.index}): {exc!r}")
                continue
            update.append(clock() - mid)
            self.completed += 1
            finished.append(vid)
        self._replace_banned(finished)

    def _round_batched(self) -> None:
        """The ``workers`` round: one bulk call per phase, so each round
        costs a fixed number of pipe round trips."""
        server, result = self.server, self.result
        create, query, update = (self.rep.open_ns[k] for k in KINDS)
        clock = time.perf_counter_ns
        self._op(server.tick)
        self._churn_and_reissue()
        need = [vid for vid in self.active if vid not in self.in_flight]
        if need:
            result.attempted += len(need)
            start = clock()
            try:
                issued = server.request_tasks(need)
            except Exception as exc:
                result.fail(f"request_tasks: {exc!r}")
                return
            create.append((clock() - start) / len(need))
            for vid, task in zip(need, issued):
                if isinstance(task, Exception) or task.volunteer_id != vid:
                    result.fail(f"request_tasks: {vid} -> {task!r}")
                else:
                    self.in_flight[vid] = task
        done = []
        work = self._work_rng
        for vid in list(self.in_flight):
            profile = self.profiles[vid]
            if work.random() >= min(1.0, profile.speed):
                continue
            task = self.in_flight.pop(vid)
            done.append((vid, task, profile.compute(task.index, work)))
        if not done:
            return
        result.attempted += 2 * len(done)
        start = clock()
        try:
            owners = server.attribute_many([task.index for _vid, task, _r in done])
        except Exception as exc:
            result.fail(f"attribute_many: {exc!r}")
            return
        mid = clock()
        query.append((mid - start) / len(done))
        for (vid, task, _outcome), owner in zip(done, owners):
            if owner != task.volunteer_id:
                result.fail(f"attribute({task.index}) named {owner}, not {task.volunteer_id}")
        try:
            outcomes = server.submit_results([(vid, task.index, r) for vid, task, r in done])
        except Exception as exc:
            result.fail(f"submit_results: {exc!r}")
            return
        update.append((clock() - mid) / len(done))
        finished = []
        for (vid, task, _outcome), outcome in zip(done, outcomes):
            if outcome is None:
                self.completed += 1
                finished.append(vid)
            else:
                result.fail(f"submit_results: {vid}/{task.index}: {outcome!r}")
        self._replace_banned(finished)

    def measure_state(self, hook: _CheckpointBytes) -> None:
        """Stored bytes per task.  ``recovery`` counts what its periodic
        checkpoints wrote during the timed rounds; the others store their
        whole state once at the end: ``WBCServer`` as a persistence
        snapshot, the sharded servers with one ``checkpoint_all``."""
        rep, server = self.rep, self.server
        if self.w.checkpoint_every is not None:
            rep.state_per_task = hook.bytes / max(rep.tasks, 1)
            return
        if isinstance(server, WBCServer):
            stored = len(self._op(dumps, server) or "")
        else:
            hook.bytes, hook.counting = 0, True
            self._op(server.checkpoint_all)
            hook.counting = False
            stored = hook.bytes
        rep.state_per_task = stored / max(rep.all_tasks, 1)


def run_rep(
    name: str, seed: int, result: Result, *, smoke: bool, trace: bool, measure_state: bool
) -> Rep:
    """One rep: set up (build, seat, warm up), run the timed rounds,
    optionally traced, and for the first rep measure the stored state."""
    w = WORKLOADS[name]
    rounds, warmup = (SMOKE_ROUNDS, SMOKE_WARMUP) if smoke else (w.rounds, WARMUP)
    rep = Rep()
    hook = _CheckpointBytes()
    driver = Driver(w, seed, rep, result)
    try:
        start = time.perf_counter()
        driver.build()
        driver.run_rounds(warmup)
        rep.setup_s = time.perf_counter() - start
        rep.reset()
        warm_tasks = driver.completed
        tracer = installed = unsubscribe = None
        if trace:

            def on_restored(event) -> None:
                rep.replayed_ops += event.replayed_ops

            unsubscribe = driver.server.bus.subscribe(on_restored, (ShardRestored,))
            # Installed after the workers are spawned: only parent-side
            # layers are traced, worker compute shows up as pipe waits.
            tracer = tracing.Tracer()
            installed = tracing.install(tracer, targets(driver.server))
            rep.absent = installed.absent
        hook.counting = w.checkpoint_every is not None
        start = time.perf_counter()
        try:
            driver.run_rounds(rounds, tracer)
        finally:
            rep.timed_s = time.perf_counter() - start
            hook.counting = False
            if installed is not None:
                installed.remove()
                unsubscribe()
                rep.totals = tracer.take()
                rep.spans = tracer.spans
        rep.tasks = driver.completed - warm_tasks
        rep.all_tasks = driver.completed
        rep.max_index = driver.server.max_task_index
        if measure_state:
            driver.measure_state(hook)
    finally:
        hook.remove()
        driver.close()
    return rep


def measure(name: str, seed: int, seconds: float, *, trace: bool, smoke: bool) -> Result:
    """A fixed number of fresh reps on one seed.  Untraced, the
    end-to-end metrics come from the fastest rep at each round (see
    :func:`measure.best_of`).  With *trace*, reps alternate untraced and
    traced, and the result holds the per-layer metrics of the traced reps."""
    if smoke:
        count = 2 if trace else 1
    else:
        count = rep_count(seconds, WORKLOADS[name].rep_s)
    result = Result()
    reps = []
    for i in range(count):
        gc.collect()
        traced = trace and i % 2 == 1
        reps.append(run_rep(name, seed, result, smoke=smoke, trace=traced, measure_state=i == 0))
    for i, rep in enumerate(reps):
        if (rep.tasks, rep.max_index) != (reps[0].tasks, reps[0].max_index):
            result.fail(f"rep {i} diverged from rep 0 on the same seed")
    plain = [r for r in reps if r.totals is None]
    if trace:
        _layers(result, reps, plain)
    else:
        _end_to_end(result, plain, WORKLOADS[name].tail)
    return result


def _end_to_end(result: Result, reps: list[Rep], tail: float) -> None:
    rounds = best_of([r.rounds_ns for r in reps])
    samples = len(rounds) * len(reps)
    result.put("throughput_per_s", reps[0].tasks / (sum(rounds) / 1e9), samples)
    for kind in KINDS:
        best = best_of([r.p50_ns[kind] for r in reps])
        result.put(f"{kind}_p50_us", median(best) / 1e3, sum(r.calls[kind] for r in reps))
    result.put("round_tail_ms", percentile(rounds, tail) / 1e6, samples)
    result.put("state_bytes_per_item", reps[0].state_per_task, 1)
    result.put("setup_s", median([r.setup_s for r in reps]), len(reps))
    result.put("peak_rss_mb", peak_rss_mb(), 1)


def _layers(result: Result, reps: list[Rep], plain: list[Rep]) -> None:
    traced = [r for r in reps if r.totals is not None]
    t: dict[str, list[int]] = {}
    for r in traced:
        tracing.add_totals(t, r.totals)
    n = len(traced)
    tasks = sum(r.tasks for r in traced)
    rounds = sum(tracing.calls(r.totals, "bench/round") for r in traced)
    bounces = sum(len(r.bounce_ns) for r in traced)
    replayed = sum(r.replayed_ops for r in traced)

    for layer in ("server", "sharding", "engine", "allocator", "frontend", "ledger"):
        result.put(f"{layer}.self_us_per_task", per(tracing.self_ns(t, layer), tasks, 1e3), n)
    for layer, methods in (("codecs", ("pair", "unpair")), ("apf", ("unpair",))):
        for method in methods:
            calls = tracing.layer_calls(t, layer, method)
            result.put(f"{layer}.{method}_per_task", per(calls, tasks), n)
        result.put(f"{layer}.us_per_task", per(tracing.self_ns(t, layer), tasks, 1e3), n)
    publishes = tracing.layer_calls(t, "events", "publish")
    result.put("events.publish_per_task", per(publishes, tasks), n)
    result.put("events.us_per_task", per(tracing.self_ns(t, "events"), tasks, 1e3), n)
    journal = "recovery/CheckpointStore.journal"
    result.put("recovery.journal_per_task", per(tracing.calls(t, journal), tasks), n)
    result.put("recovery.journal_us_per_task", per(tracing.total_ns(t, journal), tasks, 1e3), n)
    store, engine = "recovery/CheckpointStore", "engine/AllocationEngine"
    stores = (f"{store}.checkpoint_state", f"{store}.checkpoint_delta")
    cuts = (f"{engine}.snapshot_state", f"{engine}.snapshot_delta")
    checkpoints = tracing.calls(t, *stores)
    cut, serialize = tracing.total_ns(t, *cuts), tracing.total_ns(t, *stores)
    result.put("recovery.cut_ms", per(cut, checkpoints, 1e6), checkpoints)
    result.put("recovery.serialize_ms", per(serialize, checkpoints, 1e6), checkpoints)
    base = tracing.total_ns(t, f"{store}.base_state", f"{engine}.restore_state")
    result.put("recovery.restore_base_ms", per(base, bounces, 1e6), bounces)
    replay = tracing.total_ns(
        t, f"{store}.ops", "sharding/ShardedWBCServer.restore_step"
    ) - tracing.total_ns(t, f"{engine}.apply_delta")
    result.put("recovery.replay_us_per_op", per(replay, replayed, 1e3), replayed)
    result.put("recovery.replayed_ops_per_bounce", per(replayed, bounces), bounces)
    finish = "shardworker/WorkerHandle.finish"
    result.put("shardworker.round_trips_per_round", per(tracing.calls(t, finish), rounds), rounds)
    wait = tracing.total_ns(t, finish)
    result.put("shardworker.wait_us_per_round", per(wait, rounds, 1e3), rounds)
    result.put("engine.max_index_bits", reps[0].max_index.bit_length(), 1)
    bounce_ns = [ns for r in traced for ns in r.bounce_ns]
    result.put("sharding.bounce_ms", median(bounce_ns) / 1e6, len(bounce_ns))
    result.put("bench.driver_us_per_task", per(tracing.self_ns(t, "bench"), tasks, 1e3), n)
    result.put(
        "trace.overhead_frac",
        min(r.timed_s for r in traced) / min(r.timed_s for r in plain) - 1,
        n,
    )
    covered = tracing.total_ns(t, "bench/round") / 1e9
    result.put("trace.coverage", covered / sum(r.timed_s for r in traced), n)
    result.absent = traced[0].absent
    result.spans = traced[0].spans
