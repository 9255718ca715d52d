"""Parallel (worker-process) execution of the sharded WBC service.

The pool is an *execution mode*, not a different service: with the same
seed, every observable -- reports, task indices, attribution paths, bans,
simulation outcomes -- must match the in-process serial mode exactly.
These tests pin that contract, plus the failure semantics the pool adds
(a worker process dying maps onto the existing shard crash/restore
discipline) and the round-atomicity / bulk-API behavior the batched
router introduces.
"""

from __future__ import annotations

import random

import pytest

from repro.apf.families import TSharp
from repro.errors import (
    AllocationError,
    DomainError,
    ShardDownError,
)
from repro.webcompute.events import EventCounters, ShardCrashed, ShardRestored
from repro.webcompute.sharding import ShardedWBCServer
from repro.webcompute.shardworker import WorkerDiedError
from repro.webcompute.simulation import SimulationConfig, WBCSimulation
from repro.webcompute.task import correct_result
from repro.webcompute.volunteer import Behavior, VolunteerProfile


def make_server(shards: int = 4, workers: int | None = None, **kwargs):
    return ShardedWBCServer(TSharp(), shards=shards, workers=workers, **kwargs)


def drive(server, rounds: int = 3, per_round: int = 6) -> dict:
    """One deterministic scripted workload; returns the observables that
    must be mode-independent."""
    rng = random.Random(97)
    all_ids: list[int] = []
    tasks: dict[int, int] = {}
    for r in range(rounds):
        profiles = [
            VolunteerProfile(f"r{r}v{i}", speed=1.0 + (i % 3))
            if i % 3
            else VolunteerProfile(
                f"r{r}v{i}", behavior=Behavior.MALICIOUS, error_rate=1.0
            )
            for i in range(per_round)
        ]
        ids = server.register_round(profiles)
        all_ids.extend(ids)
        server.tick()
        for vid in ids:
            task = server.request_task(vid)
            tasks[vid] = task.index
        server.tick()
        for vid in ids:
            profile = server.profile_of(vid)
            server.submit_result(
                vid, tasks[vid], profile.compute(tasks[vid], rng)
            )
    report = server.report()
    return {
        "ids": all_ids,
        "clock": server.clock,
        "max_task_index": server.max_task_index,
        "seated": server.seated_count,
        "report": report,
        "banned": [vid for vid in all_ids if server.is_banned(vid)],
        "owners": {idx: server.attribute(idx) for idx in tasks.values()},
        "paths": [
            server.attribution_path(idx).local_index for idx in tasks.values()
        ],
    }


class TestModeParity:
    def test_worker_mode_matches_serial_scripted_workload(self):
        serial = make_server(shards=4, verification_rate=1.0, ban_after_strikes=2)
        with make_server(
            shards=4, workers=2, verification_rate=1.0, ban_after_strikes=2
        ) as parallel:
            assert drive(serial) == drive(parallel)

    def test_worker_count_clamped_to_shards(self):
        with make_server(shards=2, workers=8) as server:
            assert server.workers == 2

    def test_rejects_bad_worker_counts(self):
        from repro.errors import ConfigurationError

        for bad in (0, -1, True, 1.5):
            with pytest.raises(ConfigurationError):
                make_server(shards=2, workers=bad)

    def test_worker_mode_events_match_serial(self):
        serial = make_server(shards=3)
        with make_server(shards=3, workers=2) as parallel:
            cs, cp = EventCounters.attach(serial.bus), EventCounters.attach(
                parallel.bus
            )
            drive(serial, rounds=2)
            drive(parallel, rounds=2)
            assert cs.summary() == cp.summary()


class TestBulkAPIs:
    def test_bulk_results_match_singular_per_item(self):
        for workers in (None, 2):
            with make_server(shards=2, workers=workers) as server:
                a, b = server.register_round(
                    [VolunteerProfile("a"), VolunteerProfile("b")]
                )
                results = server.request_tasks([a, 99, b])
                assert results[0].volunteer_id == a
                assert isinstance(results[1], AllocationError)
                assert results[2].volunteer_id == b
                outcomes = server.submit_results(
                    [
                        (a, results[0].index, correct_result(results[0].index)),
                        # b "returns" a's task: cross-shard forgery.
                        (b, results[0].index, 0),
                        (b, results[2].index, correct_result(results[2].index)),
                    ]
                )
                assert outcomes[0] is None
                assert isinstance(outcomes[1], (AllocationError, DomainError))
                assert outcomes[2] is None
                assert server.attribute_many(
                    [results[0].index, results[2].index]
                ) == [a, b]

    def test_bulk_calls_journal_identically_in_both_modes(self):
        journals = {}
        for workers in (None, 2):
            with make_server(shards=2, workers=workers) as server:
                a, b, c, d = server.register_round(
                    [VolunteerProfile(name) for name in "abcd"]
                )
                server.tick()
                tasks = server.request_tasks([a, 99, b, c])
                assert isinstance(tasks[1], AllocationError)
                outcomes = server.submit_results(
                    [
                        (a, tasks[0].index, correct_result(tasks[0].index)),
                        # b "returns" a's task: cross-shard forgery.
                        (b, tasks[0].index, 0),
                        (b, tasks[2].index, correct_result(tasks[2].index)),
                    ]
                )
                assert outcomes[0] is None and outcomes[2] is None
                assert isinstance(outcomes[1], (AllocationError, DomainError))
                server.request_tasks([d, a])
                journals[workers] = [store.ops() for store in server._stores]
        assert journals[None] == journals[2]
        assert any(op[0] == "requests" for ops in journals[None] for op in ops)
        assert any(op[0] == "submits" for ops in journals[None] for op in ops)

    def test_bulk_request_routes_around_down_shard(self):
        for workers in (None, 2):
            with make_server(shards=2, workers=workers) as server:
                a, b = server.register_round(
                    [VolunteerProfile("a"), VolunteerProfile("b")]
                )
                server.crash_shard(server.shard_of(a))
                results = server.request_tasks([a, b])
                assert isinstance(results[0], ShardDownError)
                assert results[1].volunteer_id == b


class TestTornRounds:
    def test_serial_torn_round_rolls_back_and_burns_ids(self):
        """A shard failing mid-commit must not leave earlier shards
        seated or routing-table entries behind; the retry gets fresh
        ids."""
        server = make_server(shards=2)
        boom = ShardDownError("shard 1 died mid-round")

        def failing_register(profiles, ids=None):
            raise boom

        server.engines[1].register_round = failing_register
        profiles = [VolunteerProfile("a"), VolunteerProfile("b")]
        first_id = server._next_volunteer_id
        with pytest.raises(ShardDownError):
            server.register_round(profiles)
        assert server.seated_count == 0
        assert server.engines[0].seated_count == 0

        del server.engines[1].register_round  # restore the real method
        ids = server.register_round(profiles)
        assert len(ids) == 2
        assert server.seated_count == 2
        # The torn round's ids were burned, never reused.
        assert min(ids) >= first_id + len(profiles)

    def test_serial_torn_round_replay_agrees(self):
        """The compensating departs are journaled, so a crash+restore
        after a torn round replays to the same (empty-round) state."""
        server = make_server(shards=2)

        def failing_register(profiles, ids=None):
            raise ShardDownError("shard 1 died mid-round")

        real = server.engines[1].register_round
        server.engines[1].register_round = failing_register
        with pytest.raises(ShardDownError):
            server.register_round(
                [VolunteerProfile("a"), VolunteerProfile("b")]
            )
        server.engines[1].register_round = real
        seated_before = server.engines[0].seated_count
        server.crash_shard(0)
        server.restore_shard(0)
        assert server.engines[0].seated_count == seated_before == 0

    def test_worker_torn_round_rolls_back_committed_shards(self):
        """The worker hosting shard 1 dies between validation and commit:
        shard 0's already-seated bucket is rolled back, shard 1 is marked
        crashed, and after restoring it a retried round seats cleanly."""
        with make_server(shards=2, workers=2) as server:
            proxy = server.engines[1]
            handle = server._host_for(1)

            class DyingProxy:
                """Delegates to the real shard-1 proxy, but kills its
                worker process right before the commit call -- the
                validate-then-die window a real process death can hit."""

                def __getattr__(self, name):
                    return getattr(proxy, name)

                def register_round(self, profiles, ids=None):
                    handle.process.kill()
                    handle.process.join(timeout=5.0)
                    return proxy.register_round(profiles, ids=ids)

            server.engines[1] = DyingProxy()
            with pytest.raises(ShardDownError):
                server.register_round(
                    [VolunteerProfile("a"), VolunteerProfile("b")]
                )
            assert server.is_shard_alive(0)
            assert not server.is_shard_alive(1)
            assert server.engines[0].seated_count == 0

            server.restore_shard(1)
            ids = server.register_round(
                [VolunteerProfile("a"), VolunteerProfile("b")]
            )
            assert server.seated_count == 2
            task = server.request_task(ids[0])
            assert server.attribute(task.index) == ids[0]


class TestWorkerDeath:
    def test_dead_worker_crashes_its_shards_and_restores(self):
        with make_server(shards=4, workers=2) as server:
            counters = EventCounters.attach(server.bus)
            ids = server.register_round(
                [VolunteerProfile(f"v{i}") for i in range(8)]
            )
            tasks = {vid: server.request_task(vid) for vid in ids}
            server.checkpoint_all()
            # Worker 0 hosts shards 0 and 2 (shard % workers).
            server._hosts[0].process.kill()
            server._hosts[0].process.join(timeout=5.0)
            with pytest.raises(ShardDownError):
                server.request_task(ids[0])  # shard 0: discovers the death
            assert not server.is_shard_alive(0)
            assert not server.is_shard_alive(2)
            assert server.is_shard_alive(1)
            assert counters.count(ShardCrashed) == 2
            # Both shards restore into one respawned worker process.
            server.restore_shard(0)
            server.restore_shard(2)
            assert counters.count(ShardRestored) == 2
            assert server.alive_shards() == [0, 1, 2, 3]
            for vid in ids:
                task = tasks[vid]
                assert server.attribute(task.index) == vid
            # The respawned worker serves fresh traffic.
            assert server.request_task(ids[0]).volunteer_id == ids[0]

    def test_worker_died_error_is_shard_down(self):
        assert issubclass(WorkerDiedError, ShardDownError)

    def test_close_is_idempotent_and_kills_workers(self):
        server = make_server(shards=2, workers=2)
        procs = [h.process for h in server._hosts]
        server.close()
        server.close()
        for proc in procs:
            assert not proc.is_alive()


class TestWorkerLeases:
    def test_leases_reap_and_reissue_in_worker_mode(self):
        with make_server(shards=2, workers=2, lease_ticks=2) as server:
            a, b = server.register_round(
                [VolunteerProfile("a"), VolunteerProfile("b")]
            )
            # Same-shard pair so the reaper has an idle reissue target.
            c, d = server.register_round(
                [VolunteerProfile("c"), VolunteerProfile("d")]
            )
            task = server.request_task(a)
            for _ in range(3):
                server.tick()
            reissued = server.reap_expired()
            assert [t.index for t in reissued] == [task.index]
            target = reissued[0].reissued_to
            assert target is not None and target != a
            # Attribution still names the original assignee.
            assert server.attribute(task.index) == a
            report = server.report()
            assert report.tasks_reissued == 1


class TestSimulationDifferential:
    CONFIG = dict(
        ticks=50,
        initial_volunteers=20,
        shards=4,
        seed=2002,
        checkpoint_every=8,
        faults="corrupt@10:2,crash@20:1,restore@30:1",
    )

    def _outcome(self, workers):
        sim = WBCSimulation(
            TSharp(), SimulationConfig(**self.CONFIG, workers=workers)
        )
        try:
            return sim.run()
        finally:
            sim.close()

    def test_pool_outcome_identical_to_serial(self):
        """The tentpole differential: same seed and fault schedule, the
        worker pool produces the exact SimulationOutcome the in-process
        server does -- tasks, bans, attribution checks, crash/restore
        counts, everything."""
        assert self._outcome(None) == self._outcome(2)

    def test_pool_outcome_identical_under_lease_fault_soup(self):
        config = dict(
            self.CONFIG,
            ticks=60,
            lease_ticks=4,
            faults="corrupt@10:2,crash@20:1,restore@30:1,drop=0.1,delay=0.15:3",
        )
        outcomes = []
        for workers in (None, 2):
            sim = WBCSimulation(
                TSharp(), SimulationConfig(**config, workers=workers)
            )
            try:
                outcomes.append(sim.run())
            finally:
                sim.close()
        assert outcomes[0] == outcomes[1]

    def test_attribution_exact_under_pool(self):
        outcome = self._outcome(2)
        assert outcome.attribution_checks > 0
        assert outcome.attribution_failures == 0
