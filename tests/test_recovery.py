"""Crash/recovery tests (repro.webcompute.recovery + sharding faults).

The headline property is the *differential* one: because the fault
injector's RNG stream is separate from the simulation's arrival/work
streams, a seeded run that crashes a shard and restores it **in the same
tick** (a lossless bounce through checkpoint + journal replay) must
produce ledger forensics -- culprit sets, pollution counts, attribution
round-trips, per-volunteer records -- *identical* to the fault-free run.
If recovery lost or duplicated anything, some forensic number would
move.

Alongside it: the regression test for the engine snapshot seam (an
earlier version round-tripped only scalars, so a restored engine would
re-issue an in-flight task's index), the CheckpointStore/replay
contracts, direct shard crash/restore behavior, the Backoff schedule,
and the retry-with-backoff path for returns that race a crashed shard.
"""

from __future__ import annotations

import json

import pytest

from repro.apf.families import TSharp
from repro.errors import (
    AllocationError,
    RecoveryError,
    ShardDownError,
)
from repro.webcompute.engine import AllocationEngine
from repro.webcompute.recovery import (
    JOURNAL_BATCH,
    Backoff,
    CheckpointStore,
    apply_op,
    replay,
)
from repro.webcompute.sharding import ShardedWBCServer
from repro.webcompute.simulation import SimulationConfig, WBCSimulation
from repro.webcompute.volunteer import VolunteerProfile

BASE = dict(
    ticks=120,
    initial_volunteers=16,
    shards=4,
    lease_ticks=6,
    checkpoint_every=10,
    seed=77,
)

# Outcome fields that must be identical between a fault-free run and a
# same-tick crash+restore run.  The fault-accounting fields
# (shard_crashes / shard_restores / checkpoints_taken / retries) are the
# *only* ones allowed to differ.
FORENSIC_FIELDS = (
    "apf_name",
    "ticks",
    "volunteers_total",
    "tasks_completed",
    "bad_results_returned",
    "bad_results_caught",
    "faulty_banned",
    "honest_banned",
    "departures",
    "max_task_index",
    "attribution_checks",
    "attribution_failures",
    "tasks_reissued",
    "late_returns",
)


def run_sim(faults: str = "", **overrides):
    cfg = SimulationConfig(**{**BASE, **overrides}, faults=faults)
    sim = WBCSimulation(TSharp(), cfg)
    outcome = sim.run()
    return sim, outcome


def ledger_forensics(sim):
    """Every forensic fact the ledgers hold, normalized for comparison:
    per-task attribution tuples, per-volunteer records, and the culprit
    (banned) set, across all shards."""
    server = sim.server
    tasks = {}
    records = {}
    culprits = set()
    for shard in server.alive_shards():
        ledger = server.engines[shard].ledger
        for task in ledger.tasks():
            tasks[task.index] = (
                task.volunteer_id,
                task.status.name,
                task.returned_by,
                task.reissued_to,
            )
        for record in ledger.records():
            records[record.volunteer_id] = (
                record.issued,
                record.returned,
                record.verified,
                record.strikes,
                record.banned,
                record.banned_at,
            )
            if record.banned:
                culprits.add(record.volunteer_id)
    return tasks, records, culprits


class TestDifferentialRecovery:
    """Same seed, with and without a mid-run crash+restore: the final
    ledger forensics must be indistinguishable."""

    def test_same_tick_bounce_is_forensically_invisible(self):
        baseline_sim, baseline = run_sim()
        faulted_sim, faulted = run_sim(
            faults="crash@30:0,restore@30:0,crash@60:2,restore@60:2"
        )
        for name in FORENSIC_FIELDS:
            assert getattr(faulted, name) == getattr(baseline, name), name
        assert faulted.shard_crashes == 2
        assert faulted.shard_restores == 2
        assert ledger_forensics(faulted_sim) == ledger_forensics(baseline_sim)

    @pytest.mark.parametrize("shard", range(BASE["shards"]))
    def test_every_shard_survives_a_bounce(self, shard):
        _, baseline = run_sim()
        faulted_sim, faulted = run_sim(faults=f"crash@40:{shard},restore@40:{shard}")
        for name in FORENSIC_FIELDS:
            assert getattr(faulted, name) == getattr(baseline, name), name
        # Culprit sets specifically: recovery must not lose a strike.
        _, _, culprits = ledger_forensics(faulted_sim)
        baseline_sim, _ = run_sim()
        _, _, baseline_culprits = ledger_forensics(baseline_sim)
        assert culprits == baseline_culprits

    def test_downtime_crash_keeps_attribution_exact(self):
        """A crash that spans ticks (real downtime: dropped traffic,
        degraded routing) is allowed to change throughput numbers -- but
        never attribution or index uniqueness."""
        sim, outcome = run_sim(faults="crash@30:1,restore@45:1")
        assert outcome.shard_crashes == 1
        assert outcome.shard_restores == 1
        assert outcome.attribution_checks > 0
        assert outcome.attribution_failures == 0
        # No global index double-issued across the crash: per-shard
        # ledgers partition the global space, so the union is exact.
        server = sim.server
        per_shard = [
            {t.index for t in server.engines[s].ledger.tasks()}
            for s in server.alive_shards()
        ]
        total = sum(len(indices) for indices in per_shard)
        assert len(set().union(*per_shard)) == total == server.report().tasks_issued


class TestEngineSnapshotRegression:
    """The satellite bug: engine-level snapshot_state used to capture only
    scalars, so restoring mid-epoch lost the allocator/frontend/ledger
    state and the restored engine re-issued an in-flight task's index."""

    def make_engine(self, seed: int = 3) -> AllocationEngine:
        return AllocationEngine(
            TSharp(), verification_rate=1.0, ban_after_strikes=2, seed=seed
        )

    def test_restored_engine_issues_next_index_not_a_duplicate(self):
        engine = self.make_engine()
        vid = engine.register(VolunteerProfile("a", speed=1.0))
        done = engine.request_task(vid)
        engine.submit_result(vid, done.index, done.expected_result)
        inflight = engine.request_task(vid)  # issued, not yet returned

        blob = json.dumps(engine.snapshot_state(), sort_keys=True)
        restored = self.make_engine(seed=99)  # seed must not matter:
        restored.restore_state(json.loads(blob))  # the RNG rides in the state

        nxt = restored.request_task(vid)
        assert nxt.index not in {done.index, inflight.index}
        # Bit-identical continuation: the original engine's next issue is
        # the same index the restored one just minted.
        assert nxt.index == engine.request_task(vid).index
        # The in-flight task is still open and returnable on the restored
        # engine, attributed to its original owner.
        restored.submit_result(vid, inflight.index, inflight.expected_result)
        assert restored.attribute(inflight.index) == vid
        assert restored.attribute(done.index) == vid

    def test_snapshot_roundtrip_is_lossless(self):
        engine = self.make_engine()
        vids = engine.register_round(
            [VolunteerProfile(f"v{i}", speed=1.0 + i) for i in range(3)]
        )
        for vid in vids:
            task = engine.request_task(vid)
            engine.submit_result(vid, task.index, task.expected_result)
        engine.tick()
        engine.request_task(vids[0])  # leave one in flight
        state = engine.snapshot_state()
        restored = self.make_engine(seed=1234)
        restored.restore_state(json.loads(json.dumps(state)))
        assert restored.snapshot_state() == state


class TestCheckpointStore:
    def test_latest_without_checkpoint_raises(self):
        with pytest.raises(RecoveryError):
            CheckpointStore().latest()

    def test_checkpoint_truncates_journal_and_counts_issued(self):
        engine = AllocationEngine(TSharp(), seed=1)
        vid = engine.register(VolunteerProfile("a"))
        engine.request_task(vid)
        store = CheckpointStore()
        store.journal(["tick"])
        assert store.pending_ops == 1
        cp = store.checkpoint(engine)
        assert store.pending_ops == 0
        assert cp.tasks_issued == 1
        assert store.checkpoint_issued == 1
        assert store.checkpoint_tick == engine.clock

    def test_checkpoint_state_is_isolated_from_the_live_engine(self):
        engine = AllocationEngine(TSharp(), seed=1)
        store = CheckpointStore()
        store.checkpoint(engine)
        engine.tick()
        engine.register(VolunteerProfile("late"))
        cp = store.latest()
        assert cp.state["clock"] == 0
        assert cp.state["profiles"] == {}
        # And two reads never share structure.
        assert store.latest().state is not cp.state

    def test_unserializable_op_fails_at_its_batch(self):
        store = CheckpointStore()
        store.checkpoint(AllocationEngine(TSharp(), seed=1))
        with pytest.raises(TypeError):  # no later than the batch's last op
            store.journal(("submit", 1, 2, object()))
            for _ in range(JOURNAL_BATCH - 1):
                store.journal(("tick",))

    @pytest.mark.parametrize("cut", ["full", "delta"])
    def test_unserializable_op_fails_the_next_cut(self, cut):
        engine = AllocationEngine(TSharp(), seed=1)
        store = CheckpointStore()
        store.checkpoint(engine)
        store.journal(("tick",))
        store.journal(("corrupt", 1, {0.5}))
        engine.tick()
        with pytest.raises(TypeError):
            if cut == "full":
                store.checkpoint(engine)
            else:
                store.checkpoint_delta(engine.snapshot_delta(store.since_tick))
        # The failed cut stored nothing and truncated nothing.
        assert store.segment_count == 0
        assert store.checkpoint_tick == 0
        assert store.pending_ops == 2

    def test_ops_are_fresh_lists_sharing_nothing_with_the_journal(self):
        store = CheckpointStore()
        profile = VolunteerProfile("a").to_state()
        journaled = [("register", [profile], [7])]
        journaled += [("request", 7)] * JOURNAL_BATCH  # fills one batch
        journaled.append(("submits", [(7, 11, 0)]))  # stays pending
        for op in journaled:
            store.journal(op)
        assert store.pending_ops == len(journaled)
        first = store.ops()
        assert first == [json.loads(json.dumps(op)) for op in journaled]
        assert all(type(op) is list for op in first)
        first[0][1][0]["name"] = "mallory"
        first[0][2].append(8)
        first[-1][1][0][2] = 99
        first[-1].append("extra")
        second = store.ops()
        assert second[0] == ["register", [VolunteerProfile("a").to_state()], [7]]
        assert second[-1] == ["submits", [[7, 11, 0]]]
        assert profile["name"] == "a"

    def test_unknown_journal_op_raises(self):
        engine = AllocationEngine(TSharp(), seed=1)
        with pytest.raises(RecoveryError):
            apply_op(engine, ["frobnicate", 1])

    def test_replay_divergence_fails_loudly(self):
        engine = AllocationEngine(TSharp(), seed=1)
        ops = [["tick"], ["submit", 1, 999, 0]]  # no such task
        with pytest.raises(RecoveryError, match="diverged at op 1"):
            replay(engine, ops)

    def test_replay_reproduces_the_lost_engine(self):
        """checkpoint + journal = current state, bit for bit."""
        live = AllocationEngine(TSharp(), verification_rate=1.0, seed=5)
        store = CheckpointStore()
        a, b = live.register_round(
            [VolunteerProfile("a", speed=2.0), VolunteerProfile("b")]
        )
        store.checkpoint(live)
        ops = []

        def do(op):
            apply_op(live, op)
            ops.append(op)

        do(["tick"])
        do(["request", a])
        do(["request", b])
        task = live.ledger.outstanding_tasks()[0]
        do(["submit", task.volunteer_id, task.index, task.expected_result])
        do(["tick"])

        rebuilt = AllocationEngine(TSharp(), verification_rate=1.0, seed=999)
        rebuilt.restore_state(store.latest().state)
        assert replay(rebuilt, ops) == len(ops)
        assert rebuilt.snapshot_state() == live.snapshot_state()

    def test_apply_op_returns_the_engine_result(self):
        """``apply_op`` is the live dispatcher too: every tag hands back
        exactly what the engine call returns (a list, one entry per
        item, for the bulk tags)."""
        via_op = AllocationEngine(TSharp(), verification_rate=1.0, seed=5, lease_ticks=2)
        direct = AllocationEngine(TSharp(), verification_rate=1.0, seed=5, lease_ticks=2)
        states = [VolunteerProfile(name).to_state() for name in "abcde"]
        a, b, c, d, e = ids = [1, 2, 3, 4, 5]

        def both(op, call):
            got = apply_op(via_op, op)
            assert got == call(direct), op[0]
            return got

        def fresh():
            return [VolunteerProfile.from_state(state) for state in states]

        assert both(
            ["validate_register", states, ids],
            lambda eng: eng.validate_round(fresh(), ids=ids),
        ) is None
        assert both(
            ["register", states, ids], lambda eng: eng.register_round(fresh(), ids=ids)
        ) == ids
        assert both(["tick"], lambda eng: eng.tick()) == 1
        task_a = both(["request", a], lambda eng: eng.request_task(a))
        task_b, task_c = both(
            ["requests", [b, c]], lambda eng: [eng.request_task(b), eng.request_task(c)]
        )
        assert task_a.volunteer_id == a and task_c.volunteer_id == c
        ra, rb = task_a.expected_result, task_b.expected_result
        assert both(
            ["submit", a, task_a.index, ra],
            lambda eng: eng.submit_result(a, task_a.index, ra),
        ) is None
        assert both(
            ["submits", [[b, task_b.index, rb]]],
            lambda eng: [eng.submit_result(b, task_b.index, rb)],
        ) == [None]
        assert both(
            ["attribute_many", [task_a.index, task_c.index]],
            lambda eng: [eng.attribute(task_a.index), eng.attribute(task_c.index)],
        ) == [a, c]
        corrupted = both(["corrupt", d, 1.0], lambda eng: eng.mark_corrupted(d, 1.0))
        assert corrupted.error_rate == 1.0
        for _ in range(3):
            both(["tick"], lambda eng: eng.tick())
        assert both(["reap"], lambda eng: eng.reap_expired())
        assert both(["depart", e], lambda eng: eng.depart(e)) is None
        assert via_op.snapshot_state() == direct.snapshot_state()

    def test_bulk_ops_replay_as_their_singular_forms(self):
        """The batched router journals ``requests``/``submits`` entries;
        replaying them must restore the exact state the equivalent
        singular journal would have."""
        live = AllocationEngine(TSharp(), verification_rate=1.0, seed=5)
        a, b = live.register_round(
            [VolunteerProfile("a", speed=2.0), VolunteerProfile("b")]
        )
        store = CheckpointStore()
        store.checkpoint(live)
        apply_op(live, ["tick"])
        apply_op(live, ["requests", [a, b]])
        triples = [
            [t.volunteer_id, t.index, t.expected_result]
            for t in live.ledger.outstanding_tasks()
        ]
        apply_op(live, ["submits", triples])

        bulk = AllocationEngine(TSharp(), verification_rate=1.0, seed=999)
        bulk.restore_state(store.latest().state)
        replay(bulk, [["tick"], ["requests", [a, b]], ["submits", triples]])
        singular = AllocationEngine(TSharp(), verification_rate=1.0, seed=999)
        singular.restore_state(store.latest().state)
        replay(
            singular,
            [["tick"], ["request", a], ["request", b]]
            + [["submit", *t] for t in triples],
        )
        assert (
            bulk.snapshot_state()
            == singular.snapshot_state()
            == live.snapshot_state()
        )


class TestShardCrashRestore:
    def make_server(self, **kwargs) -> ShardedWBCServer:
        kwargs.setdefault("shards", 3)
        kwargs.setdefault("verification_rate", 1.0)
        kwargs.setdefault("seed", 7)
        kwargs.setdefault("lease_ticks", 5)
        kwargs.setdefault("checkpoint_every", 4)
        return ShardedWBCServer(TSharp(), **kwargs)

    def seeded_server(self):
        server = self.make_server()
        vids = server.register_round(
            [VolunteerProfile(f"v{i}", speed=1.0 + i * 0.3) for i in range(6)]
        )
        issued = []
        for _ in range(3):
            server.tick()
            for vid in vids:
                task = server.request_task(vid)
                issued.append(task.index)
                server.submit_result(vid, task.index, task.expected_result)
        return server, vids, issued

    def test_dead_shard_refuses_all_traffic_transiently(self):
        server, vids, issued = self.seeded_server()
        victim = next(v for v in vids if server.shard_of(v) == 1)
        dead_index = next(
            i for i in issued if server.composer.unpair(i)[0] - 1 == 1
        )
        server.crash_shard(1)
        with pytest.raises(ShardDownError):
            server.request_task(victim)
        with pytest.raises(ShardDownError):
            server.submit_result(victim, dead_index, 0)
        with pytest.raises(ShardDownError):
            server.attribute(dead_index)
        with pytest.raises(ShardDownError):
            server.engine_of(victim)
        with pytest.raises(ShardDownError):
            server.checkpoint_shard(1)
        # Transient means retryable: it is an AllocationError subclass,
        # not a hard failure.
        assert issubclass(ShardDownError, AllocationError)

    def test_crash_and_restore_guards(self):
        server = self.make_server()
        with pytest.raises(RecoveryError):
            server.restore_shard(0)  # not down
        server.crash_shard(0)
        with pytest.raises(RecoveryError):
            server.crash_shard(0)  # already down

    def test_restore_rebuilds_the_exact_engine(self):
        server, _vids, _issued = self.seeded_server()
        before = server.engines[2].snapshot_state()
        server.crash_shard(2)
        server.tick()  # downtime tick, journaled for the dead shard too
        server.restore_shard(2)
        after = server.engines[2].snapshot_state()
        # Identical except the replayed downtime tick.
        assert after["clock"] == before["clock"] + 1
        assert {**after, "clock": 0} == {**before, "clock": 0}
        assert server.engines[2].clock == server.clock

    def test_no_duplicate_indices_across_a_crash(self):
        server, vids, issued = self.seeded_server()
        server.crash_shard(1)
        server.tick()
        server.restore_shard(1)
        for _ in range(2):
            server.tick()
            for vid in vids:
                task = server.request_task(vid)
                issued.append(task.index)
                server.submit_result(vid, task.index, task.expected_result)
        assert len(issued) == len(set(issued))
        assert server.report().tasks_issued == len(issued)

    def test_registration_routes_around_a_dead_shard(self):
        server = self.make_server()
        server.crash_shard(1)
        vids = server.register_round([VolunteerProfile(f"n{i}") for i in range(6)])
        assert {server.shard_of(v) for v in vids} == {0, 2}
        for shard in range(3):
            if server.is_shard_alive(shard):
                server.crash_shard(shard)
        with pytest.raises(AllocationError):
            server.register(VolunteerProfile("nowhere"))

    def test_alive_shards_tracks_state(self):
        server = self.make_server()
        assert server.alive_shards() == [0, 1, 2]
        server.crash_shard(1)
        assert server.alive_shards() == [0, 2]
        assert not server.is_shard_alive(1)
        server.restore_shard(1)
        assert server.alive_shards() == [0, 1, 2]


class TestBackoff:
    def test_schedule_doubles_to_the_cap(self):
        b = Backoff()
        assert [b.delay(a) for a in range(6)] == [1, 2, 4, 8, 16, 16]

    def test_next_retry_tick_advances_attempts(self):
        b = Backoff()
        assert b.next_retry_tick(10) == 11
        assert b.next_retry_tick(11) == 13
        assert b.next_retry_tick(13) == 17
        assert b.attempts == 3
        assert not b.exhausted

    def test_exhaustion(self):
        b = Backoff(max_attempts=2)
        b.next_retry_tick(0)
        assert not b.exhausted
        b.next_retry_tick(1)
        assert b.exhausted


class TestRetryPath:
    def test_returns_racing_a_crash_are_retried_not_lost(self):
        """Delayed returns land while shard 1 is down, fail with
        ShardDownError, and drain through the backoff queue after the
        restore -- attribution stays exact throughout."""
        _, outcome = run_sim(faults="crash@20:1,restore@26:1,delay=0.6:4")
        assert outcome.returns_retried > 0
        assert outcome.attribution_failures == 0
        assert outcome.shard_crashes == 1
        assert outcome.shard_restores == 1
