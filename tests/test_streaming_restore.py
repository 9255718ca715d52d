"""Streaming restore: the log-structured recovery path under live load.

The contract being pinned:

* **Differential vs blocking replay** -- a shard rebuilt step-by-step
  with :meth:`begin_restore` / :meth:`restore_step` (serving degraded
  registrations mid-replay) converges to *bit-identical* engine state
  with a fresh engine rebuilt the blocking way from the same store
  (base checkpoint + folded delta segments + journal replay).
* **Degraded service** -- while a shard is RESTORING it accepts
  registration rounds (server-minted ids ride the replay queue) and
  rejects every other call with the transient ``ShardDownError``.
* **Incremental checkpoints** -- folding a store's delta segments onto
  its base reproduces the live engine's full snapshot exactly, and
  ``compact_every`` rewrites a fresh base on schedule.
* **Serial / worker equivalence** -- all of the above bit-identical
  between in-process shards and worker-process shards.
"""

from __future__ import annotations

import json

import pytest

from repro.apf.families import TSharp
from repro.errors import ConfigurationError, RecoveryError, ShardDownError
from repro.webcompute.events import CheckpointTaken, ShardRestored, ShardRestoring
from repro.webcompute.recovery import replay
from repro.webcompute.sharding import ShardedWBCServer
from repro.webcompute.volunteer import VolunteerProfile

SHARDS = 3


def make_server(workers=None, checkpoint_every=2, compact_every=3):
    return ShardedWBCServer(
        TSharp(),
        shards=SHARDS,
        verification_rate=1.0,
        ban_after_strikes=2,
        seed=7,
        lease_ticks=4,
        checkpoint_every=checkpoint_every,
        compact_every=compact_every,
        workers=workers,
    )


def drive(server, vids, rounds=6):
    """Some epochs of honest work across every shard."""
    for _ in range(rounds):
        server.tick()
        for vid in vids:
            task = server.request_task(vid)
            server.submit_result(vid, task.index, task.expected_result)


def canonical(state) -> str:
    return json.dumps(state, sort_keys=True)


def bounce_mid_epoch(server):
    """Crash shard 1 mid-epoch, stream it back while a registration
    round lands during replay.  Returns the new volunteer ids."""
    vids = server.register_round(
        [VolunteerProfile(f"v{i}") for i in range(9)]
    )
    drive(server, vids)
    # Mid-epoch: half the volunteers are holding unreturned tasks.
    server.tick()
    inflight = [server.request_task(vid) for vid in vids[::2]]
    server.crash_shard(1)
    server.tick()  # downtime tick rides the journal
    server.begin_restore(1)
    degraded = server.register_round(
        [VolunteerProfile(f"mid{i}") for i in range(6)]
    )
    while not server.restore_step(1, max_items=2):
        pass
    for task in inflight:
        vid = task.volunteer_id
        if server.is_shard_alive(server.shard_of(vid)):
            server.submit_result(vid, task.index, task.expected_result)
    return vids, degraded


class TestStreamingDifferential:
    def test_streaming_converges_to_blocking_replay(self):
        server = make_server()
        bounce_mid_epoch(server)
        # Blocking rebuild from the same store: base + folded segments
        # (store.latest()) + journal replay.  The degraded round's
        # register op is journaled, so both paths contain it.
        store = server._stores[1]
        blocking = server._spec_for(1).build()
        blocking.restore_state(store.latest().state)
        replay(blocking, store.ops())
        assert canonical(blocking.snapshot_state()) == canonical(
            server.engines[1].snapshot_state()
        )

    def test_serial_and_worker_streaming_agree(self):
        states = {}
        for workers in (None, 2):
            server = make_server(workers=workers)
            bounce_mid_epoch(server)
            states[workers] = canonical(
                {s: server.engines[s].snapshot_state() for s in range(SHARDS)}
            )
        assert states[None] == states[2]

    def test_same_tick_bounce_still_identical(self):
        # The original differential (no degraded traffic): crash and
        # stream back within one tick, no registrations mid-replay.
        server = make_server()
        vids = server.register_round(
            [VolunteerProfile(f"v{i}") for i in range(6)]
        )
        drive(server, vids)
        before = canonical(server.engines[1].snapshot_state())
        server.crash_shard(1)
        server.restore_shard(1)  # blocking wrapper over the stream
        assert canonical(server.engines[1].snapshot_state()) == before

    def test_degraded_volunteers_are_seated_and_serviceable(self):
        server = make_server()
        _vids, degraded = bounce_mid_epoch(server)
        on_bounced = [v for v in degraded if server.shard_of(v) == 1]
        assert on_bounced, "routing never used the restoring shard"
        for vid in on_bounced:
            task = server.request_task(vid)
            server.submit_result(vid, task.index, task.expected_result)


class TestDegradedService:
    def test_restoring_shard_serves_only_registration(self):
        server = make_server()
        vids = server.register_round(
            [VolunteerProfile(f"v{i}") for i in range(9)]
        )
        drive(server, vids)
        on1 = [v for v in vids if server.shard_of(v) == 1]
        server.crash_shard(1)
        server.begin_restore(1)
        assert server.is_shard_restoring(1)
        assert not server.is_shard_alive(1)
        assert 1 in server.routable_shards()
        with pytest.raises(ShardDownError):
            server.request_task(on1[0])
        with pytest.raises(ShardDownError):
            server.depart(on1[0])
        while not server.restore_step(1):
            pass
        assert server.is_shard_alive(1)
        assert not server.is_shard_restoring(1)
        server.request_task(on1[0])

    def test_restore_events_published(self):
        server = make_server()
        vids = server.register_round(
            [VolunteerProfile(f"v{i}") for i in range(6)]
        )
        drive(server, vids)
        events = []
        server.bus.subscribe(events.append)
        server.crash_shard(1)
        server.begin_restore(1)
        while not server.restore_step(1, max_items=1):
            pass
        restoring = [e for e in events if isinstance(e, ShardRestoring)]
        restored = [e for e in events if isinstance(e, ShardRestored)]
        assert len(restoring) == 1 and len(restored) == 1
        assert restoring[0].segments + restoring[0].pending_ops > 0
        assert restored[0].replayed_ops >= restoring[0].pending_ops

    def test_ticks_during_restore_rejoin_the_clock(self):
        server = make_server()
        vids = server.register_round(
            [VolunteerProfile(f"v{i}") for i in range(6)]
        )
        drive(server, vids)
        server.crash_shard(1)
        server.begin_restore(1)
        server.tick()  # lands on the replay queue mid-restore
        server.tick()
        while not server.restore_step(1, max_items=1):
            pass
        assert server.engines[1].clock == server.clock

    # Short ids keep every case's full name within 100 characters.
    @pytest.mark.parametrize("max_items", [None, 1], ids=["all", "1"])
    @pytest.mark.parametrize("workers", [None, 2], ids=["s", "w"])
    def test_replay_divergence_aborts_to_plain_down(self, workers, max_items):
        with make_server(workers=workers) as server:
            vids = server.register_round(
                [VolunteerProfile(f"v{i}") for i in range(6)]
            )
            drive(server, vids)
            server.crash_shard(1)
            # Poison the journal: a submit for a task the shard never issued.
            server._stores[1].journal(["submit", 99, 1, 0])
            position = server._stores[1].pending_ops - 1
            assert position > 0
            server.begin_restore(1)
            with pytest.raises(
                RecoveryError,
                match=rf"journal replay diverged at op {position} \('submit'\)",
            ):
                while not server.restore_step(1, max_items=max_items):
                    pass
            assert not server.is_shard_restoring(1)
            assert not server.is_shard_alive(1)

    @pytest.mark.parametrize("max_items", [0, -1, True, 1.5])
    def test_restore_step_rejects_a_stuck_step(self, max_items):
        server = make_server()
        vids = server.register_round(
            [VolunteerProfile(f"v{i}") for i in range(6)]
        )
        drive(server, vids)
        server.crash_shard(1)
        server.begin_restore(1)
        queued = len(server._restoring[1].queue)
        assert queued > 0
        with pytest.raises(ConfigurationError, match="max_items"):
            server.restore_step(1, max_items=max_items)
        assert len(server._restoring[1].queue) == queued
        assert server.restore_step(1)
        assert server.is_shard_alive(1)

    def test_double_begin_rejected(self):
        server = make_server()
        vids = server.register_round(
            [VolunteerProfile(f"v{i}") for i in range(6)]
        )
        drive(server, vids)
        server.crash_shard(1)
        server.begin_restore(1)
        with pytest.raises(RecoveryError, match="already restoring"):
            server.begin_restore(1)
        with pytest.raises(RecoveryError, match="is not down"):
            server.restore_shard(0)


class TestIncrementalCheckpoints:
    def test_deltas_fold_to_live_snapshot(self):
        server = make_server(checkpoint_every=None, compact_every=None)
        vids = server.register_round(
            [VolunteerProfile(f"v{i}") for i in range(9)]
        )
        server.checkpoint_all()  # first delta over the construction base
        for _ in range(2):
            drive(server, vids, rounds=2)
            server.checkpoint_all()
        for shard in range(SHARDS):
            store = server._stores[shard]
            assert store.segment_count == 3
            assert canonical(store.latest().state) == canonical(
                server.engines[shard].snapshot_state()
            )

    def test_compaction_rewrites_the_base(self):
        server = make_server(checkpoint_every=None, compact_every=2)
        vids = server.register_round(
            [VolunteerProfile(f"v{i}") for i in range(6)]
        )
        events = []
        server.bus.subscribe(events.append)
        for _ in range(4):
            drive(server, vids, rounds=1)
            server.checkpoint_shard(0)
        kinds = [
            e.incremental for e in events if isinstance(e, CheckpointTaken)
        ]
        # Two deltas over the construction-time base, then the log hits
        # compact_every and the next checkpoint rewrites a full base.
        assert kinds == [True, True, False, True]
        assert server._stores[0].segment_count == 1

    def test_incremental_is_smaller_than_full(self):
        server = make_server(checkpoint_every=None, compact_every=None)
        vids = server.register_round(
            [VolunteerProfile(f"v{i}") for i in range(9)]
        )
        drive(server, vids, rounds=4)
        server.checkpoint_shard(0, full=True)  # rebase on real history
        drive(server, vids, rounds=1)
        server.checkpoint_shard(0)
        store = server._stores[0]
        assert store.segment_count == 1
        assert store.segment_bytes[0] < store.base_bytes

    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_epoch_delta_is_at_most_a_tenth(self, shards):
        """At 32 volunteers and 240 ticks of history, one epoch of delta
        persists <= 10% of a fresh full base: long-lived per-shard task
        history dwarfs the fixed serialization floor, so the fraction
        measures the protocol, not the floor."""
        server = ShardedWBCServer(
            TSharp(),
            shards=shards,
            verification_rate=0.2,
            seed=2002,
            lease_ticks=8,
            compact_every=None,
        )
        vids = server.register_round(
            [
                VolunteerProfile(f"v{i}", speed=1.0 + (i % 5) * 0.4)
                for i in range(32)
            ]
        )
        drive(server, vids, rounds=240)
        for shard in range(shards):
            server.checkpoint_shard(shard, full=True)
        drive(server, vids, rounds=1)
        server.checkpoint_shard(0)
        store = server._stores[0]
        delta, base = store.segment_bytes[-1], store.base_bytes
        assert 0 < delta <= 0.10 * base, f"{delta} of {base} bytes"

    @pytest.mark.parametrize("workers", [None, 2])
    def test_post_restore_delta_ships_only_changed_rows(self, workers):
        """Restored rows are already in the log, so the first delta after
        a bounce that follows a compaction carries exactly the task rows
        changed since the cut -- the replayed ones and the new ones --
        not the shard's whole task table."""
        server = make_server(
            workers=workers, checkpoint_every=None, compact_every=None
        )
        try:
            vids = server.register_round(
                [VolunteerProfile(f"v{i}") for i in range(9)]
            )
            drive(server, vids, rounds=4)
            mine = [vid for vid in vids if server.shard_of(vid) == 1]
            server.tick()
            held = server.request_task(mine[0])  # returned only after the cut
            server.checkpoint_shard(1, full=True)
            changed = {held.index}
            server.submit_result(mine[0], held.index, held.expected_result)
            for vid in mine[1:]:  # journaled, replayed by the restore
                changed.add(server.request_task(vid).index)
            server.crash_shard(1)
            server.restore_shard(1)
            for _ in range(2):  # new work after the restore
                server.tick()
                for vid in mine:
                    task = server.request_task(vid)
                    server.submit_result(vid, task.index, task.expected_result)
                    changed.add(task.index)
            server.checkpoint_shard(1)
            delta = server._stores[1].segments()[-1]
            assert {row[0] for row in delta["ledger"]["tasks"]} == changed
            assert delta["tasks_issued"] > 2 * len(changed)
            assert delta["profiles"] == {}
        finally:
            server.close()
