"""Tests for the sharded WBC server (repro.webcompute.sharding).

The load-bearing property: global attribution is the composition of exact
inverses -- ``unpair`` then the shard's APF inverse then the epoch table --
so it round-trips at *any* magnitude, including global indices far beyond
2**53 where float arithmetic would corrupt every step.
"""

from __future__ import annotations

import json

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apf.families import TSharp, TStar
from repro.core.squareshell import SquareShellPairing
from repro.errors import AllocationError, ConfigurationError, ReproError, ShardDownError
from repro.webcompute.codecs import DEFAULT_CODEC
from repro.webcompute.events import (
    EventBus,
    EventCounters,
    EventLog,
    TaskIssued,
    VolunteerRegistered,
)
from repro.webcompute.recovery import JOURNAL_BATCH
from repro.webcompute.sharding import ShardedWBCServer
from repro.webcompute.volunteer import VolunteerProfile


def make_server(shards: int = 4, **kwargs) -> ShardedWBCServer:
    return ShardedWBCServer(TSharp(), shards=shards, **kwargs)


class TestConstruction:
    def test_rejects_bad_shard_counts(self):
        for bad in (0, -1, True, 1.5, "2"):
            with pytest.raises(ConfigurationError):
                ShardedWBCServer(TSharp(), shards=bad)

    def test_single_shard_is_valid(self):
        server = make_server(shards=1)
        vid = server.register(VolunteerProfile("solo"))
        task = server.request_task(vid)
        assert server.attribute(task.index) == vid

    def test_default_composer_is_congruence(self):
        assert make_server().composer.name == DEFAULT_CODEC == "congruence"
        square = make_server(codec="square-shell")
        assert square.composer.name == SquareShellPairing().name


class TestRouting:
    def test_round_robin_assignment(self):
        server = make_server(shards=4)
        ids = server.register_round(
            [VolunteerProfile(f"v{i}") for i in range(8)]
        )
        assert [server.shard_of(v) for v in ids] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_round_robin_is_deterministic_across_servers(self):
        a, b = make_server(), make_server()
        ids_a = a.register_round([VolunteerProfile(f"v{i}") for i in range(10)])
        ids_b = b.register_round([VolunteerProfile(f"v{i}") for i in range(10)])
        assert ids_a == ids_b
        assert [a.shard_of(v) for v in ids_a] == [b.shard_of(v) for v in ids_b]

    def test_unknown_volunteer_rejected(self):
        server = make_server()
        with pytest.raises(AllocationError):
            server.shard_of(99)
        with pytest.raises(AllocationError):
            server.request_task(99)
        assert server.is_banned(99) is False

    def test_policy_slot_maps_to_live_shard(self):
        """Round-robin picks a slot among the *routable* shards and maps
        it back to an absolute shard: with shard 2 down, registrations
        land only on shards 0 and 1, and once shard 2 is restored it
        takes registrations again."""
        server = make_server(shards=3)
        server.crash_shard(2)
        ids = server.register_round(
            [VolunteerProfile(f"v{i}") for i in range(6)]
        )
        assert {server.shard_of(v) for v in ids} == {0, 1}
        server.restore_shard(2)
        ids = server.register_round(
            [VolunteerProfile(f"w{i}") for i in range(6)]
        )
        assert {server.shard_of(v) for v in ids} == {0, 1, 2}

    def test_queries_on_down_shard_raise_shard_down(self):
        """Regression: ``is_banned`` / ``profile_of`` for a volunteer on
        a crashed shard raise :class:`ShardDownError` (transient, retry
        after restore) -- not ``KeyError`` or a silent wrong answer."""
        server = make_server(shards=2)
        a, b = server.register_round(
            [VolunteerProfile("a"), VolunteerProfile("b")]
        )
        server.crash_shard(server.shard_of(a))
        with pytest.raises(ShardDownError):
            server.is_banned(a)
        with pytest.raises(ShardDownError):
            server.profile_of(a)
        # The other shard is untouched: queries there still answer.
        assert server.is_banned(b) is False
        assert server.profile_of(b).name == "b"


class TestGlobalIndexSpace:
    def test_task_indices_unique_across_shards(self):
        server = make_server(shards=4)
        ids = server.register_round([VolunteerProfile(f"v{i}") for i in range(8)])
        seen: set[int] = set()
        for _ in range(5):
            server.tick()
            for vid in ids:
                task = server.request_task(vid)
                assert task.index not in seen
                seen.add(task.index)
                assert server.attribute(task.index) == vid
                server.submit_result(vid, task.index, task.expected_result)

    def test_attribution_path_chain(self):
        server = make_server(shards=3)
        ids = server.register_round([VolunteerProfile(f"v{i}") for i in range(3)])
        for vid in ids:
            task = server.request_task(vid)
            path = server.attribution_path(task.index)
            assert path.global_index == task.index
            assert path.shard == server.shard_of(vid)
            assert path.volunteer_id == vid
            # The chain recomposes: composer then the shard's APF.
            engine = server.engine_of(vid)
            assert engine.apf.pair(path.row, path.serial) == path.local_index
            assert server.composer.pair(path.shard + 1, path.local_index) == task.index

    # The router decodes each index once and hands the shard engine the
    # local index; a worker engine decodes again.  Both must keep the
    # forgery checks.
    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "workers"])
    def test_cross_shard_forged_submission_rejected(self, workers):
        with make_server(shards=2, workers=workers) as server:
            a, b = server.register_round([VolunteerProfile("a"), VolunteerProfile("b")])
            assert server.shard_of(a) != server.shard_of(b)
            task_a = server.request_task(a)
            with pytest.raises(AllocationError):
                server.submit_result(b, task_a.index, task_a.expected_result)
            # The honest owner can still submit.
            server.submit_result(a, task_a.index, task_a.expected_result)

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "workers"])
    def test_index_outside_any_shard_rejected(self, workers):
        with make_server(shards=2, workers=workers, codec="square-shell") as server:
            server.register_round([VolunteerProfile("a"), VolunteerProfile("b")])
            # Shard row 5 of the composer exists geometrically, but only
            # shards 0..1 are configured.
            orphan = server.composer.pair(5, 1)
            with pytest.raises(AllocationError):
                server.attribute(orphan)
            for bad in (0, -3, True, "7"):
                with pytest.raises(AllocationError):
                    server.attribute(bad)

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "workers"])
    def test_congruence_routes_every_index_to_a_real_shard(self, workers):
        """The default codec is total: every positive index names one of
        the shards, so an index never issued gets past the router and is
        refused by the shard it names."""
        with make_server(shards=2, workers=workers) as server:
            ids = server.register_round([VolunteerProfile("a"), VolunteerProfile("b")])
            issued = {server.request_task(vid).index for vid in ids}
            for index in [*range(1, 65), 2**53 + 1, 2**64 + 1]:
                shard_no, _local = server.composer.unpair(index)
                assert 1 <= shard_no <= server.shard_count
                if index not in issued:
                    with pytest.raises(ReproError):
                        server.task(index)
            for bad in (0, -3, True, "7"):
                with pytest.raises(AllocationError):
                    server.attribute(bad)


class TestEventAggregation:
    def test_global_bus_sees_stamped_shard_ids(self):
        server = make_server(shards=3)
        counters = EventCounters.attach(server.bus)
        shards_seen: set[int] = set()
        server.bus.subscribe(lambda e: shards_seen.add(e.shard))
        ids = server.register_round([VolunteerProfile(f"v{i}") for i in range(6)])
        for vid in ids:
            server.request_task(vid)
        assert counters.count(VolunteerRegistered) == 6
        assert counters.count(TaskIssued) == 6
        assert shards_seen == {0, 1, 2}


class TestRouterTax:
    """What the router adds to each task, pinned by call counts (timings
    are too noisy to gate on): one composer ``unpair`` per global index
    it is handed, one ``publish`` per delivered event, and one
    ``json.dumps`` per :data:`~repro.webcompute.recovery.JOURNAL_BATCH`
    journaled ops."""

    SHARDS = 4
    ROUNDS = 50  # 3 volunteers a shard: 7 ops a round, 351 per journal

    def _server(self) -> tuple[ShardedWBCServer, list[int]]:
        server = ShardedWBCServer(TSharp(), shards=self.SHARDS, seed=7)
        ids = server.register_round(
            [VolunteerProfile(f"v{i}") for i in range(3 * self.SHARDS)]
        )
        return server, ids

    def _drive(self, server: ShardedWBCServer, ids: list[int]) -> int:
        """The request -> attribute -> submit loop; returns tasks done."""
        completed = 0
        for _ in range(self.ROUNDS):
            server.tick()
            for vid in ids:
                task = server.request_task(vid)
                assert server.attribute(task.index) == vid
                server.submit_result(vid, task.index, task.expected_result)
                completed += 1
        return completed

    def test_one_composer_pair_per_task(self, monkeypatch):
        """Counted on the composer's *class*, where a tracer wraps it: a
        shard codec that bound ``pair`` ahead of time, or inlined its
        arithmetic, would hide the encode from that wrapper."""
        server, ids = self._server()
        assert server.codec_name == DEFAULT_CODEC
        calls = []
        pair = type(server.composer).pair
        monkeypatch.setattr(
            type(server.composer),
            "pair",
            lambda composer, x, y: calls.append((x, y)) or pair(composer, x, y),
        )
        completed = self._drive(server, ids)
        assert completed == 600
        assert len(calls) == completed

    def test_two_composer_unpairs_per_task(self, monkeypatch):
        server, ids = self._server()
        calls = []
        unpair = server.composer.unpair
        monkeypatch.setattr(
            server.composer, "unpair", lambda z: calls.append(z) or unpair(z)
        )
        completed = self._drive(server, ids)
        assert len(calls) == 2 * completed

    def test_one_publish_per_delivered_event(self, monkeypatch):
        server, ids = self._server()
        delivered = EventLog.attach(server.bus)
        calls = []
        publish = EventBus.publish
        monkeypatch.setattr(
            EventBus, "publish", lambda bus, e: calls.append(e) or publish(bus, e)
        )
        self._drive(server, ids)
        server.checkpoint_all()  # router-built events count too
        assert len(delivered) > 0
        assert len(calls) == len(delivered)

    def test_one_dumps_per_journal_batch_plus_one_per_cut(self, monkeypatch):
        server, ids = self._server()
        batches = []
        dumps = json.dumps

        def counting_dumps(obj, *args, **kwargs):
            if isinstance(obj, (list, tuple)):  # ops, not a checkpoint's state
                batches.append(len(obj))
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        self._drive(server, ids)
        journaled = [store.pending_ops for store in server._stores]
        assert min(journaled) > JOURNAL_BATCH
        assert len(batches) <= sum(n // JOURNAL_BATCH for n in journaled)
        server.checkpoint_all()
        assert len(batches) <= sum(n // JOURNAL_BATCH + 1 for n in journaled)


class TestAggregateViews:
    def test_report_sums_across_shards(self):
        server = make_server(shards=2, verification_rate=1.0)
        ids = server.register_round([VolunteerProfile("a"), VolunteerProfile("b")])
        for vid in ids:
            server.tick()
            task = server.request_task(vid)
            server.submit_result(vid, task.index, task.expected_result)
        report = server.report()
        assert report.tasks_issued == 2
        assert report.tasks_returned == 2
        assert report.tasks_verified == 2
        assert report.bad_results_returned == 0

    def test_lockstep_clock(self):
        server = make_server(shards=3)
        for _ in range(5):
            server.tick()
        assert server.clock == 5
        assert all(engine.clock == 5 for engine in server.engines)


# ---------------------------------------------------------------------------
# The bignum round-trip property.
#
# Rows stay seated with *open* epochs (no departure closes them), so any
# serial >= the epoch's start attributes to the current tenant -- including
# astronomically large serials never actually issued.  That lets the
# property drive the full inverse chain
#     global -> (shard, local) -> (row, serial) -> volunteer
# at magnitudes where every arithmetic step must be integer-exact.
# ---------------------------------------------------------------------------

APFS = [TSharp(), TStar()]


@settings(max_examples=60)
@given(
    shards=st.integers(1, 5),
    volunteers=st.integers(1, 8),
    departures=st.integers(0, 3),
    pick=st.integers(0, 10**6),
    serial=st.integers(2**53, 2**90),
    apf_idx=st.integers(0, len(APFS) - 1),
)
def test_sharded_attribution_roundtrip_beyond_2_53(
    shards, volunteers, departures, pick, serial, apf_idx
):
    server = ShardedWBCServer(APFS[apf_idx], shards=shards, seed=7)
    ids = list(
        server.register_round([VolunteerProfile(f"v{i}") for i in range(volunteers)])
    )
    # Churn: some volunteers leave and are replaced, exercising epoch
    # transitions (recycled rows, resumed serials) under the codec.
    for d in range(min(departures, len(ids) - 1)):
        victim = ids[d % len(ids)]
        server.depart(victim)
        ids.remove(victim)
        replacement = server.register(VolunteerProfile(f"r{d}"))
        ids.append(replacement)

    vid = ids[pick % len(ids)]
    shard = server.shard_of(vid)
    engine = server.engine_of(vid)
    row = engine.frontend.row_of(vid)

    # Forward-compose a task index this volunteer *would* eventually be
    # issued: its open epoch covers every serial from its start onward.
    local = engine.apf.pair(row, serial)
    global_index = server.composer.pair(shard + 1, local)
    assert global_index > 2**53  # the regime floats cannot survive

    path = server.attribution_path(global_index)
    assert path.shard == shard
    assert path.local_index == local
    assert path.row == row
    assert path.serial == serial
    assert path.volunteer_id == vid
    assert server.attribute(global_index) == vid


@settings(max_examples=30)
@given(serial=st.integers(2**53, 2**70))
def test_epoch_succession_at_bignum_scale(serial):
    """After a departure, the recycled row's *successor* owns the huge
    never-issued serials -- the open epoch moved tenants."""
    server = ShardedWBCServer(TSharp(), shards=2, seed=1)
    first, other = server.register_round(
        [VolunteerProfile("first"), VolunteerProfile("other")]
    )
    shard = server.shard_of(first)
    engine = server.engine_of(first)
    row = engine.frontend.row_of(first)
    server.depart(first)
    successor = server.register(VolunteerProfile("successor"))
    assert server.shard_of(successor) == shard  # round-robin wraps back
    assert engine.frontend.row_of(successor) == row  # recycled row

    local = engine.apf.pair(row, serial)
    global_index = server.composer.pair(shard + 1, local)
    assert server.attribute(global_index) == successor
