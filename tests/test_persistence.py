"""Tests for WBC server snapshot/restore."""

from __future__ import annotations

import json

import pytest

from repro.apf.constructor import ConstructedAPF
from repro.apf.families import LinearCopyIndex, TSharp, TStar
from repro.errors import ConfigurationError
from repro.webcompute.engine import AllocationEngine, WBCServer
from repro.webcompute.persistence import dumps, loads, restore, snapshot
from repro.webcompute.recovery import CheckpointStore
from repro.webcompute.volunteer import Behavior, VolunteerProfile


def busy_server() -> WBCServer:
    """A server with history: registrations, work, a ban, a departure."""
    server = WBCServer(TSharp(), verification_rate=1.0, ban_after_strikes=2, seed=5)
    good, bad, gone = server.register_round(
        [
            VolunteerProfile("good", speed=2.0),
            VolunteerProfile("bad", speed=1.0, behavior=Behavior.MALICIOUS, error_rate=1.0),
            VolunteerProfile("gone", speed=0.7),
        ]
    )
    server.tick()
    for _ in range(3):
        t = server.request_task(good)
        server.submit_result(good, t.index, t.expected_result)
    for _ in range(2):
        t = server.request_task(bad)
        server.submit_result(bad, t.index, t.expected_result ^ 1)
    t = server.request_task(gone)
    server.submit_result(gone, t.index, t.expected_result)
    server.depart(gone)
    server.tick()
    return server


class TestRoundTrip:
    def test_json_roundtrip_is_stable(self):
        server = busy_server()
        text = dumps(server)
        assert dumps(loads(text)) == text

    def test_report_preserved(self):
        server = busy_server()
        restored = loads(dumps(server))
        assert restored.report() == server.report()
        assert restored.clock == server.clock
        assert restored.max_task_index == server.max_task_index

    def test_ban_status_preserved(self):
        server = busy_server()
        restored = loads(dumps(server))
        for vid in (1, 2, 3):
            assert restored.ledger.is_banned(vid) == server.ledger.is_banned(vid)

    def test_attribution_preserved_including_departed(self):
        server = busy_server()
        restored = loads(dumps(server))
        for task in server.ledger.tasks():
            assert restored.attribute(task.index) == server.attribute(task.index)

    def test_next_task_continues_where_left_off(self):
        server = busy_server()
        restored = loads(dumps(server))
        original_next = server.request_task(1).index
        restored_next = restored.request_task(1).index
        assert restored_next == original_next

    def test_new_registration_after_restore_recycles_rows(self):
        server = busy_server()
        restored = loads(dumps(server))
        vid = restored.register(VolunteerProfile("newcomer"))
        # The departed volunteer's row (3) is recycled, serials resumed.
        assert restored.frontend.row_of(vid) == 3
        task = restored.request_task(vid)
        # 'gone' consumed exactly one serial; the newcomer resumes at 2.
        assert task.serial == 2

    def test_verification_rng_continuity(self):
        # The ledger's sampling RNG state survives: the restored server
        # makes the same verify/skip decisions as the original would.
        server = busy_server()
        restored = loads(dumps(server))
        for s in (server, restored):
            t = s.request_task(1)
            s.submit_result(1, t.index, t.expected_result)
        assert server.report() == restored.report()


class TestValidation:
    def test_rejects_unknown_version(self):
        server = busy_server()
        data = snapshot(server)
        data["version"] = 99
        with pytest.raises(ConfigurationError):
            restore(data)

    def test_rejects_unregistered_apf(self):
        server = WBCServer(ConstructedAPF(LinearCopyIndex()))
        with pytest.raises(ConfigurationError):
            snapshot(server)

    def test_star_apf_roundtrips(self):
        server = WBCServer(TStar())
        vid = server.register(VolunteerProfile("a"))
        t = server.request_task(vid)
        restored = loads(dumps(server))
        assert restored.allocator.apf.name == "apf-star"
        assert restored.attribute(t.index) == vid

    def test_engine_rejects_state_of_another_apf(self):
        state = snapshot(busy_server())
        engine = AllocationEngine(TStar())
        with pytest.raises(ConfigurationError, match="apf-sharp"):
            engine.restore_state(state)
        assert engine.clock == 0 and engine.seated_count == 0

    @pytest.mark.parametrize("key", ["contracts", "frontend", "ledger", "rng_state"])
    def test_engine_rejects_state_missing_a_key(self, key):
        state = snapshot(busy_server())
        del state[key]
        engine = AllocationEngine(TSharp())
        with pytest.raises(ConfigurationError, match=key):
            engine.restore_state(state)
        assert engine.clock == 0 and engine.seated_count == 0

class TestEnvelopeV2:
    """The envelope-drift pins.  A wrapper around the engine state could
    drop a key the engine later learns to persist; the stored format is
    the engine state itself, byte-for-byte what a shard checkpoint
    stores, so there is no wrapper left to drift."""

    def test_envelope_carries_every_engine_key(self):
        server = busy_server()
        assert set(json.loads(dumps(server))) == set(server.snapshot_state())

    def test_envelope_engine_state_verbatim(self):
        server = busy_server()
        store = CheckpointStore()
        store.checkpoint(server)
        text = dumps(server)
        assert store.base_state() == json.loads(text)
        assert store.base_bytes == len(text)
