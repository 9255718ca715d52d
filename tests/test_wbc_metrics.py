"""Tests for accountability forensics (repro.webcompute.metrics)."""

from __future__ import annotations

import pytest

from repro.apf.families import TSharp
from repro.errors import DomainError
from repro.webcompute.engine import WBCServer
from repro.webcompute.metrics import compute_metrics, volunteer_forensics
from repro.webcompute.simulation import SimulationConfig, WBCSimulation
from repro.webcompute.volunteer import Behavior, VolunteerProfile


def scripted_server():
    """Deterministic history: one honest, one offender caught on the
    second bad return."""
    server = WBCServer(TSharp(), verification_rate=1.0, ban_after_strikes=2)
    good = server.register(VolunteerProfile("good"))
    bad = server.register(
        VolunteerProfile("bad", behavior=Behavior.MALICIOUS, error_rate=1.0)
    )
    server.tick()  # t=1
    t = server.request_task(good)
    server.submit_result(good, t.index, t.expected_result)
    t = server.request_task(bad)
    server.submit_result(bad, t.index, t.expected_result ^ 1)  # first bad @1
    server.tick()  # t=2
    t = server.request_task(bad)
    server.tick()  # t=3
    server.submit_result(bad, t.index, t.expected_result ^ 1)  # ban @3
    return server, good, bad


class TestVolunteerForensics:
    def test_offender_timeline(self):
        server, _good, bad = scripted_server()
        f = volunteer_forensics(server, bad)
        assert f.bad_returns == 2
        assert f.first_bad_tick == 1
        assert f.banned_at == 3
        assert f.detection_latency == 2
        assert f.tasks_after_first_bad == 1  # the second task, issued @2

    def test_honest_timeline(self):
        server, good, _bad = scripted_server()
        f = volunteer_forensics(server, good)
        assert f.bad_returns == 0
        assert f.first_bad_tick is None
        assert f.banned_at is None
        assert f.detection_latency is None

    def test_unknown_volunteer_rejected(self):
        server, _good, _bad = scripted_server()
        with pytest.raises(DomainError):
            volunteer_forensics(server, 99)


class TestTimelineSemantics:
    """``bad_returns`` counts every bad return; the timeline quantities
    use only tick-stamped ones.  An un-ticked bad return (possible only in
    externally reconstructed ledger state) is pollution, not timeline."""

    def test_unticked_bad_return_is_pollution_but_not_first_bad(self):
        server, _good, bad = scripted_server()
        state = server.ledger.snapshot_state()
        # Reconstructed-state scenario: the first bad return (tick 1)
        # lost its return tick.  Task rows are the compact 11-tuples:
        # [index, volunteer_id, serial, issued_at, status, returned_at, ...].
        for t in state["tasks"]:
            if t[1] == bad and t[5] == 1:
                t[5] = None
        server.ledger.restore_state(state)
        f = volunteer_forensics(server, bad)
        assert f.bad_returns == 2  # both bad returns still count as pollution
        assert f.first_bad_tick == 3  # timeline starts at the stamped one
        assert f.tasks_after_first_bad == 0  # nothing issued after tick 3
        assert f.detection_latency == 0  # banned the same tick

    def test_all_unticked_bad_returns_leave_timeline_empty(self):
        server, _good, bad = scripted_server()
        state = server.ledger.snapshot_state()
        for t in state["tasks"]:
            if t[1] == bad:
                t[5] = None
        server.ledger.restore_state(state)
        f = volunteer_forensics(server, bad)
        assert f.bad_returns == 2
        assert f.first_bad_tick is None
        assert f.tasks_after_first_bad == 0
        assert f.detection_latency is None  # no timeline, no latency


class TestAggregateMetrics:
    def test_scripted_aggregate(self):
        server, _good, _bad = scripted_server()
        m = compute_metrics(server)
        assert m.offenders == 1
        assert m.offenders_banned == 1
        assert m.ban_coverage == 1.0
        assert m.mean_detection_latency == 2.0
        assert m.total_pollution == 2
        assert m.total_exposure == 1

    def test_no_offenders_is_full_coverage(self):
        server = WBCServer(TSharp())
        vid = server.register(VolunteerProfile("a"))
        t = server.request_task(vid)
        server.submit_result(vid, t.index, t.expected_result)
        m = compute_metrics(server)
        assert m.offenders == 0
        assert m.ban_coverage == 1.0

    def test_simulation_metrics_consistency(self):
        config = SimulationConfig(
            ticks=250,
            initial_volunteers=20,
            malicious_fraction=0.25,
            careless_fraction=0.0,
            verification_rate=1.0,
            ban_after_strikes=2,
            seed=13,
            departure_rate=0.0,
            arrival_rate=0.0,
        )
        sim = WBCSimulation(TSharp(), config)
        outcome = sim.run()
        m = compute_metrics(sim.server)
        assert m.total_pollution == outcome.bad_results_returned
        assert m.offenders_banned == outcome.faulty_banned
        # Full verification + persistent (100%-error) offenders: everyone
        # caught, quickly.
        assert m.ban_coverage == 1.0
        assert m.mean_detection_latency is not None
        assert m.mean_detection_latency < 20

    def test_sharded_server_metrics_aggregate_across_shards(self):
        config = SimulationConfig(
            ticks=120,
            initial_volunteers=16,
            malicious_fraction=0.25,
            careless_fraction=0.0,
            verification_rate=1.0,
            ban_after_strikes=2,
            seed=13,
            departure_rate=0.0,
            arrival_rate=0.0,
            shards=4,
        )
        sim = WBCSimulation(TSharp(), config)
        outcome = sim.run()
        m = compute_metrics(sim.server)
        assert m.total_pollution == outcome.bad_results_returned
        assert m.offenders_banned == outcome.faulty_banned
        assert m.ban_coverage == 1.0
        # Forensics resolve through the right shard's ledger.
        for vid in (1, 2, 3):
            f = volunteer_forensics(sim.server, vid)
            assert f.volunteer_id == vid
