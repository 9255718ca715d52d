"""Tests for the assembled WBC server."""

from __future__ import annotations

import pytest

from repro.apf.families import TSharp, TStar
from repro.errors import AllocationError
from repro.webcompute.engine import WBCServer
from repro.webcompute.task import correct_result
from repro.webcompute.volunteer import Behavior, VolunteerProfile


def honest(name: str, speed: float = 1.0) -> VolunteerProfile:
    return VolunteerProfile(name, speed=speed)


class TestRegistration:
    def test_register_returns_increasing_ids(self):
        server = WBCServer(TSharp())
        a = server.register(honest("a"))
        b = server.register(honest("b"))
        assert b == a + 1

    def test_round_seating_by_speed(self):
        server = WBCServer(TSharp())
        slow, fast = server.register_round([honest("slow", 0.5), honest("fast", 5.0)])
        assert server.frontend.row_of(fast) == 1
        assert server.frontend.row_of(slow) == 2

    def test_faster_volunteer_gets_denser_tasks(self):
        # Smaller row -> smaller stride for every compact APF.
        server = WBCServer(TStar())
        slow, fast = server.register_round([honest("s", 0.5), honest("f", 5.0)])
        fast_stride = server.allocator.contract(server.frontend.row_of(fast)).stride
        slow_stride = server.allocator.contract(server.frontend.row_of(slow)).stride
        assert fast_stride <= slow_stride


class TestTaskCycle:
    def test_request_submit_cycle(self):
        server = WBCServer(TSharp())
        vid = server.register(honest("a"))
        t1 = server.request_task(vid)
        t2_expected = server.allocator.peek_task(server.frontend.row_of(vid), 2)
        server.submit_result(vid, t1.index, t1.expected_result)
        t2 = server.request_task(vid)
        assert t2.index == t2_expected

    def test_task_indices_follow_apf(self):
        server = WBCServer(TSharp())
        vid = server.register(honest("a"))
        row = server.frontend.row_of(vid)
        sharp = TSharp()
        for t in range(1, 6):
            task = server.request_task(vid)
            assert task.index == sharp.pair(row, t)
            server.submit_result(vid, task.index, task.expected_result)

    def test_max_task_index_tracked(self):
        server = WBCServer(TSharp())
        vid = server.register(honest("a"))
        task = server.request_task(vid)
        assert server.max_task_index == task.index

    def test_unknown_volunteer_rejected(self):
        with pytest.raises(AllocationError):
            WBCServer(TSharp()).request_task(99)


class TestAccountability:
    def test_attribute_names_the_computer(self):
        server = WBCServer(TSharp())
        a = server.register(honest("a"))
        b = server.register(honest("b"))
        ta = server.request_task(a)
        tb = server.request_task(b)
        assert server.attribute(ta.index) == a
        assert server.attribute(tb.index) == b

    def test_forged_submission_rejected(self):
        server = WBCServer(TSharp())
        a = server.register(honest("a"))
        b = server.register(honest("b"))
        ta = server.request_task(a)
        with pytest.raises(AllocationError):
            server.submit_result(b, ta.index, 0)  # b claims a's task

    def test_banned_volunteer_refused_tasks(self):
        server = WBCServer(TSharp(), verification_rate=1.0, ban_after_strikes=1)
        vid = server.register(
            VolunteerProfile("evil", behavior=Behavior.MALICIOUS, error_rate=1.0)
        )
        task = server.request_task(vid)
        server.submit_result(vid, task.index, task.expected_result ^ 1)
        assert server.ledger.is_banned(vid)
        with pytest.raises(AllocationError):
            server.request_task(vid)

    def test_attribution_survives_departure_and_reseat(self):
        server = WBCServer(TSharp())
        first = server.register(honest("first"))
        t = server.request_task(first)
        server.submit_result(first, t.index, t.expected_result)
        server.depart(first)
        second = server.register(honest("second"))
        # Same row, new tenant; old task still attributes to `first`.
        assert server.frontend.row_of(second) == 1
        assert server.attribute(t.index) == first
        t2 = server.request_task(second)
        assert server.attribute(t2.index) == second
        assert t2.index != t.index  # serial resumed, no double issue


class TestDeparture:
    def test_departed_row_recycled(self):
        server = WBCServer(TSharp())
        a = server.register(honest("a"))
        server.depart(a)
        b = server.register(honest("b"))
        assert server.frontend.row_of(b) == 1

    def test_depart_releases_contract(self):
        server = WBCServer(TSharp())
        a = server.register(honest("a"))
        row = server.frontend.row_of(a)
        server.depart(a)
        assert not server.allocator.is_registered(row)

    def test_depart_unknown_volunteer_raises_allocation_error(self):
        # Never-registered id: a typed error, never an internal KeyError.
        server = WBCServer(TSharp())
        with pytest.raises(AllocationError, match="unknown volunteer 42"):
            server.depart(42)

    def test_depart_twice_raises_allocation_error(self):
        server = WBCServer(TSharp())
        a = server.register(honest("a"))
        server.depart(a)
        with pytest.raises(AllocationError, match="not seated"):
            server.depart(a)

    def test_successor_resumes_at_first_unissued_serial(self):
        server = WBCServer(TSharp())
        first = server.register(honest("first"))
        row = server.frontend.row_of(first)
        for _ in range(3):
            server.request_task(first)  # serials 1..3 issued
        server.depart(first)
        second = server.register(honest("second"))
        assert server.frontend.row_of(second) == row
        assert server.allocator.contract(row).next_serial == 4
        t = server.request_task(second)
        assert t.serial == 4

    def test_attribution_across_three_epochs(self):
        server = WBCServer(TSharp())
        tasks = {}
        for name in ("a", "b", "c"):
            vid = server.register(honest(name))
            assert server.frontend.row_of(vid) == 1  # same recycled row
            tasks[vid] = server.request_task(vid)
            server.depart(vid)
        # Each of the three tenures on row 1 attributes to its own tenant.
        for vid, task in tasks.items():
            assert server.attribute(task.index) == vid

    def test_recycled_row_never_double_issues(self):
        server = WBCServer(TSharp())
        issued = set()
        for name in ("a", "b", "c"):
            vid = server.register(honest(name))
            for _ in range(2):
                task = server.request_task(vid)
                assert task.index not in issued
                issued.add(task.index)
            server.depart(vid)


class TestClock:
    def test_tick_advances(self):
        server = WBCServer(TSharp())
        assert server.clock == 0
        server.tick()
        server.tick()
        assert server.clock == 2

    def test_issue_timestamps(self):
        server = WBCServer(TSharp())
        vid = server.register(honest("a"))
        server.tick()
        server.tick()
        task = server.request_task(vid)
        assert task.issued_at == 2
