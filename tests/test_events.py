"""Tests for the structured event layer (repro.webcompute.events)."""

from __future__ import annotations

import pytest

from repro.apf.families import TSharp
from repro.errors import ConfigurationError
from repro.webcompute.engine import WBCServer
from repro.webcompute.events import (
    EventBus,
    EventCounters,
    EventLog,
    ResultReturned,
    RowRecycled,
    RowSeated,
    TaskIssued,
    VolunteerBanned,
    VolunteerDeparted,
    VolunteerRegistered,
)
from repro.webcompute.volunteer import Behavior, VolunteerProfile


class TestEventBus:
    def test_publish_reaches_subscribers_in_order(self):
        bus = EventBus()
        seen: list[str] = []
        bus.subscribe(lambda e: seen.append("first"))
        bus.subscribe(lambda e: seen.append("second"))
        bus.publish(RowRecycled(tick=0, row=1, resume_serial=5))
        assert seen == ["first", "second"]

    def test_type_filtered_subscription(self):
        bus = EventBus()
        bans: list[VolunteerBanned] = []
        bus.subscribe(bans.append, [VolunteerBanned])
        bus.publish(RowRecycled(tick=0, row=1, resume_serial=5))
        bus.publish(VolunteerBanned(tick=2, volunteer_id=7, strikes=2))
        assert len(bans) == 1
        assert bans[0].volunteer_id == 7

    def test_unsubscribe(self):
        bus = EventBus()
        seen: list[object] = []
        unsubscribe = bus.subscribe(seen.append)
        bus.publish(RowRecycled(tick=0, row=1, resume_serial=1))
        unsubscribe()
        bus.publish(RowRecycled(tick=1, row=2, resume_serial=1))
        assert len(seen) == 1
        assert bus.subscriber_count == 0
        unsubscribe()  # idempotent

    def test_clock_source(self):
        bus = EventBus()
        assert bus.now() == 0  # no clock yet
        bus.set_clock(lambda: 42)
        assert bus.now() == 42

    def test_join_shares_the_target_subscribers(self):
        local = EventBus(shard=3)
        global_bus = EventBus()
        early = EventLog.attach(global_bus)
        local.join(global_bus)
        late = EventLog.attach(global_bus)
        event = VolunteerBanned(tick=1, volunteer_id=5, strikes=2, shard=local.shard)
        local.publish(event)
        # One publish reached subscribers made before and after the join,
        # and delivered the event itself, shard already stamped.
        assert early.events == [event] and late.events == [event]
        assert early.events[0] is event and event.shard == 3
        assert local.subscriber_count == global_bus.subscriber_count == 2

    def test_join_refuses_a_bus_with_subscribers(self):
        local = EventBus()
        local.subscribe(lambda e: None)
        with pytest.raises(ConfigurationError):
            local.join(EventBus())


class TestEventCounters:
    def test_counts_and_tick_span(self):
        bus = EventBus()
        counters = EventCounters.attach(bus)
        for tick in (2, 4, 6):
            bus.publish(TaskIssued(tick=tick, volunteer_id=1, task_index=tick, row=1, serial=tick))
        assert counters.count(TaskIssued) == 3
        assert counters.tick_span(TaskIssued) == (2, 6)
        assert counters.per_tick_rate(TaskIssued) == 3 / 5
        assert counters.count(VolunteerBanned) == 0
        assert counters.tick_span(VolunteerBanned) is None
        assert counters.per_tick_rate(VolunteerBanned) == 0.0
        assert counters.total == 3

    def test_summary_is_json_able(self):
        bus = EventBus()
        counters = EventCounters.attach(bus)
        bus.publish(RowSeated(tick=1, row=1, volunteer_id=1, start_serial=1, recycled=False))
        summary = counters.summary()
        assert summary == {
            "RowSeated": {
                "count": 1,
                "first_tick": 1,
                "last_tick": 1,
                "per_tick_rate": 1.0,
            }
        }


class TestEventLog:
    def test_bounded_capture(self):
        bus = EventBus()
        log = EventLog.attach(bus, maxlen=2)
        for tick in (1, 2, 3):
            bus.publish(RowRecycled(tick=tick, row=tick, resume_serial=1))
        assert [e.tick for e in log.events] == [2, 3]

    def test_of_type(self):
        bus = EventBus()
        log = EventLog.attach(bus)
        bus.publish(RowRecycled(tick=1, row=1, resume_serial=1))
        bus.publish(VolunteerBanned(tick=2, volunteer_id=1, strikes=2))
        assert len(log.of_type(VolunteerBanned)) == 1
        assert len(log.of_type(RowRecycled)) == 1


class TestServerEventStream:
    """The full lifecycle, observed purely through the bus."""

    def test_lifecycle_events(self):
        server = WBCServer(TSharp(), verification_rate=1.0, ban_after_strikes=1)
        log = EventLog.attach(server.bus)
        counters = EventCounters.attach(server.bus)

        vid = server.register(VolunteerProfile("alice", speed=2.0))
        server.tick()
        task = server.request_task(vid)
        server.submit_result(vid, task.index, task.expected_result)
        server.depart(vid)

        assert counters.count(VolunteerRegistered) == 1
        assert counters.count(RowSeated) == 1
        assert counters.count(TaskIssued) == 1
        assert counters.count(ResultReturned) == 1
        assert counters.count(VolunteerDeparted) == 1
        assert counters.count(RowRecycled) == 1
        assert counters.count(VolunteerBanned) == 0

        registered = log.of_type(VolunteerRegistered)[0]
        issued = log.of_type(TaskIssued)[0]
        assert registered.volunteer_id == vid
        assert issued.row == registered.row
        assert issued.tick == 1  # stamped with the engine clock
        returned = log.of_type(ResultReturned)[0]
        assert returned.bad is False and returned.verified is True
        departed = log.of_type(VolunteerDeparted)[0]
        assert departed.banned is False
        assert departed.resume_serial == 2  # one task issued on serial 1

    def test_ban_event_carries_strikes(self):
        server = WBCServer(TSharp(), verification_rate=1.0, ban_after_strikes=2)
        bans: list[VolunteerBanned] = []
        server.bus.subscribe(bans.append, [VolunteerBanned])
        vid = server.register(
            VolunteerProfile("mallory", behavior=Behavior.MALICIOUS, error_rate=1.0)
        )
        for _ in range(2):
            server.tick()
            task = server.request_task(vid)
            server.submit_result(vid, task.index, task.expected_result ^ 1)
        assert len(bans) == 1
        assert bans[0].volunteer_id == vid
        assert bans[0].strikes == 2
        assert bans[0].tick == server.clock

    def test_recycled_flag_on_reseated_row(self):
        server = WBCServer(TSharp())
        seats: list[RowSeated] = []
        server.bus.subscribe(seats.append, [RowSeated])
        first = server.register(VolunteerProfile("a"))
        server.depart(first)
        server.register(VolunteerProfile("b"))
        assert [s.recycled for s in seats] == [False, True]
        assert seats[0].row == seats[1].row
