"""Property tests for task leases and reissue (the accountability side).

The lease mechanism must never weaken Section 4's central claim: the
task *index* is minted once, so ``T^-1`` attribution of any serial names
the ORIGINAL assignee forever -- a reissue only adds a second accountable
party (the target, charged for the return it actually makes).  These
tests drive :class:`~repro.webcompute.engine.AllocationEngine` with
Hypothesis-chosen lease lengths, population sizes, and expiry gaps and
check:

* reissue never changes ``attribute(index)``;
* a late return by the original assignee is recorded as late and charged
  to the original, never the target;
* the target's return is charged to the target while attribution still
  names the original;
* third-party returns are forgeries and rejected;
* the ledger's reissue validation (unknown task, wrong status);
* the reaper's cost, as a count: it visits the outstanding tasks only.
"""

from __future__ import annotations

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apf.families import TSharp
from repro.errors import AllocationError, DomainError
from repro.webcompute.engine import AllocationEngine
from repro.webcompute.events import EventLog, TaskReissued
from repro.webcompute.simulation import SimulationConfig, WBCSimulation
from repro.webcompute.task import Task, TaskStatus
from repro.webcompute.volunteer import VolunteerProfile


def make_engine(lease_ticks, volunteers=2, seed=11):
    """An engine with *volunteers* seated honest volunteers; returns
    (engine, vids).  verification_rate=1.0 so every return is audited."""
    engine = AllocationEngine(
        TSharp(),
        verification_rate=1.0,
        ban_after_strikes=2,
        seed=seed,
        lease_ticks=lease_ticks,
    )
    vids = engine.register_round(
        [VolunteerProfile(f"v{i}", speed=1.0 + i * 0.1) for i in range(volunteers)]
    )
    return engine, vids


def expire_lease(engine, ticks):
    """Advance the clock past a just-issued lease of length *ticks*."""
    for _ in range(ticks + 1):
        engine.tick()


class TestLeaseStamping:
    def test_lease_ticks_validation(self):
        from repro.errors import ConfigurationError

        for bad in (0, -3, True, 1.5, "4"):
            with pytest.raises(ConfigurationError):
                AllocationEngine(TSharp(), lease_ticks=bad)

    def test_no_lease_means_no_expiry(self):
        engine, (a, b) = make_engine(lease_ticks=None)
        task = engine.request_task(a)
        assert task.lease_expires_at is None
        expire_lease(engine, 50)
        assert engine.reap_expired() == []
        assert not task.lease_expired(engine.clock)

    def test_lease_is_stamped_at_issue(self):
        engine, (a, _b) = make_engine(lease_ticks=4)
        engine.tick()
        task = engine.request_task(a)
        assert task.lease_expires_at == engine.clock + 4


@settings(max_examples=30, deadline=None)
@given(
    lease=st.integers(1, 8),
    extra=st.integers(0, 5),
    volunteers=st.integers(2, 5),
    seed=st.integers(0, 10**6),
)
def test_reissue_never_changes_attribution(lease, extra, volunteers, seed):
    """For any lease length and expiry overshoot, every reissued task
    still attributes -- via the APF inverse and the epoch table -- to the
    volunteer the index was minted for."""
    engine, vids = make_engine(lease, volunteers=volunteers, seed=seed)
    original = vids[0]
    task = engine.request_task(original)
    before = engine.attribute(task.index)
    assert before == original
    expire_lease(engine, lease + extra)
    reissued = engine.reap_expired()
    assert [t.index for t in reissued] == [task.index]
    assert task.reissued_to in vids[1:]
    assert task.volunteer_id == original  # the record itself is immutable
    assert engine.attribute(task.index) == original  # and so is T^-1


@settings(max_examples=30, deadline=None)
@given(lease=st.integers(1, 8), late_by=st.integers(1, 10), seed=st.integers(0, 10**6))
def test_late_return_stays_on_the_original_record(lease, late_by, seed):
    """The original assignee returning after expiry: counted late,
    charged (return + verification) to the ORIGINAL assignee, and the
    target's record is untouched."""
    engine, (original, target) = make_engine(lease, seed=seed)
    task = engine.request_task(original)
    for _ in range(lease + late_by):
        engine.tick()
    assert task.lease_expired(engine.clock)
    engine.reap_expired()
    assert task.reissued_to == target
    target_before = engine.ledger.record_of(target).returned
    engine.submit_result(original, task.index, task.expected_result)
    assert engine.ledger.late_returns == 1
    assert task.returned_by == original
    rec = engine.ledger.record_of(original)
    assert rec.returned == 1
    assert engine.ledger.record_of(target).returned == target_before
    assert engine.attribute(task.index) == original


def test_target_return_charged_to_target_attribution_unchanged():
    engine, (original, target) = make_engine(lease_ticks=3)
    task = engine.request_task(original)
    expire_lease(engine, 3)
    engine.reap_expired()
    engine.submit_result(target, task.index, task.expected_result)
    assert task.returned_by == target
    assert engine.ledger.record_of(target).returned == 1
    assert engine.ledger.record_of(original).returned == 0
    # Both parties are accountable: the original was issued the index,
    # the target was issued the reissue.
    assert engine.ledger.record_of(original).issued == 1
    assert engine.ledger.record_of(target).issued == 1
    # T^-1 still names the original.
    assert engine.attribute(task.index) == original

    # A bad return by the target strikes the TARGET, not the original.
    task2 = engine.request_task(original)
    expire_lease(engine, 3)
    engine.reap_expired()
    assert task2.reissued_to == target
    engine.submit_result(target, task2.index, task2.expected_result ^ 0xBAD)
    assert engine.ledger.record_of(target).strikes == 1
    assert engine.ledger.record_of(original).strikes == 0


def test_third_party_return_is_a_forgery():
    engine, vids = make_engine(lease_ticks=3, volunteers=3)
    original, target, outsider = vids
    task = engine.request_task(original)
    expire_lease(engine, 3)
    engine.reap_expired()
    assert task.reissued_to == target
    with pytest.raises(AllocationError):
        engine.submit_result(outsider, task.index, task.expected_result)
    # Ledger-level too: the submitter check is in the ledger itself.
    with pytest.raises(DomainError):
        engine.ledger.record_return(
            task.index, task.expected_result, engine.clock, submitter=outsider
        )


def test_reissue_race_first_return_wins():
    """Both the original and the target compute the result; whoever lands
    second is rejected (the task is no longer ISSUED), and the recorded
    return stays with the first submitter."""
    engine, (original, target) = make_engine(lease_ticks=2)
    task = engine.request_task(original)
    expire_lease(engine, 2)
    engine.reap_expired()
    engine.submit_result(target, task.index, task.expected_result)
    with pytest.raises(DomainError):
        engine.submit_result(original, task.index, task.expected_result)
    assert task.returned_by == target
    assert task.status is not TaskStatus.ISSUED


class TestReissueMechanics:
    def test_record_reissue_unknown_task(self):
        engine, (a, b) = make_engine(lease_ticks=2)
        with pytest.raises(DomainError):
            engine.ledger.record_reissue(12345, b, at_tick=0)

    def test_record_reissue_requires_issued_status(self):
        engine, (a, b) = make_engine(lease_ticks=2)
        task = engine.request_task(a)
        engine.submit_result(a, task.index, task.expected_result)
        with pytest.raises(DomainError):
            engine.ledger.record_reissue(task.index, b, at_tick=engine.clock)

    def test_reaper_skips_banned_and_busy_targets(self):
        engine, vids = make_engine(lease_ticks=2, volunteers=4)
        a, b, c, d = vids
        # Ban b outright (two bad returns).
        for _ in range(2):
            t = engine.request_task(b)
            engine.submit_result(b, t.index, t.expected_result ^ 1)
        assert engine.is_banned(b)
        task = engine.request_task(a)
        expire_lease(engine, 2)
        # c takes a task with a FRESH (unexpired) lease: busy, not
        # reapable itself.
        engine.request_task(c)
        reissued = engine.reap_expired()
        targets = {t.reissued_to for t in reissued if t.index == task.index}
        assert targets == {d}  # not a (previous), not b (banned), not c (busy)

    def test_no_eligible_target_leaves_task_with_assignee(self):
        engine, (a,) = make_engine(lease_ticks=2, volunteers=1)
        task = engine.request_task(a)
        expire_lease(engine, 2)
        assert engine.reap_expired() == []
        assert task.reissued_to is None
        # Still open; the original can return it (late).
        engine.submit_result(a, task.index, task.expected_result)
        assert engine.ledger.late_returns == 1

    def test_reissue_renews_the_lease_and_publishes(self):
        engine, (a, b) = make_engine(lease_ticks=3)
        log = EventLog.attach(engine.bus)
        task = engine.request_task(a)
        expire_lease(engine, 3)
        engine.reap_expired()
        assert task.lease_expires_at == engine.clock + 3
        events = log.of_type(TaskReissued)
        assert len(events) == 1
        assert events[0].task_index == task.index
        assert events[0].from_volunteer == a
        assert events[0].to_volunteer == b
        # row/serial in the event are the true inverse-chain coordinates.
        assert (events[0].row, events[0].serial) == engine.locate(task.index)

    def test_report_counts_reissues_and_late_returns(self):
        engine, (a, b) = make_engine(lease_ticks=1)
        task = engine.request_task(a)
        expire_lease(engine, 1)
        engine.reap_expired()
        engine.submit_result(a, task.index, task.expected_result)  # late, original
        report = engine.report()
        assert report.tasks_reissued == 1
        assert report.late_returns == 1
        # The index was never re-minted: issues count tasks, not leases.
        assert report.tasks_issued == 1


class _CountingDict(dict):
    """A dict that counts full walks (iteration and view calls)."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


def test_reaper_visits_only_outstanding_tasks(monkeypatch):
    """The reaper's cost pinned with counts, not timings: on a lease
    workload whose task table grows to well over ten times the
    outstanding set, every ``reap_expired`` call checks the lease of
    exactly the outstanding tasks, never walks the task table, and sorts
    the seated ids at most once."""
    sim = WBCSimulation(
        TSharp(),
        SimulationConfig(
            ticks=100,
            initial_volunteers=64,
            seed=7,
            lease_ticks=8,
            faults="drop=0.05",
        ),
    )
    server = sim.server
    ledger = server.ledger
    table = _CountingDict(ledger._tasks)
    monkeypatch.setattr(ledger, "_tasks", table)
    visited: list[int] = []
    lease_expired = Task.lease_expired

    def counting_lease_expired(task, at_tick):
        visited.append(task.index)
        return lease_expired(task, at_tick)

    sorts = 0
    seated_volunteers = server.frontend.seated_volunteers

    def counting_seated_volunteers():
        nonlocal sorts
        sorts += 1
        return seated_volunteers()

    monkeypatch.setattr(server.frontend, "seated_volunteers", counting_seated_volunteers)
    reap = server.reap_expired
    calls = []

    def checked_reap():
        nonlocal sorts
        # Ground truth from the public read API, outside the counted call.
        truth = [t for t in ledger.tasks() if t.status is TaskStatus.ISSUED]
        outstanding = [t.index for t in truth]
        expired = sum(t.lease_expired(server.clock) for t in truth)
        visited.clear()
        walks, sorts = table.walks, 0
        with monkeypatch.context() as patch:
            patch.setattr(Task, "lease_expired", counting_lease_expired)
            reissued = reap()
        assert visited == outstanding
        assert table.walks == walks
        assert sorts <= 1
        calls.append((len(outstanding), expired))
        return reissued

    monkeypatch.setattr(server, "reap_expired", checked_reap)
    outcome = sim.run()
    assert len(calls) == 100
    peak_outstanding = max(n for n, _ in calls)
    assert ledger.tasks_issued_count() >= 10 * peak_outstanding
    # Calls with several expired leases at once, where a per-task sort
    # of the seated ids would show.
    assert max(e for _, e in calls) >= 2
    assert outcome.tasks_reissued > 0
