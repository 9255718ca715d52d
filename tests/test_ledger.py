"""Tests for the accountability ledger and ban policy."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, DomainError
from repro.webcompute.ledger import AccountabilityLedger, CounterRNG
from repro.webcompute.task import Task, TaskStatus, correct_result


def make_task(index: int, volunteer: int, serial: int = 1) -> Task:
    return Task(index=index, volunteer_id=volunteer, serial=serial, issued_at=0)


class TestConfiguration:
    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            AccountabilityLedger(verification_rate=1.5)

    def test_rejects_bad_strikes(self):
        with pytest.raises(ConfigurationError):
            AccountabilityLedger(ban_after_strikes=0)


class TestIssueReturn:
    def test_issue_recorded(self):
        ledger = AccountabilityLedger()
        ledger.record_issue(make_task(5, 1))
        assert ledger.record_of(1).issued == 1
        assert ledger.task(5).status is TaskStatus.ISSUED

    def test_double_issue_rejected(self):
        ledger = AccountabilityLedger()
        ledger.record_issue(make_task(5, 1))
        with pytest.raises(DomainError):
            ledger.record_issue(make_task(5, 2))

    def test_return_unknown_rejected(self):
        with pytest.raises(DomainError):
            AccountabilityLedger().record_return(9, 0, at_tick=1)

    def test_tasks_of_volunteer(self):
        ledger = AccountabilityLedger()
        for i in (3, 6, 9):
            ledger.record_issue(make_task(i, 4, serial=i))
        ledger.record_issue(make_task(12, 5))
        assert sorted(t.index for t in ledger.tasks_of(4)) == [3, 6, 9]


class TestVerificationSampling:
    def test_full_verification_catches_everything(self):
        ledger = AccountabilityLedger(verification_rate=1.0, ban_after_strikes=100)
        for i in range(1, 51):
            ledger.record_issue(make_task(i, 1, serial=i))
            good = i % 2 == 0
            result = correct_result(i) if good else correct_result(i) ^ 1
            ledger.record_return(i, result, at_tick=i)
        report = ledger.report()
        assert report.bad_results_returned == 25
        assert report.bad_results_caught == 25
        assert report.catch_rate == 1.0

    def test_zero_verification_catches_nothing(self):
        ledger = AccountabilityLedger(verification_rate=0.0)
        for i in range(1, 21):
            ledger.record_issue(make_task(i, 1, serial=i))
            ledger.record_return(i, correct_result(i) ^ 1, at_tick=i)
        report = ledger.report()
        assert report.bad_results_returned == 20
        assert report.bad_results_caught == 0
        assert not ledger.is_banned(1)

    def test_sampling_rate_roughly_respected(self):
        ledger = AccountabilityLedger(
            verification_rate=0.3, ban_after_strikes=10**6, rng=CounterRNG(11)
        )
        for i in range(1, 2001):
            ledger.record_issue(make_task(i, 1, serial=i))
            ledger.record_return(i, correct_result(i), at_tick=i)
        verified = ledger.record_of(1).verified
        assert 480 < verified < 720  # ~600

    def test_deterministic_given_rng(self):
        def run():
            ledger = AccountabilityLedger(
                verification_rate=0.5, rng=CounterRNG(3)
            )
            for i in range(1, 101):
                ledger.record_issue(make_task(i, 1, serial=i))
                ledger.record_return(i, correct_result(i) ^ 1, at_tick=i)
            return ledger.report()

        assert run() == run()


class TestBanPolicy:
    def test_ban_after_strikes(self):
        ledger = AccountabilityLedger(verification_rate=1.0, ban_after_strikes=2)
        ledger.record_issue(make_task(1, 7))
        assert not ledger.record_return(1, correct_result(1) ^ 1, at_tick=1)
        assert not ledger.is_banned(7)
        ledger.record_issue(make_task(2, 7, serial=2))
        banned_now = ledger.record_return(2, correct_result(2) ^ 1, at_tick=2)
        assert banned_now and ledger.is_banned(7)
        assert ledger.record_of(7).banned_at == 2

    def test_honest_volunteer_never_banned(self):
        ledger = AccountabilityLedger(verification_rate=1.0, ban_after_strikes=1)
        ledger.note_honest(3)
        for i in range(1, 100):
            ledger.record_issue(make_task(i, 3, serial=i))
            ledger.record_return(i, correct_result(i), at_tick=i)
        assert not ledger.is_banned(3)
        assert ledger.report().honest_volunteers_banned == 0

    def test_audit_task_forces_verification(self):
        ledger = AccountabilityLedger(verification_rate=0.0, ban_after_strikes=1)
        ledger.record_issue(make_task(5, 2))
        ledger.record_return(5, correct_result(5) ^ 1, at_tick=1)
        assert ledger.task(5).status is TaskStatus.RETURNED
        status = ledger.audit_task(5)
        assert status is TaskStatus.VERIFIED_BAD
        assert ledger.is_banned(2)

    def test_audit_ok_task(self):
        ledger = AccountabilityLedger(verification_rate=0.0)
        ledger.record_issue(make_task(5, 2))
        ledger.record_return(5, correct_result(5), at_tick=1)
        assert ledger.audit_task(5) is TaskStatus.VERIFIED_OK


class TestReport:
    def test_counts(self):
        ledger = AccountabilityLedger(verification_rate=1.0, ban_after_strikes=3)
        for i in range(1, 11):
            ledger.record_issue(make_task(i, 1, serial=i))
        for i in range(1, 8):
            ledger.record_return(i, correct_result(i), at_tick=i)
        report = ledger.report()
        assert report.tasks_issued == 10
        assert report.tasks_returned == 7
        assert report.tasks_verified == 7
        assert report.catch_rate == 1.0  # vacuous: no bad results
