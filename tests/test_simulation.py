"""Tests for the WBC discrete-time simulation."""

from __future__ import annotations

import pytest

from repro.apf.families import TBracket, TSharp, TStar
from repro.errors import ConfigurationError
from repro.webcompute.simulation import (
    SimulationConfig,
    WBCSimulation,
    run_family_comparison,
)


def small_config(**overrides):
    defaults = dict(ticks=120, initial_volunteers=12, seed=99)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConfig:
    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(careless_fraction=0.7, malicious_fraction=0.5)

    def test_rejects_bad_speeds(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(min_speed=2.0, max_speed=1.0)

    def test_rejects_nonpositive_ticks(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(ticks=0)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        a = WBCSimulation(TSharp(), small_config()).run()
        b = WBCSimulation(TSharp(), small_config()).run()
        assert a == b

    def test_different_seed_different_outcome(self):
        a = WBCSimulation(TSharp(), small_config(seed=1)).run()
        b = WBCSimulation(TSharp(), small_config(seed=2)).run()
        assert a != b


class TestInvariants:
    @pytest.fixture(scope="class")
    def outcome(self):
        return WBCSimulation(TSharp(), small_config(ticks=250)).run()

    def test_attribution_never_fails(self, outcome):
        assert outcome.attribution_checks == outcome.tasks_completed
        assert outcome.attribution_failures == 0

    def test_no_false_bans(self, outcome):
        assert outcome.honest_banned == 0

    def test_work_happened(self, outcome):
        assert outcome.tasks_completed > 100
        assert outcome.max_task_index > 0

    def test_catches_are_subset_of_bad(self, outcome):
        assert 0 <= outcome.bad_results_caught <= outcome.bad_results_returned


class TestBanning:
    def test_full_verification_bans_persistent_offenders(self):
        config = small_config(
            ticks=300,
            verification_rate=1.0,
            ban_after_strikes=2,
            malicious_fraction=0.3,
            careless_fraction=0.0,
            departure_rate=0.0,
            arrival_rate=0.0,
        )
        outcome = WBCSimulation(TSharp(), config).run()
        assert outcome.faulty_banned >= 2
        assert outcome.honest_banned == 0
        assert outcome.bad_results_caught == outcome.bad_results_returned


class TestFamilyComparison:
    def test_identical_workload_across_families(self):
        outcomes = run_family_comparison(
            [TBracket(1), TBracket(3), TSharp(), TStar()], small_config()
        )
        signature = {
            (o.tasks_completed, o.volunteers_total, o.departures, o.bad_results_returned)
            for o in outcomes
        }
        assert len(signature) == 1  # only the APF differs

    def test_compactness_ordering(self):
        outcomes = run_family_comparison(
            [TBracket(1), TSharp(), TStar()], small_config(ticks=250)
        )
        by_name = {o.apf_name: o for o in outcomes}
        # Exponential strides blow the index space; quadratic families are
        # orders of magnitude denser.
        assert (
            by_name["apf-bracket-1"].max_task_index
            > 20 * by_name["apf-sharp"].max_task_index
        )
        assert by_name["apf-sharp"].density > 20 * by_name["apf-bracket-1"].density

    def test_density_definition(self):
        outcomes = run_family_comparison([TSharp()], small_config())
        o = outcomes[0]
        assert o.density == pytest.approx(o.tasks_completed / o.max_task_index)


class TestLeasesWithDroppedReturns:
    @pytest.mark.parametrize(
        "shards, seed", [(1, 3), (1, 7), (4, 3), (4, 7), (4, 11)]
    )
    def test_superseded_reissue_target_is_abandoned(self, shards, seed):
        """A task reissued a→b and then b→c: b's return is a reissue race
        the simulation abandons, not a crash.  These configurations used
        to raise ``AllocationError`` ("task … attributes to volunteer a,
        not b") out of ``run``."""
        outcome = WBCSimulation(
            TSharp(),
            SimulationConfig(
                ticks=300,
                initial_volunteers=48,
                seed=seed,
                shards=shards,
                lease_ticks=6,
                faults="drop=0.05",
            ),
        ).run()
        assert outcome.attribution_failures == 0
        assert outcome.tasks_reissued > 0
        assert outcome.returns_abandoned > 0
