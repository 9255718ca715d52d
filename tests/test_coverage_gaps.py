"""Targeted tests for code paths not exercised elsewhere: report
dataclass properties, error branches, and small API conveniences."""

from __future__ import annotations

import pytest

from repro.errors import DomainError


class TestWorkloadResultProperties:
    def test_moves_per_step_zero_steps(self):
        from repro.arrays.metrics import WorkloadResult

        r = WorkloadResult(
            implementation="x",
            steps=0,
            final_shape=(1, 1),
            cells=1,
            moves=0,
            writes=0,
            erases=0,
            high_water_mark=1,
            utilization=1.0,
        )
        assert r.moves_per_step == 0.0


class TestReplicationOutcomeProperties:
    def test_zero_tasks_edge(self):
        from repro.webcompute.replication import ReplicationOutcome

        o = ReplicationOutcome(
            replication_factor=3,
            tasks_decided=0,
            computations_performed=0,
            bad_results_produced=0,
            bad_results_accepted=0,
            reissues=0,
        )
        assert o.work_overhead == 0.0
        assert o.acceptance_error_rate == 0.0


class TestProbeStatsProperties:
    def test_mean_probes_empty(self):
        from repro.arrays.hashed import ProbeStats

        assert ProbeStats().mean_probes == 0.0


class TestLedgerReportProperties:
    def test_catch_rate_vacuous(self):
        from repro.webcompute.ledger import LedgerReport

        report = LedgerReport(
            tasks_issued=0,
            tasks_returned=0,
            tasks_verified=0,
            bad_results_returned=0,
            bad_results_caught=0,
            volunteers_banned=0,
            honest_volunteers_banned=0,
        )
        assert report.catch_rate == 1.0


class TestSimulationOutcomeDensityEdge:
    def test_zero_index_density(self):
        from repro.webcompute.simulation import SimulationOutcome

        o = SimulationOutcome(
            apf_name="x",
            ticks=1,
            volunteers_total=0,
            tasks_completed=0,
            bad_results_returned=0,
            bad_results_caught=0,
            faulty_banned=0,
            honest_banned=0,
            departures=0,
            max_task_index=0,
            attribution_checks=0,
            attribution_failures=0,
        )
        assert o.density == 0.0


class TestVolunteerRecordProperties:
    def test_observed_error_rate(self):
        from repro.webcompute.ledger import VolunteerRecord

        rec = VolunteerRecord(volunteer_id=1)
        assert rec.observed_error_rate == 0.0
        rec.verified = 4
        rec.strikes = 1
        assert rec.observed_error_rate == 0.25


class TestEpochCovers:
    def test_open_and_closed(self):
        from repro.webcompute.frontend import Epoch

        open_epoch = Epoch(row=1, volunteer_id=7, first_serial=3)
        assert not open_epoch.covers(2)
        assert open_epoch.covers(3) and open_epoch.covers(10**9)
        closed = Epoch(row=1, volunteer_id=7, first_serial=3, last_serial=5)
        assert closed.covers(5) and not closed.covers(6)


class TestAspectRatioAccessors:
    def test_shell_of_rejects_bad(self):
        from repro.core.aspectratio import AspectRatioPairing

        with pytest.raises(DomainError):
            AspectRatioPairing(1, 2).shell_of(0, 1)

    def test_cumulative_rejects_negative(self):
        from repro.core.aspectratio import AspectRatioPairing

        with pytest.raises(DomainError):
            AspectRatioPairing(1, 2).cumulative_through(-1)

    def test_spread_favored_tiny_n(self):
        from repro.core.aspectratio import AspectRatioPairing

        # No favored array fits in n < a*b cells: spread over the favored
        # family is vacuously 0.
        assert AspectRatioPairing(2, 3).spread_favored(5) == 0


class TestJumpProfileFromJumps:
    def test_rejects_empty(self):
        from repro.core.locality import JumpProfile

        with pytest.raises(DomainError):
            JumpProfile.from_jumps("row", [])


class TestIteratedPairingRepr:
    def test_repr_and_1d_name(self):
        from repro.core.ndim import IteratedPairing
        from repro.core.diagonal import DiagonalPairing

        p1 = IteratedPairing(1, [])
        assert "identity-1d" in repr(p1)
        p3 = IteratedPairing(3, DiagonalPairing())
        assert "diagonal" in p3.name


class TestRegistryExponentialName:
    def test_apf_exponential_resolvable(self):
        from repro.core.registry import get_pairing

        apf = get_pairing("apf-exponential")
        assert apf.name == "apf-exponential"
        assert apf.unpair(apf.pair(3, 4)) == (3, 4)


class TestStringCodecReprAndProps:
    def test_accessors(self):
        from repro.encoding import StringCodec

        codec = StringCodec("xyz")
        assert codec.alphabet == "xyz"
        assert codec.radix == 3
        assert "xyz" in repr(codec)


class TestTupleCodecRepr:
    def test_repr_names_base(self):
        from repro.encoding import TupleCodec

        assert "square-shell" in repr(TupleCodec())


class TestAddressSpaceRepr:
    def test_repr_mentions_state(self):
        from repro.arrays.address_space import AddressSpace

        mem = AddressSpace()
        mem.write(3, 1)
        text = repr(mem)
        assert "live=1" in text and "hwm=3" in text


class TestExtendibleReprs:
    def test_array_reprs(self):
        from repro.arrays.extendible import ExtendibleArray
        from repro.arrays.naive import NaiveRowMajorArray
        from repro.core.squareshell import SquareShellPairing

        arr = ExtendibleArray(SquareShellPairing(), 2, 3, fill=0)
        assert "2x3" in repr(arr)
        naive = NaiveRowMajorArray(2, 3, fill=0)
        assert "2x3" in repr(naive)


class TestServerRepr:
    def test_server_repr(self):
        from repro.apf.families import TSharp
        from repro.webcompute.engine import WBCServer

        server = WBCServer(TSharp())
        assert "apf-sharp" in repr(server)


class TestSpreadFavoredDomain:
    def test_rejects_nonpositive(self):
        from repro.core.aspectratio import AspectRatioPairing

        with pytest.raises(DomainError):
            AspectRatioPairing(1, 1).spread_favored(0)


class TestHashedStoreRepr:
    def test_repr(self):
        from repro.arrays.hashed import HashedArrayStore

        store = HashedArrayStore()
        store.put(1, 1, "v")
        assert "live=1" in repr(store)
