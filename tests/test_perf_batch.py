"""Tests for the exact-safe batch kernels (``StorageMapping.pair_array`` /
``unpair_array``) and the rest of the batch layer (repro.perf.batch).

The load-bearing property: ``pair_array``/``unpair_array`` agree with the
scalar bignum path *everywhere*, including across the 2**53 (float64
mantissa) and 2**63 (int64) boundaries where naive float kernels go
silently inexact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apf.families import TSharp
from repro.core.base import (
    EXACT_SAFE_ADDRESS_LIMIT,
    EXACT_SAFE_COORD_LIMIT,
)
from repro.core.diagonal import DiagonalPairing, DiagonalPairingTwin
from repro.core.squareshell import SquareShellPairing, SquareShellPairingTwin
from repro.errors import DomainError
from repro.perf.batch import spread_many, vectorization_window

FAST_MAPPINGS = [
    DiagonalPairing,
    DiagonalPairingTwin,
    SquareShellPairing,
    SquareShellPairingTwin,
]

BOUNDARY_ZS = [
    EXACT_SAFE_ADDRESS_LIMIT - 1,  # 2**53 - 2
    EXACT_SAFE_ADDRESS_LIMIT,      # 2**53 - 1: last kernel-safe address
    EXACT_SAFE_ADDRESS_LIMIT + 1,  # 2**53: first scalar-routed address
    EXACT_SAFE_ADDRESS_LIMIT + 2,
    2**63 - 1,
    2**63,
    2**63 + 1,
    2**100 + 12345,
]


@pytest.fixture(params=FAST_MAPPINGS, ids=lambda cls: cls.__name__)
def fast_pairing(request):
    return request.param()


class TestPairMany:
    def test_in_window_matches_scalar_and_stays_int64(self, fast_pairing):
        xs = np.arange(1, 200, dtype=np.int64)
        ys = xs[::-1].copy()
        got = fast_pairing.pair_array(xs, ys)
        assert got.dtype == np.int64
        for x, y, z in zip(xs, ys, got):
            assert int(z) == fast_pairing.pair(int(x), int(y))

    def test_out_of_window_coords_fall_back_exactly(self, fast_pairing):
        xs = [1, EXACT_SAFE_COORD_LIMIT, EXACT_SAFE_COORD_LIMIT + 1, 2**40]
        ys = [2**40, 3, EXACT_SAFE_COORD_LIMIT + 1, 1]
        got = fast_pairing.pair_array(xs, ys)
        for x, y, z in zip(xs, ys, got.reshape(-1)):
            assert int(z) == fast_pairing.pair(x, y)

    def test_broadcasting(self, fast_pairing):
        got = fast_pairing.pair_array([3], [1, 2, 3])
        assert [int(z) for z in got.reshape(-1)] == [
            fast_pairing.pair(3, y) for y in (1, 2, 3)
        ]

    def test_rejects_nonpositive(self, fast_pairing):
        with pytest.raises(DomainError):
            fast_pairing.pair_array([1, 0], [1, 1])

    def test_empty_batch(self, fast_pairing):
        got = fast_pairing.pair_array(np.array([], dtype=np.int64), [])
        assert got.size == 0

    def test_apf_uses_object_path(self):
        pf = TSharp()
        got = pf.pair_array([1, 2, 3], [3, 2, 1])
        assert [int(z) for z in got.reshape(-1)] == [
            pf.pair(x, y) for x, y in [(1, 3), (2, 2), (3, 1)]
        ]


class TestUnpairMany:
    def test_boundary_addresses_match_scalar(self, fast_pairing):
        xs, ys = fast_pairing.unpair_array(BOUNDARY_ZS)
        for z, x, y in zip(BOUNDARY_ZS, xs.reshape(-1), ys.reshape(-1)):
            assert (int(x), int(y)) == fast_pairing.unpair(z)
            assert fast_pairing.pair(int(x), int(y)) == z  # exact roundtrip

    def test_in_window_int64_batch_stays_int64(self, fast_pairing):
        zs = np.arange(1, 500, dtype=np.int64)
        xs, ys = fast_pairing.unpair_array(zs)
        assert xs.dtype == np.int64 and ys.dtype == np.int64
        for z, x, y in zip(zs, xs, ys):
            assert (int(x), int(y)) == fast_pairing.unpair(int(z))

    def test_int64_uint64_mix_does_not_promote_to_float(self, fast_pairing):
        # Regression: np.asarray([1, 2**63]) promotes to float64 (int64 +
        # uint64 have no common integer dtype), which would round 2**63+1
        # down to 2**63 *before* dispatch -- a silent wrong answer.  The
        # dispatcher must re-read such lists exactly.
        zs = [1, 2**63, 2**63 + 1]
        xs, ys = fast_pairing.unpair_array(zs)
        for z, x, y in zip(zs, xs.reshape(-1), ys.reshape(-1)):
            assert (int(x), int(y)) == fast_pairing.unpair(z)
            assert fast_pairing.pair(int(x), int(y)) == z

    def test_mixed_bignum_batch_splits_correctly(self, fast_pairing):
        zs = [5, 2**60, 17, 2**90]
        xs, ys = fast_pairing.unpair_array(zs)
        for z, x, y in zip(zs, xs.reshape(-1), ys.reshape(-1)):
            assert (int(x), int(y)) == fast_pairing.unpair(z)

    def test_rejects_invalid_elements(self, fast_pairing):
        with pytest.raises(DomainError):
            fast_pairing.unpair_array([1, 0, 3])
        with pytest.raises(DomainError):
            fast_pairing.unpair_array([1, 2.5])

    def test_empty_batch(self, fast_pairing):
        xs, ys = fast_pairing.unpair_array([])
        assert xs.size == 0 and ys.size == 0

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=10**6),
                st.integers(
                    min_value=EXACT_SAFE_ADDRESS_LIMIT - 2,
                    max_value=EXACT_SAFE_ADDRESS_LIMIT + 2,
                ),
                st.integers(min_value=1, max_value=2**70),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_property_agrees_with_scalar(self, zs):
        for cls in (DiagonalPairing, SquareShellPairing):
            pf = cls()
            xs, ys = pf.unpair_array(zs)
            for z, x, y in zip(zs, xs.reshape(-1), ys.reshape(-1)):
                assert (int(x), int(y)) == pf.unpair(z)


class TestSpreadManyAndWindow:
    def test_spread_many_delegates_to_cache(self):
        pf = DiagonalPairing()
        assert spread_many(pf, [4, 9, 4]) == [pf.spread(4), pf.spread(9), pf.spread(4)]

    def test_window_reported_for_fast_mappings(self, fast_pairing):
        window = vectorization_window(fast_pairing)
        assert window["max_coord"] == EXACT_SAFE_COORD_LIMIT
        assert window["max_address"] == EXACT_SAFE_ADDRESS_LIMIT

    def test_window_none_for_apf(self):
        window = vectorization_window(TSharp())
        assert window == {"max_coord": None, "max_address": None}
