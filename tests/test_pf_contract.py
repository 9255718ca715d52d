"""The shared bijection contract battery every registered mapping must pass.

This is the registry-driven counterpart of the hand-listed pools in
``test_properties.py``: every name in
:func:`repro.core.registry.available_names` must be classified into the
battery's domain tables, and :func:`test_registry_is_fully_classified`
fails the suite when a newly registered mapping is missing -- adding a PF
without deciding its contract coverage is itself a bug.

Five invariant layers:

1. **Bijection laws** (Hypothesis) -- round-trip both ways, totality and
   positivity of ``unpair`` on N, plus the deterministic two-sided finite
   certificate (``check_roundtrip_window`` + ``check_bijective_prefix``).
2. **Shell structure** -- the shell-walking families fill monotone
   nondecreasing shells in address order, with the per-family shell key
   pinned explicitly (diagonals sweep antidiagonals ``x + y``, the square
   families sweep ``max(x, y)``, binprop-B sweeps the ratio-B rectangle
   hull, hyperbolic sweeps the product ``x * y``).
3. **Exact-window boundaries** -- every vectorized kernel agrees with the
   scalar bignum path at the window edges (coordinate cap +-1, address
   cap +-1, 2**53 +-1, 2**64 +-1) and under the int64/uint64 promotion
   trap (mixed Python lists, uint64 arrays).
4. **Closed-form differentials** -- closed-form ``spread`` /
   ``spread_for_shape`` match brute-force enumeration, and
   Rosenberg-Strong is pinned pointwise equal to the paper's
   square-shell twin (same walk discovered twice; if they ever diverge
   one of the inverses is wrong).
5. **Codec-swap differentials** -- a 16-shard simulation completes the
   *identical* ``SimulationOutcome`` under every registered index codec
   (only the minted ``max_task_index`` may move), binprop-16 mints no
   wider indices than square-shell, congruence no wider than binprop-16
   and at most ``ceil(log2 S)`` bits above the widest local index, and
   direct server attribution never misnames a volunteer under any codec.
6. **Bounded-row codecs** -- every index codec is a bijection
   ``[S] x N <-> N`` for the shard count ``S`` it was built with:
   round trips both ways past 2**64, congruence is total (every index
   names a row in ``1..S``) and the identity at ``S = 1``, and a
   pairing-function codec refuses a row past ``S``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apf.families import TSharp
from repro.core.base import (
    EXACT_SAFE_ADDRESS_LIMIT,
    PairingFunction,
    StorageMapping,
)
from repro.core.registry import available_names, get_pairing
from repro.core.rosenbergstrong import RosenbergStrongPairing
from repro.core.squareshell import SquareShellPairingTwin
from repro.errors import AllocationError, ConfigurationError, DomainError
from repro.webcompute.codecs import available_codecs, composer_for
from repro.webcompute.sharding import ShardedWBCServer
from repro.webcompute.simulation import SimulationConfig, WBCSimulation
from repro.webcompute.volunteer import VolunteerProfile

# ----------------------------------------------------------------------
# Classification tables: every registered name appears exactly once.
# ----------------------------------------------------------------------

#: name -> (coordinate cap, address cap) for the Hypothesis draws.  The
#: caps bound *time*, not exactness (bignums stay exact regardless):
#: hyperbolic's pair enumerates O(sqrt(xy)) divisors per call, and the
#: APFs' addresses grow exponentially in ``x``, so both get smaller
#: domains than the polynomial shell-walkers.
DOMAIN_CAPS: dict[str, tuple[int, int]] = {
    "diagonal": (10**6, 10**9),
    "diagonal-twin": (10**6, 10**9),
    "square-shell": (10**6, 10**9),
    "square-shell-twin": (10**6, 10**9),
    "szudzik": (10**6, 10**9),
    "rosenberg-strong": (10**6, 10**9),
    "binprop-2": (10**6, 10**9),
    "binprop-4": (10**6, 10**9),
    "binprop-16": (10**6, 10**9),
    "hyperbolic": (3000, 200_000),
    "apf-sharp": (2000, 10**9),
    "apf-star": (2000, 10**9),
    "apf-exponential": (2000, 10**9),
    "apf-bracket-1": (2000, 10**9),
    "apf-bracket-2": (2000, 10**9),
    "apf-bracket-3": (2000, 10**9),
    "apf-bracket-4": (2000, 10**9),
}

#: The shell key each shell-walking family fills monotonically in address
#: order.  APFs are deliberately absent: their whole design *interleaves*
#: rows by 2-adic signature instead of walking shells.
SHELL_KEYS = {
    "diagonal": lambda x, y: x + y,
    "diagonal-twin": lambda x, y: x + y,
    "square-shell": lambda x, y: max(x, y),
    "square-shell-twin": lambda x, y: max(x, y),
    "szudzik": lambda x, y: max(x, y),
    "rosenberg-strong": lambda x, y: max(x, y),
    "binprop-2": lambda x, y: max(x - 1, (y - 1) // 2),
    "binprop-4": lambda x, y: max(x - 1, (y - 1) // 4),
    "binprop-16": lambda x, y: max(x - 1, (y - 1) // 16),
    "hyperbolic": lambda x, y: x * y,
}

NAMES = sorted(DOMAIN_CAPS)
#: The names whose subclasses ship vectorized int64 kernels (the PR 1
#: exact-window pattern); boundary and promotion-trap differentials run
#: on exactly these.
KERNEL_NAMES = [
    n for n in NAMES if get_pairing(n).vector_safe_max_address is not None
]
CLOSED_SPREAD_NAMES = [n for n in NAMES if get_pairing(n).closed_form_spread]


def test_registry_is_fully_classified():
    """Adding a registry entry without classifying it here is a failure:
    the battery must cover every registered mapping."""
    registered = set(available_names())
    classified = set(DOMAIN_CAPS)
    assert registered == classified, (
        f"unclassified registry entries: {sorted(registered - classified)}; "
        f"stale battery entries: {sorted(classified - registered)}"
    )


def test_new_pf_families_ship_vectorized_kernels():
    """The ISSUE 8 entrants are not allowed to regress to the object-dtype
    fallback: each must publish an exact-safe window."""
    for name in ("szudzik", "rosenberg-strong", "binprop-2", "binprop-16"):
        assert name in KERNEL_NAMES, f"{name} has no vectorized window"


# ----------------------------------------------------------------------
# 1. Bijection laws
# ----------------------------------------------------------------------


@st.composite
def name_and_coords(draw):
    name = draw(st.sampled_from(NAMES))
    cap = DOMAIN_CAPS[name][0]
    return name, draw(st.integers(1, cap)), draw(st.integers(1, cap))


@st.composite
def name_and_address(draw):
    name = draw(st.sampled_from(NAMES))
    cap = DOMAIN_CAPS[name][1]
    return name, draw(st.integers(1, cap))


@given(case=name_and_coords())
def test_roundtrip_forward(case):
    name, x, y = case
    pf = get_pairing(name)
    z = pf.pair(x, y)
    assert z >= 1
    assert pf.unpair(z) == (x, y)


@given(case=name_and_address())
def test_unpair_is_total_and_roundtrips(case):
    """Every registered mapping is surjective: ``unpair`` accepts *any*
    positive address and the result re-encodes exactly."""
    name, z = case
    pf = get_pairing(name)
    assert pf.surjective
    x, y = pf.unpair(z)
    assert x >= 1 and y >= 1
    assert pf.pair(x, y) == z


@pytest.mark.parametrize("name", NAMES)
def test_two_sided_finite_certificate(name):
    """The deterministic certificate: the whole 24 x 24 window round-trips
    injectively (domain side) and addresses 1..576 decode to distinct
    re-encoding positions (range side)."""
    pf = get_pairing(name)
    pf.check_roundtrip_window(24, 24)
    if isinstance(pf, PairingFunction):
        pf.check_bijective_prefix(576)


# ----------------------------------------------------------------------
# 2. Shell structure
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SHELL_KEYS))
def test_shells_fill_monotonically(name):
    """Walking addresses 1, 2, 3, ... never revisits a completed shell:
    the family's shell key is nondecreasing in address order."""
    pf = get_pairing(name)
    key = SHELL_KEYS[name]
    prev = 0
    for z in range(1, 2500):
        k = key(*pf.unpair(z))
        assert k >= prev, f"{name}: shell key dropped {prev} -> {k} at z={z}"
        prev = k


@given(case=name_and_address(), delta=st.integers(1, 10**6))
def test_shell_key_monotone_at_random_offsets(case, delta):
    name, z = case
    if name not in SHELL_KEYS:
        return
    pf = get_pairing(name)
    key = SHELL_KEYS[name]
    assert key(*pf.unpair(z)) <= key(*pf.unpair(z + delta))


# ----------------------------------------------------------------------
# 3. Exact-window boundaries and the promotion trap
# ----------------------------------------------------------------------


def _boundary_addresses(pf: StorageMapping) -> list[int]:
    limit = pf.vector_safe_max_address
    raw = [
        1,
        2,
        limit - 1,
        limit,
        limit + 1,
        2**53 - 1,
        2**53,
        2**53 + 1,
        2**64 - 1,
        2**64,
        2**64 + 1,
        2**80 + 17,
    ]
    return sorted(set(raw))


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_unpair_array_exact_across_window_edge(name):
    """One batch straddling the exact-safe address window: the kernel
    half and the bignum half must both match the scalar path exactly."""
    pf = get_pairing(name)
    zs = _boundary_addresses(pf)
    xs, ys = pf.unpair_array(zs)
    for z, x, y in zip(zs, np.asarray(xs).reshape(-1), np.asarray(ys).reshape(-1)):
        assert (int(x), int(y)) == pf.unpair(z), f"{name} at z={z}"
        assert pf.pair(int(x), int(y)) == z


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_pair_array_exact_across_coord_edge(name):
    """Coordinates at the kernel's own cap +-1 (in-window stays on int64,
    cap + 1 must fall back to exact bignums, never overflow)."""
    pf = get_pairing(name)
    cap = pf.vector_safe_max_coord
    coords = [1, 2, cap - 1, cap, cap + 1, 2**40]
    for xs, ys in [(coords, coords[::-1]), (coords, [1] * len(coords))]:
        got = pf.pair_array(xs, ys)
        for x, y, z in zip(xs, ys, np.asarray(got).reshape(-1)):
            assert int(z) == pf.pair(x, y), f"{name} at ({x}, {y})"


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_mixed_list_promotion_trap(name):
    """A plain Python list mixing int64-range and uint64-range values must
    not round through float64 (the PR 1 trap): every element decodes
    exactly despite 2**64 + 5 being unrepresentable in both int64 and
    float64."""
    pf = get_pairing(name)
    zs = [3, 2**53 + 1, 2**63 + 11, 2**64 + 5]
    xs, ys = pf.unpair_array(zs)
    for z, x, y in zip(zs, np.asarray(xs).reshape(-1), np.asarray(ys).reshape(-1)):
        assert pf.pair(int(x), int(y)) == z, f"{name} lost exactness at z={z}"


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_uint64_array_input_is_exact(name):
    """uint64 arrays sit entirely above int64's comfort zone near the
    top; in-window values must still take the kernel and out-of-window
    uint64 values (> 2**63) must route to the scalar bignum path."""
    pf = get_pairing(name)
    zs = np.array([1, 1000, 2**53 - 1, 2**63 + 9, 2**64 - 1], dtype=np.uint64)
    xs, ys = pf.unpair_array(zs)
    for z, x, y in zip(zs, np.asarray(xs).reshape(-1), np.asarray(ys).reshape(-1)):
        assert pf.pair(int(x), int(y)) == int(z), f"{name} at z={z}"


@given(case=name_and_coords(), size=st.integers(1, 40))
@settings(max_examples=60)
def test_vectorized_pair_agrees_with_scalar(case, size):
    name, x, y = case
    if name not in KERNEL_NAMES:
        return
    pf = get_pairing(name)
    xs = np.arange(x, x + size, dtype=np.int64)
    ys = np.arange(y, y + size, dtype=np.int64)[::-1].copy()
    got = pf.pair_array(xs, ys)
    for xi, yi, zi in zip(xs, ys, np.asarray(got).reshape(-1)):
        assert int(zi) == pf.pair(int(xi), int(yi))


@given(case=name_and_address(), size=st.integers(1, 40))
@settings(max_examples=60)
def test_vectorized_unpair_agrees_with_scalar(case, size):
    name, z = case
    if name not in KERNEL_NAMES:
        return
    pf = get_pairing(name)
    zs = np.arange(z, z + size, dtype=np.int64)
    xs, ys = pf.unpair_array(zs)
    for zi, xi, yi in zip(zs, np.asarray(xs).reshape(-1), np.asarray(ys).reshape(-1)):
        assert (int(xi), int(yi)) == pf.unpair(int(zi))


# ----------------------------------------------------------------------
# 4. Closed-form differentials
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", CLOSED_SPREAD_NAMES)
def test_closed_form_spread_matches_enumeration(name):
    pf = get_pairing(name)
    for n in list(range(1, 25)) + [40, 64]:
        assert pf.spread(n) == StorageMapping.spread(pf, n), f"{name} at n={n}"


@pytest.mark.parametrize("name", NAMES)
def test_spread_for_shape_matches_window_max(name):
    pf = get_pairing(name)
    size = 4 if name.startswith("apf") else 9
    for rows in range(1, size):
        for cols in range(1, size):
            brute = max(
                pf.pair(x, y)
                for x in range(1, rows + 1)
                for y in range(1, cols + 1)
            )
            assert pf.spread_for_shape(rows, cols) == brute, (
                f"{name} at {rows}x{cols}"
            )


def test_rosenberg_strong_is_square_shell_twin():
    """Two independent derivations of the same walk (the classic
    ``max``-form vs the paper's shell composition) must agree pointwise --
    a disagreement means one of the two inverses is wrong."""
    rs = RosenbergStrongPairing()
    twin = SquareShellPairingTwin()
    for x in range(1, 65):
        for y in range(1, 65):
            assert rs.pair(x, y) == twin.pair(x, y)
    for z in [1, 7, 1000, 2**53 - 1, 2**53 + 1, 2**64 + 5]:
        assert rs.unpair(z) == twin.unpair(z)


@given(x=st.integers(1, 10**8), y=st.integers(1, 10**8))
@settings(max_examples=80)
def test_rosenberg_strong_twin_differential_random(x, y):
    assert RosenbergStrongPairing().pair(x, y) == SquareShellPairingTwin().pair(x, y)


# ----------------------------------------------------------------------
# 5. Codec-swap differentials
# ----------------------------------------------------------------------


def _masked(outcome):
    """Everything a codec is *not* allowed to change: volunteer behaviour
    never reads the index value, so only the minted footprint may move."""
    return dataclasses.replace(outcome, max_task_index=0)


class TestCodecSwapDifferential:
    SEEDS = (11, 2002)

    def _run(self, codec: str, seed: int, ticks=25, volunteers=10, **knobs):
        config = SimulationConfig(
            ticks=ticks,
            initial_volunteers=volunteers,
            seed=seed,
            shards=16,
            codec=codec,
            **knobs,
        )
        sim = WBCSimulation(TSharp(), config)
        try:
            return sim.run()
        finally:
            sim.close()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_outcomes_identical_under_every_codec(self, seed):
        baseline = self._run("square-shell", seed)
        assert baseline.attribution_failures == 0
        assert baseline.tasks_completed > 0
        for codec in available_codecs():
            outcome = self._run(codec, seed)
            assert outcome.attribution_failures == 0, codec
            assert _masked(outcome) == _masked(baseline), (
                f"codec {codec} changed simulation behaviour at seed {seed}"
            )

    def test_binprop_16_no_wider_than_square_shell(self):
        """The ratio-16 binary-proportional composer (arXiv:1809.06876)
        is tuned for the few-shards/many-tasks shape; shrinking the
        global-index footprint is why the codec seam exists, so a
        binprop-16 index wider than square-shell's is a regression."""
        bits = {
            codec: self._run(
                codec, 2002, ticks=160, volunteers=40, departure_rate=0.01
            ).max_task_index.bit_length()
            for codec in ("square-shell", "binprop-16")
        }
        assert bits["binprop-16"] <= bits["square-shell"], bits

    def test_congruence_no_wider_than_binprop_16(self):
        """With the shard count fixed, the congruence codec spends only
        ``ceil(log2 16) = 4`` bits above the local index, so it can mint
        no wider indices than any PF composer."""
        config = SimulationConfig(
            ticks=160,
            initial_volunteers=40,
            seed=2002,
            shards=16,
            codec="congruence",
            departure_rate=0.01,
        )
        sim = WBCSimulation(TSharp(), config)
        try:
            bits = sim.run().max_task_index.bit_length()
            server = sim.server
            widest_local = max(
                server.composer.unpair(engine.max_task_index)[1]
                for engine in server.engines
                if engine.max_task_index
            )
        finally:
            sim.close()
        binprop = self._run(
            "binprop-16", 2002, ticks=160, volunteers=40, departure_rate=0.01
        ).max_task_index.bit_length()
        assert bits <= binprop, (bits, binprop)
        assert bits <= widest_local.bit_length() + 4, (bits, widest_local)

    @pytest.mark.parametrize("codec", available_codecs())
    def test_attribution_never_misnames_a_volunteer(self, codec):
        """The direct inverse-chain check: every issued global index
        attributes back to exactly the volunteer it was issued to."""
        server = ShardedWBCServer(
            TSharp(), shards=16, verification_rate=1.0, seed=5, codec=codec
        )
        assert server.codec_name == codec
        vids = server.register_round(
            [VolunteerProfile(f"v{i}", speed=1.0 + (i % 3)) for i in range(12)]
        )
        issued: dict[int, int] = {}
        for _round in range(6):
            server.tick()
            for vid in vids:
                task = server.request_task(vid)
                assert task.index not in issued, "duplicate global index"
                issued[task.index] = vid
                server.submit_result(vid, task.index, task.expected_result)
        for index, vid in issued.items():
            assert server.attribute(index) == vid, (
                f"codec {codec}: index {index} misattributed"
            )


# ----------------------------------------------------------------------
# 6. Bounded-row codecs: bijections [S] x N <-> N
# ----------------------------------------------------------------------

#: Indices and local indices past the float mantissa and the int64 range.
BIG = (2**53 - 1, 2**53 + 1, 2**64 - 1, 2**64 + 1, 2**100)


@pytest.mark.parametrize("shards", (1, 2, 4, 16))
@pytest.mark.parametrize("codec", available_codecs())
class TestBoundedRowCodecs:
    def test_pair_then_unpair_on_every_row(self, codec, shards):
        composer = composer_for(codec, shards)
        for shard_no in range(1, shards + 1):
            for local in (*range(1, 33), *BIG):
                assert composer.unpair(composer.pair(shard_no, local)) == (shard_no, local)

    def test_unpair_then_pair_past_2_64(self, codec, shards):
        composer = composer_for(codec, shards)
        for index in (*range(1, 257), *BIG):
            try:
                shard_no, local = composer.unpair(index)
            except AllocationError:
                # Only a PF codec refuses, and only a row past S.
                assert codec != "congruence"
                assert composer.pf.unpair(index)[0] > shards
                continue
            assert 1 <= shard_no <= shards
            assert composer.pair(shard_no, local) == index

    def test_row_past_s_or_a_bad_index_is_refused(self, codec, shards):
        composer = composer_for(codec, shards)
        if codec == "congruence":
            # Total: nothing decodes past S, and S + 1 has no address.
            with pytest.raises(DomainError):
                composer.pair(shards + 1, 1)
        else:
            for local in (1, 7, *BIG):
                with pytest.raises(AllocationError):
                    composer.unpair(composer.pf.pair(shards + 1, local))
        for bad in (0, -3, True, 2.0, "7"):
            with pytest.raises(AllocationError):
                composer.unpair(bad)


def test_congruence_at_one_shard_is_the_identity():
    composer = composer_for("congruence", 1)
    for index in (*range(1, 257), *BIG):
        assert composer.pair(1, index) == index
        assert composer.unpair(index) == (1, index)


def test_codec_needs_a_positive_shard_count():
    for bad in (0, -1, True, 1.5, "2"):
        with pytest.raises(ConfigurationError):
            composer_for("congruence", bad)
    with pytest.raises(ConfigurationError):
        composer_for("hyperbolic", 4)  # registered, but not a composer
