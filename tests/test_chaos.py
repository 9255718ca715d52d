"""Chaos harness: the stateful accountability machine under faults.

:class:`ChaosServerMachine` reuses the rules and invariants of
``tests/test_stateful.py``'s :class:`AccountableServerMachine` -- same
register / request / submit / depart / tick vocabulary, same invariants
-- but drives a :class:`~repro.webcompute.sharding.ShardedWBCServer`
with leases and periodic checkpoints, and mixes in the fault rules:
crash a shard, restore it from checkpoint + journal replay (blocking or
as a *streaming* restore driven a few items per step, with registration
rounds landing on the shard mid-replay), run the lease reaper, and let
a reissue target return someone else's task.

After *every* step, Hypothesis re-checks the inherited invariants:

* attribution round-trips exactly -- ``attribute(index)`` names the
  ORIGINAL assignee for every index ever issued, including reissued
  tasks returned by their reissue target;
* no global task index is ever double-issued (the model's issued-set is
  exactly the ledgers' union), across any crash/restore interleaving;
* bans stay sticky and honest volunteers are never banned.

Plus the chaos-specific ones below (restored shards rejoin the global
clock; a restore never resurrects a departed volunteer).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import invariant, precondition, rule
import hypothesis.strategies as st

from repro.apf.families import TSharp
from repro.webcompute.sharding import ShardedWBCServer
from repro.webcompute.task import Task

from tests.test_stateful import AccountableServerMachine

SHARDS = 3


class ChaosServerMachine(AccountableServerMachine):
    def __init__(self):
        super().__init__()
        # task index -> current reissue target (latest reap wins)
        self.reissued_to: dict[int, int] = {}

    # -- seams ---------------------------------------------------------

    def make_server(self):
        return ShardedWBCServer(
            TSharp(),
            shards=SHARDS,
            verification_rate=1.0,
            ban_after_strikes=2,
            seed=7,
            lease_ticks=3,
            checkpoint_every=4,
        )

    def volunteer_available(self, vid: int) -> bool:
        return self.server.is_shard_alive(self.server.shard_of(vid))

    def index_available(self, index: int) -> bool:
        shard_no, _local = self.server.composer.unpair(index)
        return self.server.is_shard_alive(shard_no - 1)

    def all_shards_available(self) -> bool:
        return len(self.server.alive_shards()) == SHARDS

    def task_record(self, index: int) -> Task:
        return self.server.task(index)

    # -- fault rules ---------------------------------------------------

    @rule(shard=st.integers(0, SHARDS - 1))
    def crash(self, shard):
        # Keep at least one shard up so registration stays possible.
        if self.server.is_shard_alive(shard) and len(self.server.alive_shards()) > 1:
            self.server.crash_shard(shard)

    @rule(shard=st.integers(0, SHARDS - 1))
    def restore(self, shard):
        if not self.server.is_shard_alive(shard) and not self.server.is_shard_restoring(shard):
            # restore_shard itself audits the no-double-issue property
            # (checkpoint + #request ops) and raises RecoveryError on
            # any divergence -- reaching the invariants below means the
            # audit passed.
            self.server.restore_shard(shard)

    @rule(shard=st.integers(0, SHARDS - 1))
    def begin_streaming_restore(self, shard):
        if not self.server.is_shard_alive(shard) and not self.server.is_shard_restoring(shard):
            self.server.begin_restore(shard)

    @rule(items=st.integers(1, 4))
    def step_streaming_restores(self, items):
        # The same audit as the blocking restore runs when a stream's
        # queue drains; interleaved registers/ticks keep extending it.
        for shard in range(SHARDS):
            if self.server.is_shard_restoring(shard):
                self.server.restore_step(shard, max_items=items)

    @rule()
    def reap(self):
        for task in self.server.reap_expired():
            self.reissued_to[task.index] = task.reissued_to

    @precondition(lambda self: self.reissued_to)
    @rule(idx=st.integers(0, 10**6))
    def submit_as_reissue_target(self, idx):
        index = sorted(self.reissued_to)[idx % len(self.reissued_to)]
        target = self.reissued_to[index]
        if (
            not self.index_available(index)
            or not self.task_open(index)
            or not self.volunteer_available(target)
            or self.server.is_banned(target)
            or self.task_record(index).reissued_to != target
        ):
            return
        task = self.task_record(index)
        self.server.submit_result(target, index, task.expected_result)
        # The return lands on the TARGET's record, but attribution of
        # the index (checked by the inherited attribution_exact
        # invariant after this step) still names the original assignee.

    # -- chaos-specific invariants -------------------------------------

    @invariant()
    def live_shards_share_the_clock(self):
        for shard in self.server.alive_shards():
            assert self.server.engines[shard].clock == self.server.clock

    @invariant()
    def restoring_shards_stay_routable(self):
        # Degraded service: a mid-restore shard is not alive, but it is
        # in the registration routing set (and nowhere else).
        for shard in range(SHARDS):
            if self.server.is_shard_restoring(shard):
                assert not self.server.is_shard_alive(shard)
                assert shard in self.server.routable_shards()

    @invariant()
    def restores_never_resurrect(self):
        # Every seated volunteer on a live shard is one the model still
        # considers active: replay re-applies departures, so a restored
        # shard cannot bring a departed volunteer back.
        active = set(self.active)
        for shard in self.server.alive_shards():
            engine = self.server.engines[shard]
            for vid in engine.frontend.seated_volunteers():
                assert vid in active


ChaosServerMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=40, deadline=None
)
TestChaosServerMachine = ChaosServerMachine.TestCase


def _codec_chaos_case(codec_name: str):
    """The full chaos vocabulary -- crash, blocking and streaming restore,
    lease reaping, reissue-target returns -- on a server whose global
    indices are minted by *codec_name* instead of the default congruence
    composer.  The inherited ``attribution_exact`` invariant re-checks
    after every step that ``attribute(index)`` names the ORIGINAL assignee
    for every index ever issued, so a codec whose inverse drifts from its
    forward map under any crash/restore interleaving misnames a volunteer
    and fails here."""

    class _CodecChaosMachine(ChaosServerMachine):
        def make_server(self):
            return ShardedWBCServer(
                TSharp(),
                shards=SHARDS,
                codec=codec_name,
                verification_rate=1.0,
                ban_after_strikes=2,
                seed=7,
                lease_ticks=3,
                checkpoint_every=4,
            )

    _CodecChaosMachine.__name__ = f"CodecChaosMachine[{codec_name}]"
    _CodecChaosMachine.__qualname__ = _CodecChaosMachine.__name__
    _CodecChaosMachine.TestCase.settings = settings(
        max_examples=7, stateful_step_count=35, deadline=None
    )
    return _CodecChaosMachine.TestCase


TestSquareShellCodecChaos = _codec_chaos_case("square-shell")
TestSzudzikCodecChaos = _codec_chaos_case("szudzik")
TestRosenbergStrongCodecChaos = _codec_chaos_case("rosenberg-strong")
TestBinprop16CodecChaos = _codec_chaos_case("binprop-16")


class ParallelChaosServerMachine(ChaosServerMachine):
    """The same chaos vocabulary and invariants, but the shards live in
    worker processes: every crash/restore/reissue interleaving Hypothesis
    finds must hold with engine state crossing the pipe.  Fewer examples
    than the in-process machine -- each step is an IPC round trip -- but
    the step mix is identical."""

    def make_server(self):
        return ShardedWBCServer(
            TSharp(),
            shards=SHARDS,
            workers=2,
            verification_rate=1.0,
            ban_after_strikes=2,
            seed=7,
            lease_ticks=3,
            checkpoint_every=4,
        )

    def teardown(self):
        self.server.close()
        super().teardown()


ParallelChaosServerMachine.TestCase.settings = settings(
    max_examples=5, stateful_step_count=30, deadline=None
)
TestParallelChaosServerMachine = ParallelChaosServerMachine.TestCase
