"""Stateful (model-based) hypothesis tests.

Two rule-based machines drive long arbitrary operation sequences:

* :class:`ArrayMachine` -- an :class:`ExtendibleArray` (square-shell PF)
  against the naive remapping baseline *and* a pure-dict model; after any
  prefix of operations all three agree, and the PF side has never moved a
  cell.
* :class:`AccountableServerMachine` -- a :class:`WBCServer` against
  invariants: every issued task attributes to its owner; serials per row
  never repeat; banned volunteers stay banned; honest volunteers are
  never banned.  The machine is written against the surface both server
  flavors share, with availability hooks a subclass can override --
  ``tests/test_chaos.py`` reuses it over a :class:`ShardedWBCServer`
  with crash / restore / lease-reissue rules mixed in.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
import hypothesis.strategies as st

from repro.apf.families import TSharp
from repro.arrays.extendible import ExtendibleArray
from repro.arrays.naive import NaiveRowMajorArray
from repro.core.squareshell import SquareShellPairing
from repro.webcompute.engine import WBCServer
from repro.webcompute.task import Task, TaskStatus
from repro.webcompute.volunteer import Behavior, VolunteerProfile


class ArrayMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ext = ExtendibleArray(SquareShellPairing(), 1, 1, fill=0)
        self.naive = NaiveRowMajorArray(1, 1, fill=0)
        self.model: dict[tuple[int, int], int] = {}

    @rule()
    def append_row(self):
        self.ext.append_row()
        self.naive.append_row()

    @rule()
    def append_col(self):
        self.ext.append_col()
        self.naive.append_col()

    @rule()
    def delete_row(self):
        if self.ext.rows > 1:
            dropped = self.ext.rows
            self.ext.delete_row()
            self.naive.delete_row()
            self.model = {
                (x, y): v for (x, y), v in self.model.items() if x != dropped
            }

    @rule()
    def delete_col(self):
        if self.ext.cols > 1:
            dropped = self.ext.cols
            self.ext.delete_col()
            self.naive.delete_col()
            self.model = {
                (x, y): v for (x, y), v in self.model.items() if y != dropped
            }

    @rule(x=st.integers(1, 12), y=st.integers(1, 12), v=st.integers(0, 10**9))
    def write(self, x, y, v):
        rows, cols = self.ext.shape
        if 1 <= x <= rows and 1 <= y <= cols:
            self.ext[x, y] = v
            self.naive[x, y] = v
            self.model[(x, y)] = v

    @invariant()
    def shapes_agree(self):
        assert self.ext.shape == self.naive.shape

    @invariant()
    def values_agree_with_model(self):
        rows, cols = self.ext.shape
        for (x, y), v in self.model.items():
            if x <= rows and y <= cols:
                assert self.ext[x, y] == v
                assert self.naive[x, y] == v

    @invariant()
    def pf_side_never_moves(self):
        assert self.ext.space.traffic.moves == 0


ArrayMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestArrayMachine = ArrayMachine.TestCase


class AccountableServerMachine(RuleBasedStateMachine):
    """Model-based accountability check, shared by both server flavors.

    Subclasses override :meth:`make_server` (and the availability hooks
    when some shards can be down) and may add rules of their own; the
    invariants here -- exact attribution, unique task indices, sticky
    bans, no honest bans -- must hold for *any* interleaving either
    machine can produce.
    """

    def __init__(self):
        super().__init__()
        self.server = self.make_server()
        self.active: list[int] = []
        self.outstanding: dict[int, Task] = {}
        self.issued: dict[int, int] = {}  # task index -> ORIGINAL volunteer
        self.ever_banned: set[int] = set()
        self.honest: set[int] = set()
        self.counter = 0

    # -- seams a sharded/chaos subclass overrides ----------------------

    def make_server(self):
        return WBCServer(
            TSharp(), verification_rate=1.0, ban_after_strikes=2, seed=7
        )

    def volunteer_available(self, vid: int) -> bool:
        """Whether *vid* can be reached right now (a shard may be down)."""
        return True

    def index_available(self, index: int) -> bool:
        """Whether *index*'s shard can be reached right now."""
        return True

    def all_shards_available(self) -> bool:
        return True

    def task_record(self, index: int) -> Task:
        return self.server.ledger.task(index)

    def task_open(self, index: int) -> bool:
        """Whether the task is still issued-and-unreturned (a reissue
        race may have closed it from the other side)."""
        return self.task_record(index).status is TaskStatus.ISSUED

    # -- rules ---------------------------------------------------------

    @rule(speed=st.floats(0.1, 5.0), faulty=st.booleans())
    def register(self, speed, faulty):
        self.counter += 1
        profile = (
            VolunteerProfile(
                f"m{self.counter}",
                speed=speed,
                behavior=Behavior.MALICIOUS,
                error_rate=1.0,
            )
            if faulty
            else VolunteerProfile(f"h{self.counter}", speed=speed)
        )
        vid = self.server.register(profile)
        self.active.append(vid)
        if not faulty:
            self.honest.add(vid)

    @precondition(lambda self: self.active)
    @rule(idx=st.integers(0, 10**6))
    def request_and_submit(self, idx):
        vid = self.active[idx % len(self.active)]
        if not self.volunteer_available(vid) or self.server.is_banned(vid):
            return
        task = self.outstanding.pop(vid, None)
        if task is None:
            task = self.server.request_task(vid)
            self.issued[task.index] = vid
        if not self.index_available(task.index) or not self.task_open(task.index):
            # Racing a down shard or a reissue that already returned;
            # the computed result is simply lost.
            return
        result = (
            task.expected_result
            if vid in self.honest
            else task.expected_result ^ 0xDEAD
        )
        self.server.submit_result(vid, task.index, result)
        if self.server.is_banned(vid):
            self.ever_banned.add(vid)

    @precondition(lambda self: self.active)
    @rule(idx=st.integers(0, 10**6))
    def request_only(self, idx):
        vid = self.active[idx % len(self.active)]
        if (
            not self.volunteer_available(vid)
            or self.server.is_banned(vid)
            or vid in self.outstanding
        ):
            return
        task = self.server.request_task(vid)
        self.outstanding[vid] = task
        self.issued[task.index] = vid

    @precondition(lambda self: len(self.active) > 1)
    @rule(idx=st.integers(0, 10**6))
    def depart(self, idx):
        vid = self.active[idx % len(self.active)]
        if vid in self.outstanding or not self.volunteer_available(vid):
            return  # keep it simple: only idle, reachable volunteers leave
        self.server.depart(vid)
        self.active.remove(vid)

    @rule()
    def tick(self):
        self.server.tick()

    # -- invariants ----------------------------------------------------

    @invariant()
    def attribution_exact(self):
        for index, vid in self.issued.items():
            if self.index_available(index):
                assert self.server.attribute(index) == vid

    @invariant()
    def no_honest_bans(self):
        for vid in self.honest:
            if self.volunteer_available(vid):
                assert not self.server.is_banned(vid)

    @invariant()
    def bans_are_sticky(self):
        for vid in self.ever_banned:
            if self.volunteer_available(vid):
                assert self.server.is_banned(vid)

    @invariant()
    def task_indices_unique(self):
        if self.all_shards_available():
            assert len(self.issued) == self.server.report().tasks_issued


AccountableServerMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestServerMachine = AccountableServerMachine.TestCase
