"""Accountable web computing (Section 4 end to end).

* :mod:`~repro.webcompute.task` -- verifiable work units;
* :mod:`~repro.webcompute.volunteer` -- honest/careless/malicious models;
* :mod:`~repro.webcompute.allocator` -- APF task allocation with cached
  per-row contracts;
* :mod:`~repro.webcompute.frontend` -- dynamic arrivals/departures, speed
  seating, epoch-based attribution across row reassignment;
* :mod:`~repro.webcompute.ledger` -- sampled verification, strikes, bans;
* :mod:`~repro.webcompute.events` -- the typed event bus every state
  transition publishes on (the observability layer);
* :mod:`~repro.webcompute.engine` -- the allocation/attribution core
  (allocator + front end + ledger behind a narrow interface), and
  ``WBCServer``, one engine run as the whole service;
* :mod:`~repro.webcompute.sharding` -- S engine shards behind one global
  index space composed with a named pairing function (square shell by
  default), registrations routed round-robin;
* :mod:`~repro.webcompute.simulation` -- seeded project runs, APF-family
  and shard-scaling comparisons;
* :mod:`~repro.webcompute.replication` -- the majority-vote replication
  baseline the accountability scheme is cheaper than;
* :mod:`~repro.webcompute.persistence` -- JSON snapshot/restore of the
  full server state ("stored for subsequent appearances") in the one
  persisted format, the engine's versioned ``snapshot_state()``, which
  shard checkpoints store too;
* :mod:`~repro.webcompute.recovery` -- shard checkpoints, op journals,
  deterministic replay, and retry backoff (crash tolerance);
* :mod:`~repro.webcompute.faults` -- the seeded fault injector and the
  ``--faults`` spec grammar (chaos harness);
* :mod:`~repro.webcompute.shardworker` -- the worker-process side of the
  parallel execution mode (``ShardedWBCServer(workers=N)``).
"""

from __future__ import annotations

from repro.webcompute.task import Task, TaskStatus, correct_result
from repro.webcompute.volunteer import Behavior, VolunteerProfile
from repro.webcompute.allocator import RowContract, TaskAllocator
from repro.webcompute.frontend import Epoch, FrontEnd, RowAssignment
from repro.webcompute.ledger import (
    AccountabilityLedger,
    LedgerReport,
    VolunteerRecord,
)
from repro.webcompute.events import (
    CheckpointTaken,
    EventBus,
    EventCounters,
    EventLog,
    ResultReturned,
    ReturnDelayed,
    ReturnDropped,
    RowRecycled,
    RowSeated,
    ShardCrashed,
    ShardRestored,
    ShardRestoring,
    TaskIssued,
    TaskReissued,
    VolunteerBanned,
    VolunteerCorrupted,
    VolunteerDeparted,
    VolunteerRegistered,
)
from repro.webcompute.engine import AllocationEngine, IndexCodec, WBCServer
from repro.webcompute.faults import FaultInjector, FaultSpec, ReturnFate, ScheduledFault
from repro.webcompute.recovery import (
    Backoff,
    CheckpointStore,
    ShardCheckpoint,
    apply_op,
    replay,
)
from repro.webcompute.replication import ReplicationOutcome, ReplicationSimulation
from repro.webcompute.metrics import (
    AccountabilityMetrics,
    VolunteerForensics,
    compute_metrics,
    live_summary,
    volunteer_forensics,
)
from repro.webcompute.persistence import dumps, loads, restore, snapshot
from repro.webcompute.shardworker import EngineSpec, WorkerDiedError, WorkerHandle
from repro.webcompute.sharding import AttributionPath, ShardedWBCServer
from repro.webcompute.simulation import (
    SimulationConfig,
    SimulationOutcome,
    WBCSimulation,
    run_family_comparison,
    run_shard_comparison,
)

__all__ = [
    "Task",
    "TaskStatus",
    "correct_result",
    "Behavior",
    "VolunteerProfile",
    "RowContract",
    "TaskAllocator",
    "Epoch",
    "FrontEnd",
    "RowAssignment",
    "AccountabilityLedger",
    "LedgerReport",
    "VolunteerRecord",
    "EventBus",
    "EventCounters",
    "EventLog",
    "VolunteerRegistered",
    "TaskIssued",
    "TaskReissued",
    "ResultReturned",
    "VolunteerBanned",
    "VolunteerDeparted",
    "VolunteerCorrupted",
    "RowSeated",
    "RowRecycled",
    "ShardCrashed",
    "ShardRestoring",
    "ShardRestored",
    "CheckpointTaken",
    "ReturnDropped",
    "ReturnDelayed",
    "AllocationEngine",
    "IndexCodec",
    "FaultSpec",
    "FaultInjector",
    "ScheduledFault",
    "ReturnFate",
    "Backoff",
    "CheckpointStore",
    "ShardCheckpoint",
    "apply_op",
    "replay",
    "WBCServer",
    "EngineSpec",
    "WorkerDiedError",
    "WorkerHandle",
    "ShardedWBCServer",
    "AttributionPath",
    "snapshot",
    "AccountabilityMetrics",
    "VolunteerForensics",
    "compute_metrics",
    "volunteer_forensics",
    "live_summary",
    "restore",
    "dumps",
    "loads",
    "ReplicationOutcome",
    "ReplicationSimulation",
    "SimulationConfig",
    "SimulationOutcome",
    "WBCSimulation",
    "run_family_comparison",
    "run_shard_comparison",
]
