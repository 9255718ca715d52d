"""Snapshot / restore for the WBC server.

Section 4's system argument leans on state that *survives visits*: "a
volunteer's stride need be computed only when s/he registers at the
website and can be stored for subsequent appearances".  A real project
head also restarts the server; this module serializes the whole
accountability state -- contracts, epochs, ledger, clock -- to a plain
JSON-able dict and restores it bit-for-bit.

One format: the stored dict *is*
:meth:`~repro.webcompute.engine.AllocationEngine.snapshot_state`, so
``dumps(server)`` is byte-for-byte the base a
:class:`~repro.webcompute.recovery.CheckpointStore` holds for the same
engine.  The state names its APF (by registry name), its constructor
knobs and its format version; nothing wraps it, so nothing can drop a
key the engine learns to persist.

Scope: the snapshot captures *server* state (what the website must
remember).  Simulated volunteer behavior objects are reconstructed from
their profiles; in a real deployment those are remote humans anyway.

The round-trip guarantee, enforced by tests: after ``restore(snapshot(s))``
every observable behavior -- next task per volunteer, attribution of any
historical task, ban status, report counters -- is identical.
"""

from __future__ import annotations

import json
from typing import Any

from repro.apf.base import AdditivePairingFunction
from repro.core.registry import get_pairing
from repro.errors import ConfigurationError
from repro.webcompute.engine import WBCServer, check_state

__all__ = ["snapshot", "restore", "dumps", "loads"]


def snapshot(server: WBCServer) -> dict[str, Any]:
    """The server's complete persistent state: its ``snapshot_state()``.

    The APF is stored *by registry name*, so only registry-resolvable
    allocation functions (``apf-sharp``, ``apf-star``, ``apf-bracket-C``,
    ``apf-power-K``, ``apf-exponential``) are snapshot-able; a custom
    :class:`~repro.apf.constructor.ConstructedAPF` raises here rather than
    producing an unrestorable snapshot.
    """
    try:
        get_pairing(server.apf_name)
    except ConfigurationError:
        raise ConfigurationError(
            f"APF {server.apf_name!r} is not registry-resolvable; "
            "register it before snapshotting"
        ) from None
    return server.snapshot_state()


def restore(state: dict[str, Any]) -> WBCServer:
    """Build a server from a :func:`snapshot` dict, configured by the
    state's own APF and knobs."""
    check_state(state)
    apf = get_pairing(state["apf"])
    if not isinstance(apf, AdditivePairingFunction):
        raise ConfigurationError(f"snapshot APF {state['apf']!r} is not additive")
    server = WBCServer(
        apf,
        verification_rate=state["verification_rate"],
        ban_after_strikes=state["ban_after_strikes"],
        lease_ticks=state["lease_ticks"],
    )
    server.restore_state(state)
    return server


def dumps(server: WBCServer) -> str:
    """Snapshot as a JSON string."""
    return json.dumps(snapshot(server), sort_keys=True)


def loads(text: str) -> WBCServer:
    """Restore from a JSON string."""
    return restore(json.loads(text))
