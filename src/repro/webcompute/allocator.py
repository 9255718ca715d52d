"""The task-allocation function wrapper (Section 4).

The paper's scheme: index tasks, volunteers, and per-volunteer serials by
positive integers and link them with a PF ``T`` -- "the t-th task that
volunteer v receives to compute is task T(v, t)".  Practicality demands
that ``T``, its inverse ``T^-1``, and the successor gap all be easy to
compute, which is why the scheme centers on *additive* PFs.

:class:`TaskAllocator` realizes the system-level point the paper makes
explicitly: "a volunteer's stride need be computed only when s/he registers
at the website and can be stored for subsequent appearances."  Rows are
registered once, yielding a cached
:class:`~repro.numbertheory.progressions.ArithmeticProgression` contract;
subsequent allocations are one add.  ``attribute`` inverts any task index
back to ``(row, serial)`` -- the accountability primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.apf.base import AdditivePairingFunction
from repro.errors import AllocationError, ConfigurationError, DomainError
from repro.numbertheory.progressions import ArithmeticProgression

__all__ = ["RowContract", "TaskAllocator"]


@dataclass(slots=True)
class RowContract:
    """Cached per-row allocation state: the stored ``(B_v, S_v)`` pair plus
    the next serial to hand out."""

    row: int
    progression: ArithmeticProgression
    next_serial: int = 1

    @property
    def base(self) -> int:
        return self.progression.base

    @property
    def stride(self) -> int:
        return self.progression.stride

    def issued_count(self) -> int:
        return self.next_serial - 1


def _encode_contract(c: RowContract) -> list[int]:
    """One contract as its persisted ``[row, base, stride, next_serial]``
    row."""
    return [c.row, c.base, c.stride, c.next_serial]


def _decode_contract(row: list[int]) -> RowContract:
    """Invert :func:`_encode_contract`: the stored base and stride are
    trusted, not recomputed, so restoring never re-pays the
    registration-time APF evaluations."""
    number, base, stride, next_serial = row
    return RowContract(
        row=number,
        progression=ArithmeticProgression(base, stride),
        next_serial=next_serial,
    )


class TaskAllocator:
    """Allocates global task indices along APF rows.

    >>> from repro.apf.families import TSharp
    >>> alloc = TaskAllocator(TSharp())
    >>> contract = alloc.register_row(3)
    >>> (contract.base, contract.stride)
    (6, 8)
    >>> alloc.next_task(3), alloc.next_task(3)
    (6, 14)
    >>> alloc.attribute(14)
    (3, 2)
    """

    def __init__(
        self,
        apf: AdditivePairingFunction,
        clock: Callable[[], int] | None = None,
    ) -> None:
        if not isinstance(apf, AdditivePairingFunction):
            raise ConfigurationError(
                f"allocator needs an AdditivePairingFunction, got {type(apf).__name__}"
            )
        # reprolint: allow[R003] the APF is configuration, not run state;
        # restore_state requires a same-APF instance (checked by name)
        self.apf = apf
        # on construction; delta bookkeeping is rebuilt by restore_state
        self._clock_fn = clock if clock is not None else (lambda: 0)
        self._contracts: dict[int, RowContract] = {}
        # Delta-protocol dirty tracking: tick of each row's last mutation
        # (registration or serial advance) vs. tick of its release.  The two
        # maps are kept disjoint so applying a delta is order-free: a row is
        # either upserted or removed, never both.
        self._changed_at: dict[int, int] = {}
        self._released_at: dict[int, int] = {}

    # ------------------------------------------------------------------

    def register_row(self, row: int, start_serial: int = 1) -> RowContract:
        """Compute and cache row *row*'s base and stride (the registration-
        time work).  ``start_serial`` supports row reassignment: a successor
        volunteer taking over a departed row continues from the first
        unissued serial."""
        if isinstance(row, bool) or not isinstance(row, int) or row <= 0:
            raise DomainError(f"row must be a positive int, got {row!r}")
        if row in self._contracts:
            raise AllocationError(f"row {row} is already registered")
        if isinstance(start_serial, bool) or not isinstance(start_serial, int) or start_serial <= 0:
            raise DomainError(f"start_serial must be a positive int, got {start_serial!r}")
        contract = RowContract(
            row=row,
            progression=self.apf.progression(row),
            next_serial=start_serial,
        )
        self._contracts[row] = contract
        self._changed_at[row] = self._clock_fn()
        self._released_at.pop(row, None)
        return contract

    def register_rows(
        self, assignments: list[tuple[int, int]]
    ) -> list[RowContract]:
        """Batch registration: one ``(row, start_serial)`` pair per incoming
        volunteer of an admission round.

        All-or-nothing: the whole batch is validated (domains, duplicates
        within the batch, collisions with already-registered rows) before
        any contract is cached, so a bad entry mid-round cannot leave the
        allocator half-registered.

        >>> from repro.apf.families import TSharp
        >>> alloc = TaskAllocator(TSharp())
        >>> [c.row for c in alloc.register_rows([(1, 1), (2, 1)])]
        [1, 2]
        """
        pairs = list(assignments)
        seen: set[int] = set()
        for row, start_serial in pairs:
            if isinstance(row, bool) or not isinstance(row, int) or row <= 0:
                raise DomainError(f"row must be a positive int, got {row!r}")
            if (
                isinstance(start_serial, bool)
                or not isinstance(start_serial, int)
                or start_serial <= 0
            ):
                raise DomainError(
                    f"start_serial must be a positive int, got {start_serial!r}"
                )
            if row in self._contracts:
                raise AllocationError(f"row {row} is already registered")
            if row in seen:
                raise AllocationError(f"row {row} appears twice in one batch")
            seen.add(row)
        contracts = [
            RowContract(
                row=row,
                progression=self.apf.progression(row),
                next_serial=start_serial,
            )
            for row, start_serial in pairs
        ]
        now = self._clock_fn()
        for contract in contracts:
            self._contracts[contract.row] = contract
            self._changed_at[contract.row] = now
            self._released_at.pop(contract.row, None)
        return contracts

    def release_row(self, row: int) -> int:
        """Unregister *row* (volunteer departure); returns the next unissued
        serial so a successor can resume the row without re-issuing tasks."""
        contract = self._contracts.pop(row, None)
        if contract is None:
            raise AllocationError(f"row {row} is not registered")
        self._changed_at.pop(row, None)
        self._released_at[row] = self._clock_fn()
        return contract.next_serial

    def is_registered(self, row: int) -> bool:
        return row in self._contracts

    def contract(self, row: int) -> RowContract:
        try:
            return self._contracts[row]
        except KeyError:
            raise AllocationError(f"row {row} is not registered") from None

    # ------------------------------------------------------------------

    def next_task(self, row: int) -> int:
        """The next global task index for *row*: one add on the cached
        contract (no APF evaluation after registration)."""
        contract = self.contract(row)
        index = contract.progression.term(contract.next_serial)
        contract.next_serial += 1
        self._changed_at[row] = self._clock_fn()
        return index

    def peek_task(self, row: int, serial: int) -> int:
        """``T(row, serial)`` without consuming the serial."""
        return self.contract(row).progression.term(serial)

    def attribute(self, task_index: int) -> tuple[int, int]:
        """Invert the allocation: which ``(row, serial)`` does *task_index*
        belong to?  Pure APF inverse -- works even for rows never registered
        here, which is what makes post-hoc auditing possible."""
        if isinstance(task_index, bool) or not isinstance(task_index, int) or task_index <= 0:
            raise DomainError(f"task_index must be a positive int, got {task_index!r}")
        return self.apf.unpair(task_index)

    # ------------------------------------------------------------------

    @property
    def registered_rows(self) -> list[int]:
        return sorted(self._contracts)

    # -- snapshot / restore state (the persistence seam) ---------------

    def snapshot_state(self) -> list[list[int]]:
        """Every live contract as an :func:`_encode_contract` row, sorted
        by row."""
        return [_encode_contract(self._contracts[row]) for row in sorted(self._contracts)]

    def snapshot_delta(self, since_tick: int) -> dict[str, Any]:
        """Rows mutated at or after *since_tick*, plus rows released since
        then.  ``>=`` (not ``>``) keeps a torn tick safe: re-shipping an
        unchanged row is harmless because :meth:`apply_delta` upserts."""
        return {
            "rows": [
                _encode_contract(self._contracts[row])
                for row in sorted(self._contracts)
                if self._changed_at.get(row, since_tick) >= since_tick
            ],
            "released": sorted(
                row for row, t in self._released_at.items() if t >= since_tick
            ),
        }

    def apply_delta(self, delta: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot_delta` dict into live state.  Upsert-only
        on the ``rows`` side and remove-only on the ``released`` side, so
        applying the same delta twice is a no-op.  Folded rows are
        stamped a tick before the clock, as in :meth:`restore_state`."""
        logged = self._clock_fn() - 1
        for row in delta["released"]:
            self._contracts.pop(row, None)
            self._changed_at.pop(row, None)
            self._released_at[row] = logged
        for encoded in delta["rows"]:
            contract = _decode_contract(encoded)
            self._contracts[contract.row] = contract
            self._changed_at[contract.row] = logged
            self._released_at.pop(contract.row, None)

    def restore_state(self, contracts: list[list[int]]) -> None:
        """Rebuild the contract cache from a :meth:`snapshot_state` list."""
        self._contracts = {}
        for encoded in contracts:
            contract = _decode_contract(encoded)
            self._contracts[contract.row] = contract
        # Restored rows are already in the log: stamped a tick before the
        # clock, the next delta ships only what replay or later ticks change.
        logged = self._clock_fn() - 1
        self._changed_at = {row: logged for row in self._contracts}
        self._released_at = {}

    def max_issued_index(self) -> int:
        """The largest task index issued so far -- the memory-footprint
        proxy the paper's compactness discussion is about."""
        best = 0
        for contract in self._contracts.values():
            if contract.next_serial > 1:
                best = max(best, contract.progression.term(contract.next_serial - 1))
        return best
