"""The dynamic front end of the accountability scheme ([13], sketched in
Section 4).

A pure-APF allocation handles arrivals but not departures: "If a volunteer
departs, his/her tasks will never be computed -- unless a new volunteer
arrives to take their places and compute their tasks.  Such reassignment
would demand added mechanisms to retain accountability."  The front end is
that mechanism, plus the speed policy: "it also ensures that faster
volunteers are always assigned smaller indices."

Implementation:

* **Row pool** -- rows vacated by departures are recycled before fresh rows
  are minted; among free rows, arrivals are seated so that *faster*
  volunteers get *smaller* rows.  When several volunteers arrive in one
  admission round they are ranked by declared speed and seated in that
  order (fastest -> smallest free row).
* **Epochs** -- accountability across reassignment.  Each (row, tenure)
  pair is an :class:`Epoch` with a serial range; the table
  ``row -> [epochs]`` answers "who held row v when serial t was issued",
  so ``T^-1`` attribution stays exact even after any number of departures
  and reseatings.  This is the "added mechanism" the paper alludes to.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import AllocationError, DomainError
from repro.webcompute.events import EventBus, RowRecycled, RowSeated

__all__ = ["Epoch", "RowAssignment", "FrontEnd"]


@dataclass(slots=True)
class Epoch:
    """One volunteer's tenure on one row: serials ``first_serial ..
    last_serial`` (``None`` while the tenure is open)."""

    row: int
    volunteer_id: int
    first_serial: int
    last_serial: int | None = None

    def covers(self, serial: int) -> bool:
        if serial < self.first_serial:
            return False
        return self.last_serial is None or serial <= self.last_serial


def _encode_epoch(e: Epoch) -> list[int | None]:
    """One epoch as its persisted ``[volunteer_id, first_serial,
    last_serial]`` row (the row number is the key it is stored under)."""
    return [e.volunteer_id, e.first_serial, e.last_serial]


def _decode_epoch(row: int, e: list[int | None]) -> Epoch:
    """Invert :func:`_encode_epoch` for an epoch of row *row*."""
    vid, first, last = e
    return Epoch(row=row, volunteer_id=vid, first_serial=first, last_serial=last)


@dataclass(frozen=True, slots=True)
class RowAssignment:
    """The front end's answer to an admission: the row plus the serial the
    incoming volunteer must start from (1 for a fresh row; the first
    unissued serial for a recycled row)."""

    row: int
    start_serial: int


class FrontEnd:
    """Row seating, recycling, and epoch-based attribution.

    >>> fe = FrontEnd()
    >>> fe.admit([(101, 1.0), (102, 9.9)])   # one round: faster -> smaller
    [RowAssignment(row=2, start_serial=1), RowAssignment(row=1, start_serial=1)]
    >>> fe.row_of(102)
    1

    An optional :class:`~repro.webcompute.events.EventBus` receives a
    :class:`~repro.webcompute.events.RowSeated` per admission and a
    :class:`~repro.webcompute.events.RowRecycled` per departure -- the
    row-pool half of the observability layer.
    """

    def __init__(
        self,
        bus: EventBus | None = None,
        clock: Callable[[], int] | None = None,
    ) -> None:
        # reprolint: allow[R003] observer plumbing, re-attached after restore
        self.bus = bus
        # on construction; delta bookkeeping is rebuilt by restore_state
        self._clock_fn = clock if clock is not None else (lambda: 0)
        self._free_rows: list[int] = []  # min-heap of recycled rows
        self._next_fresh_row = 1
        self._row_resume_serial: dict[int, int] = {}
        self._row_of_volunteer: dict[int, int] = {}
        self._epochs: dict[int, list[Epoch]] = {}
        self._issued_serials: dict[int, int] = {}  # row -> last issued serial
        # Delta-protocol dirty tracking.  Rows: tick of last epoch/serial
        # mutation.  Seats: tick a volunteer was seated vs. unseated -- the
        # two maps stay disjoint so applying a delta is order-free.
        self._row_changed: dict[int, int] = {}
        self._seat_changed: dict[int, int] = {}
        self._unseated_at: dict[int, int] = {}

    # ------------------------------------------------------------------

    def _take_smallest_row(self) -> int:
        if self._free_rows:
            return heapq.heappop(self._free_rows)
        row = self._next_fresh_row
        self._next_fresh_row += 1
        return row

    def admit(self, arrivals: list[tuple[int, float]]) -> list[RowAssignment]:
        """Seat an admission round.

        *arrivals* is ``[(volunteer_id, declared_speed), ...]``; within the
        round, faster volunteers receive smaller rows (the paper's speed
        policy).  Returns assignments in the *input* order.
        """
        if not arrivals:
            return []
        seen: set[int] = set()
        for vid, speed in arrivals:
            if isinstance(vid, bool) or not isinstance(vid, int):
                raise DomainError(f"volunteer id must be an int, got {vid!r}")
            if vid in self._row_of_volunteer:
                raise AllocationError(f"volunteer {vid} is already seated")
            if vid in seen:
                raise AllocationError(f"volunteer {vid} appears twice in one round")
            if not speed > 0.0:
                raise DomainError(f"speed must be positive, got {speed!r}")
            seen.add(vid)
        # Fastest first; ties broken by id for determinism.
        ranked = sorted(arrivals, key=lambda a: (-a[1], a[0]))
        assignment_of: dict[int, RowAssignment] = {}
        now = self._clock_fn()
        for vid, _speed in ranked:
            row = self._take_smallest_row()
            start = self._row_resume_serial.get(row, 1)
            assignment_of[vid] = RowAssignment(row=row, start_serial=start)
            self._row_of_volunteer[vid] = row
            self._row_changed[row] = now
            self._seat_changed[vid] = now
            self._unseated_at.pop(vid, None)
            recycled = bool(self._epochs.get(row))
            self._epochs.setdefault(row, []).append(
                Epoch(row=row, volunteer_id=vid, first_serial=start)
            )
            self._issued_serials.setdefault(row, start - 1)
            if self.bus is not None:
                self.bus.publish(
                    RowSeated(
                        tick=self.bus.now(),
                        row=row,
                        volunteer_id=vid,
                        start_serial=start,
                        recycled=recycled,
                        shard=self.bus.shard,
                    )
                )
        return [assignment_of[vid] for vid, _ in arrivals]

    def depart(self, volunteer_id: int) -> int:
        """Unseat a volunteer; the row returns to the pool, the open epoch
        closes at the last issued serial.  Returns the vacated row."""
        row = self._row_of_volunteer.pop(volunteer_id, None)
        if row is None:
            raise AllocationError(f"volunteer {volunteer_id} is not seated")
        last = self._issued_serials.get(row, 0)
        epochs = self._epochs.get(row)
        if not epochs:  # pragma: no cover - admit() always opens an epoch
            raise AllocationError(f"row {row} has no open epoch to close")
        open_epoch = epochs[-1]
        open_epoch.last_serial = last
        self._row_resume_serial[row] = last + 1
        heapq.heappush(self._free_rows, row)
        now = self._clock_fn()
        self._row_changed[row] = now
        self._seat_changed.pop(volunteer_id, None)
        self._unseated_at[volunteer_id] = now
        if self.bus is not None:
            self.bus.publish(
                RowRecycled(
                    tick=self.bus.now(),
                    row=row,
                    resume_serial=last + 1,
                    shard=self.bus.shard,
                )
            )
        return row

    # ------------------------------------------------------------------

    def note_issued(self, row: int, serial: int) -> None:
        """Record that serial *serial* of row *row* was issued (the server
        calls this on every allocation so departures close epochs at the
        right boundary)."""
        current = self._issued_serials.get(row, 0)
        if serial != current + 1:
            raise AllocationError(
                f"row {row}: serial {serial} issued out of order (expected {current + 1})"
            )
        self._issued_serials[row] = serial
        self._row_changed[row] = self._clock_fn()

    def row_of(self, volunteer_id: int) -> int:
        try:
            return self._row_of_volunteer[volunteer_id]
        except KeyError:
            raise AllocationError(f"volunteer {volunteer_id} is not seated") from None

    def is_seated(self, volunteer_id: int) -> bool:
        return volunteer_id in self._row_of_volunteer

    def seated_volunteers(self) -> list[int]:
        """Currently seated volunteer ids, ascending (the lease reaper's
        candidate pool for reissue targets)."""
        return sorted(self._row_of_volunteer)

    def volunteer_for(self, row: int, serial: int) -> int:
        """Attribution across reassignment: who held *row* when *serial*
        was issued?  Epoch lookup; raises if the serial was never issued
        under any tenure."""
        epochs = self._epochs.get(row)
        if not epochs:
            raise AllocationError(f"row {row} has never been assigned")
        for epoch in epochs:
            if epoch.covers(serial):
                return epoch.volunteer_id
        raise AllocationError(
            f"serial {serial} of row {row} was not issued under any epoch"
        )

    @property
    def seated_count(self) -> int:
        return len(self._row_of_volunteer)

    @property
    def highest_row_minted(self) -> int:
        return self._next_fresh_row - 1

    def epochs_of_row(self, row: int) -> list[Epoch]:
        return list(self._epochs.get(row, []))

    # -- snapshot / restore state (the persistence seam) ---------------

    def snapshot_state(self) -> dict[str, Any]:
        """The front end's complete persistent state as a JSON-able dict;
        epochs are :func:`_encode_epoch` rows."""
        return {
            "free_rows": sorted(self._free_rows),
            "next_fresh_row": self._next_fresh_row,
            "row_resume_serial": {
                str(r): s for r, s in self._row_resume_serial.items()
            },
            "row_of_volunteer": {
                str(v): r for v, r in self._row_of_volunteer.items()
            },
            "issued_serials": {
                str(r): s for r, s in self._issued_serials.items()
            },
            "epochs": {
                str(row): [_encode_epoch(e) for e in epochs]
                for row, epochs in self._epochs.items()
            },
        }

    def snapshot_delta(self, since_tick: int) -> dict[str, Any]:
        """Rows and seats mutated at or after *since_tick*.  The (small)
        free-row pool and fresh-row cursor ship whole in every delta; a
        changed row ships its resume/issued serials plus its full epoch
        list (epoch mutation = append or close, so the row is marked dirty
        either way)."""
        rows: dict[str, Any] = {}
        for row, t in sorted(self._row_changed.items()):
            if t < since_tick:
                continue
            rows[str(row)] = {
                "resume": self._row_resume_serial.get(row),
                "issued": self._issued_serials.get(row),
                "epochs": [_encode_epoch(e) for e in self._epochs.get(row, [])],
            }
        return {
            "free_rows": sorted(self._free_rows),
            "next_fresh_row": self._next_fresh_row,
            "rows": rows,
            "seats": {
                str(v): self._row_of_volunteer[v]
                for v, t in sorted(self._seat_changed.items())
                if t >= since_tick
            },
            "unseated": sorted(
                v for v, t in self._unseated_at.items() if t >= since_tick
            ),
        }

    def apply_delta(self, delta: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot_delta` dict into live state.  ``None``
        serials are skipped (resume/issued keys never revert to absent), and
        seat/unseat maps are disjoint, so application is order-free and
        idempotent.  Folded rows are stamped a tick before the clock, as
        in :meth:`restore_state`."""
        logged = self._clock_fn() - 1
        self._free_rows = list(delta["free_rows"])
        heapq.heapify(self._free_rows)
        self._next_fresh_row = delta["next_fresh_row"]
        for key, info in delta["rows"].items():
            row = int(key)
            if info["resume"] is not None:
                self._row_resume_serial[row] = info["resume"]
            if info["issued"] is not None:
                self._issued_serials[row] = info["issued"]
            self._epochs[row] = [_decode_epoch(row, e) for e in info["epochs"]]
            self._row_changed[row] = logged
        for vid in delta["unseated"]:
            self._row_of_volunteer.pop(vid, None)
            self._seat_changed.pop(vid, None)
            self._unseated_at[vid] = logged
        for key, row in delta["seats"].items():
            vid = int(key)
            self._row_of_volunteer[vid] = row
            self._seat_changed[vid] = logged
            self._unseated_at.pop(vid, None)

    def restore_state(self, state: dict[str, Any]) -> None:
        """Rebuild seating/epoch state from a :meth:`snapshot_state` dict."""
        self._free_rows = list(state["free_rows"])
        heapq.heapify(self._free_rows)
        self._next_fresh_row = state["next_fresh_row"]
        self._row_resume_serial = {
            int(r): s for r, s in state["row_resume_serial"].items()
        }
        self._row_of_volunteer = {
            int(v): r for v, r in state["row_of_volunteer"].items()
        }
        self._issued_serials = {
            int(r): s for r, s in state["issued_serials"].items()
        }
        self._epochs = {
            int(row): [_decode_epoch(int(row), e) for e in epochs]
            for row, epochs in state["epochs"].items()
        }
        # Restored rows are already in the log: stamped a tick before the
        # clock, the next delta ships only what replay or later ticks change.
        logged = self._clock_fn() - 1
        touched = (
            set(self._epochs)
            | set(self._issued_serials)
            | set(self._row_resume_serial)
        )
        self._row_changed = {row: logged for row in touched}
        self._seat_changed = {v: logged for v in self._row_of_volunteer}
        self._unseated_at = {}
