"""PF-backed extendible arrays: the Section 3 use case, end to end.

An :class:`ExtendibleArray` is a logical 2-D array of some current shape
``rows x cols`` whose cells live in an :class:`~repro.arrays.address_space.
AddressSpace` at the addresses chosen by a storage mapping:

    cell ``(x, y)``  ->  address ``mapping.pair(x, y)``

Because a PF assigns each position of ``N x N`` a *fixed* address, growing
or shrinking the array is purely a bookkeeping change: **no stored element
ever moves**.  That is the paper's core observation -- language processors
that remap on every reshape "do Omega(n^2) work to accommodate O(n)
changes", while a PF-mapped array does zero data movement (compare
:class:`~repro.arrays.naive.NaiveRowMajorArray`).

The price is address-space spread, which is exactly what the mapping's
spread function predicts; :meth:`ExtendibleArray.storage_report` measures
the realized value so benchmarks can compare it with theory.

Supported reshapings (the paper's repertoire): append/delete rows and
columns at the high ends.  Deletion erases the freed cells' addresses --
the freed addresses are reused automatically if the array grows back,
again with no movement.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.arrays.address_space import AddressSpace
from repro.core.base import StorageMapping
from repro.errors import ConfigurationError, DomainError

__all__ = ["ExtendibleArray"]


class ExtendibleArray:
    """A dynamically reshapable 2-D array stored through a pairing function.

    Parameters
    ----------
    mapping:
        Any :class:`~repro.core.base.StorageMapping`; the PFs of
        :mod:`repro.core` and the APFs of :mod:`repro.apf` all qualify.
    rows, cols:
        Initial logical shape (may be ``0 x 0``).
    fill:
        Value stored in newly allocated cells (``None`` leaves the cells
        unwritten -- reads then return ``default``).
    space:
        Optionally share / inspect an existing address space.

    >>> from repro.core import SquareShellPairing
    >>> arr = ExtendibleArray(SquareShellPairing(), rows=2, cols=2, fill=0)
    >>> arr[1, 1] = 10
    >>> arr.append_col()              # grow: nothing moves
    >>> arr.shape, arr[1, 1]
    ((2, 3), 10)
    >>> arr.space.traffic.moves
    0
    """

    def __init__(
        self,
        mapping: StorageMapping,
        rows: int = 0,
        cols: int = 0,
        fill: Any = None,
        space: AddressSpace | None = None,
    ) -> None:
        if not isinstance(mapping, StorageMapping):
            raise ConfigurationError(
                f"mapping must be a StorageMapping, got {type(mapping).__name__}"
            )
        if isinstance(rows, bool) or not isinstance(rows, int) or rows < 0:
            raise DomainError(f"rows must be a nonnegative int, got {rows!r}")
        if isinstance(cols, bool) or not isinstance(cols, int) or cols < 0:
            raise DomainError(f"cols must be a nonnegative int, got {cols!r}")
        if (rows == 0) != (cols == 0):
            raise DomainError(
                f"shape must be 0x0 or fully positive, got {rows}x{cols}"
            )
        self.mapping = mapping
        self.space = space if space is not None else AddressSpace()
        self._rows = rows
        self._cols = cols
        self._fill = fill
        if fill is not None and rows > 0:
            xs = [x for x in range(1, rows + 1) for _ in range(cols)]
            ys = [y for _ in range(rows) for y in range(1, cols + 1)]
            for address in self._addresses_of(xs, ys):
                self.space.write(address, fill)

    # ------------------------------------------------------------------

    def _addresses_of(self, xs, ys) -> list[int]:
        """Addresses of a coordinate batch through the mapping's batch
        kernel (vectorized when the mapping has one and the coordinates
        fit its exact-safe window; exact scalar loop else)."""
        return [int(z) for z in self.mapping.pair_array(xs, ys).reshape(-1)]

    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self._rows, self._cols)

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def size(self) -> int:
        return self._rows * self._cols

    def _check_position(self, x: int, y: int) -> tuple[int, int]:
        if isinstance(x, bool) or not isinstance(x, int):
            raise DomainError(f"row index must be an int, got {type(x).__name__}")
        if isinstance(y, bool) or not isinstance(y, int):
            raise DomainError(f"col index must be an int, got {type(y).__name__}")
        if not (1 <= x <= self._rows and 1 <= y <= self._cols):
            raise DomainError(
                f"position ({x}, {y}) outside current shape {self._rows}x{self._cols}"
            )
        return x, y

    # ------------------------------------------------------------------
    # Element access (1-indexed, like the paper)
    # ------------------------------------------------------------------

    def __getitem__(self, pos: tuple[int, int]) -> Any:
        x, y = self._check_position(*pos)
        return self.space.read_or(self.mapping.pair(x, y), self._fill)

    def __setitem__(self, pos: tuple[int, int], value: Any) -> None:
        x, y = self._check_position(*pos)
        self.space.write(self.mapping.pair(x, y), value)

    def get(self, x: int, y: int, default: Any = None) -> Any:
        """Like ``arr[x, y]`` but with an explicit default for unwritten
        cells (ignores the constructor ``fill``)."""
        x, y = self._check_position(x, y)
        return self.space.read_or(self.mapping.pair(x, y), default)

    def address_of(self, x: int, y: int) -> int:
        """The memory address backing cell ``(x, y)`` -- stable across every
        reshaping that keeps the cell alive."""
        x, y = self._check_position(x, y)
        return self.mapping.pair(x, y)

    # ------------------------------------------------------------------
    # Reshaping -- the whole point
    # ------------------------------------------------------------------

    def append_row(self) -> None:
        """Grow by one row.  O(cols) writes when a fill value is set;
        zero writes otherwise; zero moves always."""
        if self._rows == 0:
            raise DomainError("cannot append a row to a 0x0 array; use resize")
        self._rows += 1
        if self._fill is not None:
            x = self._rows
            for address in self._addresses_of([x], list(range(1, self._cols + 1))):
                self.space.write(address, self._fill)

    def append_col(self) -> None:
        """Grow by one column (O(rows) fills, zero moves)."""
        if self._cols == 0:
            raise DomainError("cannot append a column to a 0x0 array; use resize")
        self._cols += 1
        if self._fill is not None:
            y = self._cols
            for address in self._addresses_of(list(range(1, self._rows + 1)), [y]):
                self.space.write(address, self._fill)

    def delete_row(self) -> None:
        """Shrink by one row, erasing the freed cells (O(cols) erases,
        zero moves)."""
        if self._rows <= 1:
            raise DomainError("cannot delete the last row")
        x = self._rows
        for address in self._addresses_of([x], list(range(1, self._cols + 1))):
            self.space.erase(address)
        self._rows -= 1

    def delete_col(self) -> None:
        """Shrink by one column (O(rows) erases, zero moves)."""
        if self._cols <= 1:
            raise DomainError("cannot delete the last column")
        y = self._cols
        for address in self._addresses_of(list(range(1, self._rows + 1)), [y]):
            self.space.erase(address)
        self._cols -= 1

    def resize(self, rows: int, cols: int) -> None:
        """Reshape to ``rows x cols`` by repeated single-step grows/shrinks.

        Existing cells in the intersection of old and new shapes keep both
        their values and their addresses -- zero moves, always.
        """
        if isinstance(rows, bool) or not isinstance(rows, int) or rows <= 0:
            raise DomainError(f"rows must be a positive int, got {rows!r}")
        if isinstance(cols, bool) or not isinstance(cols, int) or cols <= 0:
            raise DomainError(f"cols must be a positive int, got {cols!r}")
        if self._rows == 0:
            self._rows, self._cols = 1, 1
            if self._fill is not None:
                self.space.write(self.mapping.pair(1, 1), self._fill)
        while self._rows < rows:
            self.append_row()
        while self._rows > rows:
            self.delete_row()
        while self._cols < cols:
            self.append_col()
        while self._cols > cols:
            self.delete_col()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[int, int], Any]]:
        """Yield ``((x, y), value)`` for every cell, row-major."""
        for x in range(1, self._rows + 1):
            for y in range(1, self._cols + 1):
                yield (x, y), self.space.read_or(self.mapping.pair(x, y), self._fill)

    def to_lists(self) -> list[list[Any]]:
        """Materialize the logical array as nested lists (row-major)."""
        return [
            [self.space.read_or(self.mapping.pair(x, y), self._fill) for y in range(1, self._cols + 1)]
            for x in range(1, self._rows + 1)
        ]

    def storage_report(self) -> dict[str, Any]:
        """The Section 3 metrics, measured: realized spread (high-water
        mark), cell count, utilization, traffic counters, and the mapping's
        theoretical spread for the current cell count."""
        n = max(1, self.size)
        return {
            "mapping": self.mapping.name,
            "shape": self.shape,
            "cells": self.size,
            "high_water_mark": self.space.high_water_mark,
            "utilization": self.space.utilization,
            "theoretical_spread": self.mapping.spread(n),
            "theoretical_shape_spread": (
                self.mapping.spread_for_shape(self._rows, self._cols)
                if self.size > 0
                else 0
            ),
            "traffic": self.space.traffic.snapshot(),
        }

    def __repr__(self) -> str:
        return (
            f"<ExtendibleArray {self._rows}x{self._cols} via {self.mapping.name} "
            f"hwm={self.space.high_water_mark}>"
        )
