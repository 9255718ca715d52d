"""Reshape workload generation for the extendible-array experiments.

The paper's complaint about naive remapping is phrased in workload terms:
"one does Omega(n^2) work to accommodate O(n) changes".  To measure that, we
need reproducible reshape scripts.  A workload is simply a sequence of
:class:`ReshapeOp` steps; this module provides

* scripted growth patterns (row-then-column staircases, pure column growth,
  square growth) that mirror how linear-algebra codes and relational tables
  actually evolve, and
* a seeded random walk over shapes (the adversarial mix).

Workloads are pure data, so the same script can be replayed against an
:class:`~repro.arrays.extendible.ExtendibleArray`, a
:class:`~repro.arrays.naive.NaiveRowMajorArray`, or a
:class:`~repro.arrays.hashed.HashedArrayStore` adapter, and the traffic
counters compared like for like.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from repro.errors import ConfigurationError, DomainError

__all__ = [
    "ReshapeOp",
    "ReshapeKind",
    "staircase_growth",
    "column_growth",
    "square_growth",
    "random_walk",
    "apply_workload",
    "bulk_touch",
    "ReshapableArray",
]


class ReshapeKind(enum.Enum):
    APPEND_ROW = "append-row"
    APPEND_COL = "append-col"
    DELETE_ROW = "delete-row"
    DELETE_COL = "delete-col"


@dataclass(frozen=True, slots=True)
class ReshapeOp:
    """One reshape step.  ``repeat`` compresses runs of the same step."""

    kind: ReshapeKind
    repeat: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.repeat, bool) or not isinstance(self.repeat, int):
            raise DomainError(f"repeat must be an int, got {type(self.repeat).__name__}")
        if self.repeat <= 0:
            raise DomainError(f"repeat must be positive, got {self.repeat}")


class ReshapableArray(Protocol):
    """Anything replayable: the structural interface shared by
    :class:`ExtendibleArray` and :class:`NaiveRowMajorArray`."""

    def append_row(self) -> None: ...

    def append_col(self) -> None: ...

    def delete_row(self) -> None: ...

    def delete_col(self) -> None: ...

    @property
    def shape(self) -> tuple[int, int]: ...


def staircase_growth(steps: int) -> list[ReshapeOp]:
    """Alternate row/column appends *steps* times: the canonical "table that
    grows in both dimensions" script.  Starting from 1x1 it visits roughly
    square shapes throughout.

    >>> [op.kind.value for op in staircase_growth(3)]
    ['append-row', 'append-col', 'append-row']
    """
    if isinstance(steps, bool) or not isinstance(steps, int) or steps <= 0:
        raise DomainError(f"steps must be a positive int, got {steps!r}")
    ops = []
    for i in range(steps):
        kind = ReshapeKind.APPEND_ROW if i % 2 == 0 else ReshapeKind.APPEND_COL
        ops.append(ReshapeOp(kind))
    return ops


def column_growth(cols: int) -> list[ReshapeOp]:
    """Append *cols* columns: the naive layout's worst case (every append
    changes the row-major pitch and remaps the whole array).

    >>> [op.repeat for op in column_growth(5)]
    [5]
    """
    if isinstance(cols, bool) or not isinstance(cols, int) or cols <= 0:
        raise DomainError(f"cols must be a positive int, got {cols!r}")
    return [ReshapeOp(ReshapeKind.APPEND_COL, repeat=cols)]


def square_growth(target_side: int) -> list[ReshapeOp]:
    """Grow from 1x1 to ``target_side x target_side`` one row+column at a
    time -- the shape family the square-shell PF stores perfectly."""
    if isinstance(target_side, bool) or not isinstance(target_side, int) or target_side <= 1:
        raise DomainError(f"target_side must be an int > 1, got {target_side!r}")
    ops = []
    for _ in range(target_side - 1):
        ops.append(ReshapeOp(ReshapeKind.APPEND_ROW))
        ops.append(ReshapeOp(ReshapeKind.APPEND_COL))
    return ops


def random_walk(
    steps: int,
    seed: int = 0,
    grow_bias: float = 0.7,
    max_side: int = 512,
) -> list[ReshapeOp]:
    """A seeded random reshape walk: each step grows (probability
    *grow_bias*) or shrinks a uniformly chosen dimension, clamped to keep
    both sides in ``[1, max_side]`` so replays never underflow.

    The walk is generated against a simulated shape starting at 1x1, so the
    resulting script is always legal to replay from a fresh 1x1 array.
    """
    if isinstance(steps, bool) or not isinstance(steps, int) or steps <= 0:
        raise DomainError(f"steps must be a positive int, got {steps!r}")
    if not 0.0 <= grow_bias <= 1.0:
        raise ConfigurationError(f"grow_bias must be in [0, 1], got {grow_bias}")
    rng = random.Random(seed)
    rows = cols = 1
    ops: list[ReshapeOp] = []
    for _ in range(steps):
        grow = rng.random() < grow_bias
        dim_is_row = rng.random() < 0.5
        if grow:
            if dim_is_row and rows < max_side:
                ops.append(ReshapeOp(ReshapeKind.APPEND_ROW))
                rows += 1
            elif cols < max_side:
                ops.append(ReshapeOp(ReshapeKind.APPEND_COL))
                cols += 1
            elif rows < max_side:
                ops.append(ReshapeOp(ReshapeKind.APPEND_ROW))
                rows += 1
            else:
                # Both dimensions saturated: shrink instead of growing past
                # the clamp.
                ops.append(ReshapeOp(ReshapeKind.DELETE_ROW))
                rows -= 1
        else:
            if dim_is_row and rows > 1:
                ops.append(ReshapeOp(ReshapeKind.DELETE_ROW))
                rows -= 1
            elif cols > 1:
                ops.append(ReshapeOp(ReshapeKind.DELETE_COL))
                cols -= 1
            elif rows > 1:
                ops.append(ReshapeOp(ReshapeKind.DELETE_ROW))
                rows -= 1
            else:
                ops.append(ReshapeOp(ReshapeKind.APPEND_ROW))
                rows += 1
    return ops


def bulk_touch(array, positions: Sequence[tuple[int, int]], value) -> int:
    """Write *value* to every ``(x, y)`` in *positions* (the write phase of
    an access workload), batching address computation through the perf
    layer when the array exposes its mapping and address space (the
    PF-backed :class:`~repro.arrays.extendible.ExtendibleArray` does;
    baselines fall back to item assignment).  Returns the write count.

    >>> from repro.arrays.extendible import ExtendibleArray
    >>> from repro.core.squareshell import SquareShellPairing
    >>> arr = ExtendibleArray(SquareShellPairing(), rows=2, cols=2)
    >>> bulk_touch(arr, [(1, 1), (2, 2)], 7)
    2
    >>> arr[2, 2]
    7
    """
    positions = list(positions)
    if not positions:
        return 0
    rows, cols = array.shape
    for x, y in positions:
        if isinstance(x, bool) or not isinstance(x, int) or isinstance(y, bool) or not isinstance(y, int):
            raise DomainError(f"positions must be int pairs, got ({x!r}, {y!r})")
        if not (1 <= x <= rows and 1 <= y <= cols):
            raise DomainError(
                f"position ({x}, {y}) outside current shape {rows}x{cols}"
            )
    mapping = getattr(array, "mapping", None)
    space = getattr(array, "space", None)
    if mapping is not None and space is not None:
        addresses = mapping.pair_array(
            [p[0] for p in positions], [p[1] for p in positions]
        )
        for address in addresses.reshape(-1):
            space.write(int(address), value)
    else:
        for x, y in positions:
            array[x, y] = value
    return len(positions)


def apply_workload(array: ReshapableArray, ops: Iterable[ReshapeOp]) -> int:
    """Replay *ops* against *array*; returns the number of elementary
    reshape steps executed (expanding ``repeat``)."""
    dispatch = {
        ReshapeKind.APPEND_ROW: lambda: array.append_row(),
        ReshapeKind.APPEND_COL: lambda: array.append_col(),
        ReshapeKind.DELETE_ROW: lambda: array.delete_row(),
        ReshapeKind.DELETE_COL: lambda: array.delete_col(),
    }
    steps = 0
    for op in ops:
        action = dispatch[op.kind]
        for _ in range(op.repeat):
            action()
            steps += 1
    return steps
