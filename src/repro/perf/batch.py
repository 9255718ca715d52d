"""Batch evaluation helpers: ``spread_many`` / ``vectorization_window``.

The batch pair/unpair entry points are the mappings' own
:meth:`~repro.core.base.StorageMapping.pair_array` /
:meth:`~repro.core.base.StorageMapping.unpair_array`.  Contract:
**exactness first, speed second** -- they return bit-identical results to
the scalar bignum loop, and dispatch to the NumPy int64 kernels only for
inputs inside the mapping's declared exact-safe window
(:data:`~repro.core.base.EXACT_SAFE_ADDRESS_LIMIT` /
:data:`~repro.core.base.EXACT_SAFE_COORD_LIMIT`), which
``vectorization_window`` reports.  Inputs outside the window -- bignum
addresses past the float64 mantissa, coordinates whose squares would
overflow int64, exponentially-growing APFs with no safe window at all --
silently take the exact scalar path; mixed batches are split
element-wise.

``spread_many`` routes through the mapping's per-instance
:class:`~repro.perf.spread_cache.SpreadCache`, turning a grid sweep from
``sum_i Theta(n_i log n_i)`` into one incremental enumeration of the
largest size (plus closed-form short-circuits where subclasses declare
them).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.base import StorageMapping
from repro.errors import ConfigurationError

__all__ = ["spread_many", "vectorization_window"]


def _require_mapping(mapping: StorageMapping) -> StorageMapping:
    if not isinstance(mapping, StorageMapping):
        raise ConfigurationError(
            f"expected a StorageMapping, got {type(mapping).__name__}"
        )
    return mapping


def spread_many(mapping: StorageMapping, ns: Sequence[int]) -> list[int]:
    """``mapping.spread`` over a grid of sizes, sharing enumeration work
    across the grid via the mapping's :class:`SpreadCache`.

    Identical values to ``[mapping.spread(n) for n in ns]``; for mappings
    without a closed-form spread the whole grid costs one incremental
    enumeration of ``max(ns)`` instead of a fresh ``Theta(n log n)``
    enumeration per point.

    >>> from repro.core.aspectratio import AspectRatioPairing
    >>> spread_many(AspectRatioPairing(1, 1), [4, 9, 4])
    [14, 74, 14]
    """
    return _require_mapping(mapping).spread_cache().spread_many(ns)


def vectorization_window(mapping: StorageMapping) -> dict[str, int | None]:
    """The mapping's declared exact-safe window (``None`` = no vectorized
    kernel; that side always runs the scalar bignum path)."""
    _require_mapping(mapping)
    return {
        "max_coord": mapping.vector_safe_max_coord,
        "max_address": mapping.vector_safe_max_address,
    }
