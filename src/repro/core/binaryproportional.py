"""Binary-proportional pairing: rectangular shells of aspect ratio ``b``.

Szudzik's binary proportional pairing functions (arXiv:1809.06876)
generalize the Rosenberg--Strong square shells to *proportional* shells:
with ratio ``b``, shell ``m`` is the L-shaped difference between the
``(m+1) x b(m+1)`` and ``m x bm`` rectangles, so the enumeration stays
``b`` times wider than tall.  The payoff is the proportional analogue of
"binary perfect": if ``u < 2**j`` and ``v < b * 2**j`` then the output is
below ``b * 2**(2j)`` -- for ``b = 2**k``, inputs of ``j`` and ``j + k``
bits pair into at most ``2j + k`` bits, with no slack lost to
squaring the larger coordinate.

On the 0-indexed coordinates ``u = x - 1``, ``v = y - 1`` with
``m = max(u, v // b)``, this module uses the shell walk

    ``P(u, v) = b*m**2 + (v - b*m)*(m + 1) + u      if v >= b*m``
    ``P(u, v) = b*m**2 + b*(m + 1) + v              otherwise (u = m)``

(first the ``b`` new columns, each top to bottom, then the new row), and
shifts it to the paper's 1-indexed convention
(``pair(x, y) = P(x-1, y-1) + 1``).  Cumulative count through shell
``m - 1`` is ``b * m**2``, so the inverse needs one integer square root
of ``(z - 1) // b``.

This is the codec the sharded service wants: composing
``(shard_no, local_index)`` with ``b ~ local/shard`` charges at most
``~local**2 / b`` global addresses where a square shell charges
``local**2`` -- ``log2(b)`` bits of index width won back (17 vs 21
bits for binprop-16 at 16 shards in
``tests/test_pf_contract.py::TestCodecSwapDifferential``).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import (
    EXACT_SAFE_ADDRESS_LIMIT,
    EXACT_SAFE_COORD_LIMIT,
    PairingFunction,
)
from repro.core.kernels import isqrt_kernel
from repro.errors import ConfigurationError
from repro.numbertheory.integers import isqrt_exact

__all__ = ["BinaryProportionalPairing"]


class BinaryProportionalPairing(PairingFunction):
    """Proportional-shell pairing with ratio ``b`` (``b = 1`` degenerates
    to square shells; powers of two are the "binary" family).

    >>> p = BinaryProportionalPairing(2)
    >>> p.table(3, 6)
    [[1, 2, 3, 5, 9, 12], [7, 8, 4, 6, 10, 13], [15, 16, 17, 18, 11, 14]]
    >>> p.unpair(14)
    (3, 6)
    >>> BinaryProportionalPairing(4).name
    'binprop-4'
    """

    closed_form_spread = True
    vector_safe_max_address = EXACT_SAFE_ADDRESS_LIMIT

    def __init__(self, ratio: int) -> None:
        if isinstance(ratio, bool) or not isinstance(ratio, int) or ratio < 1:
            raise ConfigurationError(
                f"ratio must be a positive int, got {ratio!r}"
            )
        self.ratio = ratio
        # The forward kernel's largest intermediate is b*(m+1)**2; keep
        # it under 2**61 by shrinking the coordinate window with b.
        self.vector_safe_max_coord = min(
            EXACT_SAFE_COORD_LIMIT, isqrt_exact(2**61 // ratio) - 1
        )

    @property
    def name(self) -> str:
        return f"binprop-{self.ratio}"

    def _pair(self, x: int, y: int) -> int:
        b = self.ratio
        u = x - 1
        v = y - 1
        m = max(u, v // b)
        if v >= b * m:
            # One of the b new columns, walked top to bottom.
            return b * m * m + (v - b * m) * (m + 1) + u + 1
        # The new row (u == m necessarily).
        return b * m * m + b * (m + 1) + v + 1

    def _unpair(self, z: int) -> tuple[int, int]:
        # Shells 0..m-1 hold b*m**2 addresses, shell m holds b*(2m+1);
        # so w = z - 1 lies in shell m = isqrt(w // b) exactly.
        b = self.ratio
        w = z - 1
        m = isqrt_exact(w // b)
        r = w - b * m * m  # 0 .. b*(2m+1) - 1, rank within the shell
        if r < b * (m + 1):
            # Column part: b columns of height m + 1.
            return (r % (m + 1) + 1, b * m + r // (m + 1) + 1)
        # Row part: u = m, v = 0 .. b*m - 1.
        return (m + 1, r - b * (m + 1) + 1)

    # -- closed-form compactness ---------------------------------------

    def spread(self, n: int) -> int:
        """``S_P(n) = P(n, 1) = b*(n**2 - n + 1) + 1`` for ``n >= 2``: the
        degenerate ``n x 1`` column is the worst shape by far -- the
        proportional shells buy density along ``y`` by charging a factor
        ``b`` against growth along ``x``.  (For ``n = 1`` the single cell
        sits at address 1.)"""
        if n <= 0:
            from repro.errors import DomainError

            raise DomainError(f"n must be positive, got {n}")
        if n == 1:
            return 1
        return self.ratio * (n * n - n + 1) + 1

    def spread_for_shape(self, rows: int, cols: int) -> int:
        """Largest address in a ``rows x cols`` window, from the outermost
        shell ``M = max(rows - 1, (cols - 1) // b)``: the maximum over the
        window's slice of the column part and of the row part."""
        if rows <= 0 or cols <= 0:
            from repro.errors import DomainError

            raise DomainError(f"shape must be positive, got {rows}x{cols}")
        b = self.ratio
        big_r = rows - 1
        big_c = cols - 1
        m = max(big_r, big_c // b)
        best = 0
        if big_c >= b * m:
            # Column part reaches the window: largest at the deepest
            # in-window column and row.
            v = min(big_c, b * (m + 1) - 1)
            u = min(big_r, m)
            best = b * m * m + (v - b * m) * (m + 1) + u + 1
        if big_r >= m and m >= 1:
            # Row part reaches the window (u = m <= rows - 1).
            v = min(big_c, b * m - 1)
            best = max(best, b * m * m + b * (m + 1) + v + 1)
        return best

    # -- vectorized batch paths ----------------------------------------

    def _pair_kernel(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        b = self.ratio
        u = x - 1
        v = y - 1
        m = np.maximum(u, v // b)
        column = v >= b * m
        return (
            b * m * m
            + np.where(column, (v - b * m) * (m + 1), b * (m + 1) + v - u)
            + u
            + 1
        )

    def _unpair_kernel(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b = self.ratio
        w = z - 1
        m = isqrt_kernel(w // b)
        r = w - b * m * m
        column = r < b * (m + 1)
        x = np.where(column, r % (m + 1), m) + 1
        y = np.where(column, b * m + r // (m + 1), r - b * (m + 1)) + 1
        return x, y

    def pair_array(self, xs, ys) -> np.ndarray:
        """Vectorized pairing: exact int64 kernel inside the (ratio-
        dependent) coordinate window, exact scalar bignums outside it."""
        return self._pair_array_via(xs, ys, self._pair_kernel)

    def unpair_array(self, zs) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized inverse guarded by the exact-safe address window:
        addresses past the float64 mantissa take the scalar bignum path."""
        return self._unpair_array_via(zs, self._unpair_kernel)
