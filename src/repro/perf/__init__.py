"""The performance layer: memoized spread evaluation and batch kernels.

The paper's thesis is that a pairing function is only useful if you can
afford to evaluate it on *every* array access and *every* task
attribution.  This subpackage is the reproduction's answer on the systems
side:

* :mod:`~repro.perf.spread_cache` -- :class:`SpreadCache`, memoized +
  incremental spread evaluation for any storage mapping (anchor-based
  band enumeration; closed-form short-circuits where declared);
* :mod:`~repro.perf.batch` -- ``spread_many`` (a grid of spreads through
  the mapping's :class:`SpreadCache`) and ``vectorization_window`` (the
  exact-safe window a mapping's ``pair_array`` / ``unpair_array``
  kernels declare).

Regression tracking lives in ``benchmarks/bench_runner.py``, which runs
the evaluation-speed, batch-speed and spread-compactness scenarios and
appends the results to ``benchmarks/BENCH_eval.json``.
"""

from __future__ import annotations

from repro.perf.batch import spread_many, vectorization_window
from repro.perf.spread_cache import SpreadCache

__all__ = [
    "SpreadCache",
    "spread_many",
    "vectorization_window",
]
