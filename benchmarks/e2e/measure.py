"""What every workload returns, and the statistics they share."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Sequence

#: The fewest reps a measured run makes, whatever ``--seconds`` says.
MIN_REPS = 3


@dataclass
class Result:
    """One workload's measurements: metric values, the number of samples
    behind each, and the operations it attempted and saw fail."""

    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = value
        self.samples[name] = samples

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def rep_count(seconds: float, rep_seconds: float) -> int:
    """Reps of a workload whose rep takes about *rep_seconds* on the
    reference host: a function of ``--seconds`` alone, so the sample
    basis is the same on every commit and every host."""
    return max(MIN_REPS, round(seconds / rep_seconds))


def best_of(reps: Sequence[Sequence[float]]) -> list[float]:
    """Position by position, the fastest rep.  Every rep does the same
    work in the same order, so the minimum at each position drops the
    stalls other tenants of the host add, and keeps the work's own cost."""
    return [min(column) for column in zip(*reps)]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if len(values) else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def per(value: float, count: float, scale: float = 1.0) -> float:
    """*value* per *count*, divided by *scale* (ns to us: 1e3); 0 when
    nothing was counted, as for a layer a workload does not use."""
    return value / count / scale if count else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
