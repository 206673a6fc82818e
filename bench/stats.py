"""Small statistics helpers; empty input reads as 0 so absent layers do."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's
    steadiness measure); 0.0 with fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def tail(values: Sequence[float]):
    """The highest percentile with ten samples beyond it: ``(pct, value)``.

    With ten or fewer samples there is no such percentile; the maximum
    is reported at 0 % so the line still prints.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    if len(ordered) <= 10:
        return 0.0, ordered[-1]
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]
