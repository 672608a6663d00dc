"""Order statistics and span arithmetic used by the benchmark."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, q: float) -> float:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0


def highest_supported_percentile(
    count: int, levels: Iterable[float] = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
) -> float:
    """The highest level with at least ten of ``count`` samples beyond it.

    Returns 50 when even the median has fewer than ten beyond it (the
    median is always reported).
    """
    for q in sorted(levels, reverse=True):
        if samples_beyond(count, q) >= 10.0 - 1e-9:
            return q
    return 50.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover."""
    clipped: List[Tuple[float, float]] = []
    for child_start, child_end in children:
        lo, hi = max(start, child_start), min(end, child_end)
        if hi > lo:
            clipped.append((lo, hi))
    return (end - start) - union_length(clipped)
