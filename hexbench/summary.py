"""Percentile and self-time arithmetic used to turn samples into metrics."""

from __future__ import annotations

# Percentiles reported for a timing, in tenths of a percent.
PERCENTILE_LADDER = (500, 900, 990, 999)
MIN_BEYOND = 10


def _rank(n: int, tenths: int) -> int:
    """Nearest-rank position (1-based) of a percentile among ``n`` samples."""
    return max(1, -(-tenths * n // 1000))


def tail_percentile(n: int) -> float | None:
    """Highest percentile on the ladder with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    best = None
    for tenths in PERCENTILE_LADDER:
        if n - _rank(n, tenths) >= MIN_BEYOND:
            best = tenths / 10
    return best


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), round(pct * 10)) - 1]


def checked_percentile(values: list[float], pct: float) -> float:
    """Percentile that is refused unless ten samples lie beyond it."""
    supported = tail_percentile(len(values))
    if supported is None or supported < pct:
        raise ValueError(
            f"p{pct:g} needs at least {MIN_BEYOND} samples beyond it; "
            f"{len(values)} samples support only p{supported}"
        )
    return percentile(values, pct)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of possibly overlapping intervals."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered_length(children, start, end)
