"""Estimators shared by the harness, ``compare.py`` and the tests.

Standard library only, so ``compare.py`` works on result files without
the engine importable.
"""

from __future__ import annotations

import statistics

median = statistics.median


def percentile(values, q: float) -> float:
    """``q``-th percentile with linear interpolation between order
    statistics (NumPy's default rule)."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of an empty sample")
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def block_seconds(step_s, is_sort, period: int) -> float:
    """Time of one sort period — ``period`` consecutive steps, exactly
    one of which sorts — composed from the median of each class of
    step: ``(period - 1)`` plain steps plus one sort step.

    Composed per class instead of measured over whole blocks because a
    window of a few seconds holds only two or three blocks, and any
    statistic over two blocks is moved by a single scheduler stall;
    the per-class medians are not until half of a class is stalled.
    """
    plain = [t for t, s in zip(step_s, is_sort) if not s]
    sort = [t for t, s in zip(step_s, is_sort) if s]
    if not plain or not sort:
        raise ValueError(
            "window must hold at least one sort step and one plain step "
            f"(got {len(sort)} and {len(plain)})"
        )
    return (period - 1) * median(plain) + median(sort)


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the
    median; 0 for fewer than two values (no spread to speak of)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return abs(q3 - q1) / abs(mid) if mid else float("inf")
