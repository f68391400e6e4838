"""Order statistics the benchmark reports: medians, quartiles, ratios.

Every gated figure is a median of per-pair (or per-cycle) ratios of the
program's wall time to LAPACK's on the same inputs, measured back to
back. Host speed drift moves both sides of a pair together, so the
ratio cancels it where an absolute time would not.
"""

from __future__ import annotations

import statistics


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = median(values)
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def _share(width: float, mid: float) -> float:
    if mid:
        return width / mid
    return 0.0 if width == 0 else float("inf")


def iqr_spread(values: list[float]) -> float:
    """(Q3 − Q1) / median: the run-to-run steadiness figure."""
    q1, q2, q3 = quartiles(values)
    return _share(q3 - q1, q2)


def range_spread(values: list[float]) -> float:
    """(max − min) / median."""
    return _share(max(values) - min(values), median(values))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return float(ordered[int(rank) - 1])


def pair_ratios(num: list[float], den: list[float]) -> list[float]:
    """Element-wise ``num[i] / den[i]`` over interleaved pairs."""
    if len(num) != len(den):
        raise ValueError(f"unpaired samples: {len(num)} vs {len(den)}")
    return [a / b for a, b in zip(num, den)]


def median_pair_ratio(num: list[float], den: list[float]) -> float:
    return median(pair_ratios(num, den))


def cycle_sum_ratios(num: list[float], den: list[float], cycle: int) -> list[float]:
    """Σnum / Σden over each complete cycle of ``cycle`` consecutive pairs.

    A trailing partial cycle is dropped: its plan mix differs from a full
    cycle's, so its ratio would not be comparable.
    """
    if cycle < 1:
        raise ValueError(f"cycle must be >= 1, got {cycle}")
    if len(num) != len(den):
        raise ValueError(f"unpaired samples: {len(num)} vs {len(den)}")
    full = len(num) - len(num) % cycle
    return [
        sum(num[i : i + cycle]) / sum(den[i : i + cycle]) for i in range(0, full, cycle)
    ]
