"""The tail-latency rule the benchmark reports."""
from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns (value, rank in percent, samples beyond it). Runs with fewer than
    ``2 * TAIL_BEYOND + 1`` samples keep half of them beyond, so the value
    never drops below the median; the returned count says how many.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    beyond = min(TAIL_BEYOND, len(xs) // 2)
    i = len(xs) - 1 - beyond
    return xs[i], 100.0 * (i + 1) / len(xs), beyond
