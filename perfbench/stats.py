"""The tail-percentile rule shared by the benchmark and its self-tests."""

from __future__ import annotations

# A tail percentile is reported only where this many samples lie beyond it.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that has
    at least TAIL_BEYOND samples above it.

    With fewer than TAIL_BEYOND + 1 samples no such percentile exists and
    the maximum (percentile 100) is returned instead.
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
