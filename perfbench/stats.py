"""The tail-percentile rule shared by every workload."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    For n sorted samples that is the (n - 10)-th smallest, the
    100 * (n - 10) / n percentile by nearest rank. Returns
    (value, percentile).

    Raises:
        ValueError: fewer than TAIL_BEYOND + 1 samples, where no
            percentile has that many samples beyond it.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
