"""Percentiles over latency samples in which a failed operation is +inf."""

from __future__ import annotations

import math

# ``tail`` reports the highest of these levels that has at least
# TAIL_BEYOND samples above it, so the level moves only when the sample
# count crosses 40 or 100.  Levels above p90 are left out: on a shared
# machine the top few percent of samples of a short operation are the
# machine's slowest moments more than the program's slowest inputs.
LEVELS = (50.0, 75.0, 90.0)
TAIL_BEYOND = 10
# runs measure at least this many samples of each tailed kind, so that
# every tail is p90: a tail whose level moved with the number of samples
# a run happened to take would jump between p75 and p90 from run to run
MIN_TAIL_SAMPLES = 100


def _rank(n: int, level: float) -> int:
    """1-based nearest rank of the ``level`` percentile among ``n`` samples."""
    return max(1, math.ceil(level / 100.0 * n - 1e-9))


def percentile(samples: list[float], level: float) -> float:
    """Nearest-rank percentile; +inf samples sort last."""
    if not samples:
        raise ValueError("no samples")
    return sorted(samples)[_rank(len(samples), level) - 1]


def tail_level(n: int) -> float | None:
    """The highest level with at least TAIL_BEYOND of ``n`` samples beyond it."""
    best = None
    for level in LEVELS:
        if n - _rank(n, level) >= TAIL_BEYOND:
            best = level
    return best


def tail(samples: list[float]) -> tuple[float, float]:
    """(level, value) of the tail percentile; raises when there are too few samples."""
    level = tail_level(len(samples))
    if level is None:
        raise ValueError(f"{len(samples)} samples leave no percentile with "
                         f"{TAIL_BEYOND} samples beyond it")
    return level, percentile(samples, level)
