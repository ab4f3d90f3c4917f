"""Wall-clock timing and peak-memory measurement helpers."""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Measurement:
    """One measured run: wall seconds plus Python-level peak bytes."""

    seconds: float = 0.0
    peak_bytes: int = 0


@contextmanager
def measure(track_memory: bool = True):
    """Context manager yielding a :class:`Measurement` filled on exit.

    Peak memory is tracked with :mod:`tracemalloc`, which covers numpy
    array allocations; interpreter baseline memory is excluded, which is
    the comparison that matters between construction strategies.
    """
    result = Measurement()
    was_tracing = tracemalloc.is_tracing()
    if track_memory and not was_tracing:
        tracemalloc.start()
    if track_memory:
        tracemalloc.reset_peak() if tracemalloc.is_tracing() else None
    start = time.perf_counter()
    try:
        yield result
    finally:
        result.seconds = time.perf_counter() - start
        if track_memory and tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            result.peak_bytes = peak
            if not was_tracing:
                tracemalloc.stop()


def fit_loglog_slope(xs, ys) -> tuple[float, float]:
    """Least-squares fit of ``log y = a log x + b`` (the Fig 9 check).

    Returns ``(a, b)``.  The paper fits the thread-scaling curve this
    way and finds a ≈ -1 (linear scaling).
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need at least two points")
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("log-log fit needs positive values")
    a, b = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(a), float(b)
