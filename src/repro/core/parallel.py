"""Sharding helpers for process-pool work: how
:meth:`repro.analysis.experiments.ExperimentSuite.run_all` splits its
``(device, k)`` grid into contiguous chunks."""

from __future__ import annotations

import math

from repro.errors import ReproError

#: Target tasks per worker: enough chunks for load balancing, few enough
#: to amortize per-task pickling.
TASKS_PER_WORKER = 4


def chunk_size_for(n_items: int, workers: int,
                   tasks_per_worker: int = TASKS_PER_WORKER) -> int:
    """Chunk size yielding at most ``workers * tasks_per_worker`` tasks.

    Ceil division: ``floor`` would let the remainder spill into extra
    tasks (up to nearly double the target) and degenerate to 1-item
    chunks for small inputs.
    """
    if workers <= 0:
        raise ReproError(f"workers must be positive, got {workers}")
    return max(1, math.ceil(n_items / (workers * tasks_per_worker)))


def chunk_evenly(items: list, workers: int,
                 tasks_per_worker: int = TASKS_PER_WORKER,
                 chunk_size: int | None = None) -> list[list]:
    """Split ``items`` into contiguous chunks of :func:`chunk_size_for` size."""
    if chunk_size is None:
        chunk_size = chunk_size_for(len(items), workers, tasks_per_worker)
    return [items[i: i + chunk_size]
            for i in range(0, len(items), chunk_size)]
