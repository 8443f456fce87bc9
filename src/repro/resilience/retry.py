"""Bounded retry-with-backoff for transient failures.

Only :class:`~repro.errors.TransientError` subclasses are retried —
every other exception (including the rest of the
:class:`~repro.errors.ReproError` hierarchy) is fatal and propagates on
first occurrence. The sleeper is injectable so tests run at full speed.

:func:`backoff_delay` is the shared schedule used both here and by the
serve-side :class:`~repro.serve.supervisor.WaveSupervisor`: geometric
growth with optional seeded jitter, so coordinated retry storms
(every wave of a failed megabatch re-attempting in lockstep) decorrelate
while the schedule stays replayable from the seed.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

import numpy as np

from repro.errors import TransientError

T = TypeVar("T")

#: Default retry budget (attempts beyond the first).
DEFAULT_RETRIES = 2

#: Default base backoff in seconds (doubles per attempt).
DEFAULT_BACKOFF = 0.05

#: Default jitter fraction applied by the serve supervisor (+-25%).
DEFAULT_JITTER = 0.25


def backoff_delay(
    attempt: int,
    *,
    backoff: float = DEFAULT_BACKOFF,
    jitter: float = 0.0,
    rng: np.random.Generator | None = None,
) -> float:
    """Delay in seconds before re-attempt ``attempt`` (0-based).

    The base schedule is geometric (``backoff * 2**attempt``). When
    ``jitter > 0`` the delay is scaled by a factor drawn uniformly from
    ``[1 - jitter, 1 + jitter]`` using the caller's *seeded* generator —
    an explicit ``rng`` is required so jittered schedules stay
    deterministic (matching the repo-wide seeded-randomness rule).
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if not 0.0 <= jitter < 1.0:
        raise ValueError(f"jitter must be in [0, 1), got {jitter}")
    delay = backoff * (2 ** attempt)
    if jitter > 0.0:
        if rng is None:
            raise ValueError("jitter requires a seeded numpy Generator")
        delay *= 1.0 + jitter * float(rng.uniform(-1.0, 1.0))
    return max(0.0, delay)


def retry_transient(
    fn: Callable[[], T],
    *,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn``, retrying up to ``retries`` times on transient errors.

    Backoff follows :func:`backoff_delay`'s geometric schedule. The
    final transient failure — and any non-transient exception —
    propagates to the caller.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    attempt = 0
    while True:
        try:
            return fn()
        except TransientError:
            if attempt >= retries:
                raise
            if backoff > 0:
                sleep(backoff_delay(attempt, backoff=backoff))
            attempt += 1
