"""The coalescing batcher: fuse queued jobs into megabatch waves.

Jobs bucket by their :attr:`~repro.serve.protocol.JobOptions.coalescing_key`
(only jobs that would run on the same kernel configuration may fuse).
The batcher is **work-conserving**: a bucket queues for a **wave lane**
(one per worker) the moment it is opened, so a lane never sits idle
while a job waits. Waves form when a lane frees:

* with a lane idle the first job of a bucket launches at once, on the
  loop turn that submitted it;
* with every lane busy the bucket stays open and keeps absorbing jobs of
  its key until a lane is handed back — the wait that would otherwise be
  spent queued behind the running wave fills the next one instead;
* a bucket whose warp estimate crosses the **high-water mark** is
  *sealed*: it stops absorbing (a later job opens a new bucket).

Buckets start strictly in the order they were opened.
``max_wave_warps=1`` seals every job on arrival — one launch per job,
the uncoalesced baseline the benchmark compares against.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.serve.protocol import JobSpec

DEFAULT_MAX_WAVE_WARPS = 4096


@dataclass
class _Bucket:
    key: tuple
    jobs: list[JobSpec] = field(default_factory=list)
    warps: int = 0


class CoalescingBatcher:
    """Free-lane and high-water job fusion before the worker pool.

    ``dispatch(key, jobs)`` is a plain callable invoked once per wave,
    on the event loop, with at least one job and **one lane held**; the
    callee hands the lane back with :meth:`release_lane` once the wave
    has left the executor. Single-threaded by construction: submits and
    releases all run on the loop, so bucket and lane state needs no
    locking — and nothing here awaits between reading that state and
    changing it.
    """

    def __init__(self, dispatch,
                 max_wave_warps: int = DEFAULT_MAX_WAVE_WARPS,
                 lanes: int = 1) -> None:
        if max_wave_warps < 1:
            raise ReproError(
                f"max_wave_warps must be >= 1, got {max_wave_warps}")
        if lanes < 1:
            raise ReproError(f"lanes must be >= 1, got {lanes}")
        self._dispatch = dispatch
        self.max_wave_warps = max_wave_warps
        self.lanes = lanes
        self.lanes_busy = 0
        self._buckets: dict[tuple, _Bucket] = {}   # still absorbing
        self._ready: deque[_Bucket] = deque()      # not yet launched, FIFO
        self._lane_freed = asyncio.Event()
        self.waves = 0
        self.jobs_waved = 0
        self.biggest_wave = 0

    async def submit(self, spec: JobSpec) -> None:
        """Add one admitted job. Never waits for a lane: the job joins
        its key's bucket, which launches as soon as a lane is free."""
        key = spec.options.coalescing_key
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket(key)
            self._ready.append(bucket)
        bucket.jobs.append(spec)
        # each contig runs as one warp per extension direction
        bucket.warps += 2 * spec.n_contigs
        if bucket.warps >= self.max_wave_warps:
            del self._buckets[key]  # sealed: the next job opens a new one
        self._pump()

    async def flush_all(self) -> None:
        """Wait until every pending bucket has launched (drain on
        shutdown); with busy lanes that is once they free."""
        while self._ready:
            self._lane_freed.clear()
            await self._lane_freed.wait()

    def release_lane(self) -> None:
        """Hand back the lane a dispatched wave held; starts the next."""
        self.lanes_busy -= 1
        self._pump()
        self._lane_freed.set()

    def stats(self) -> dict:
        return {"waves": self.waves, "jobs_waved": self.jobs_waved,
                "biggest_wave": self.biggest_wave,
                "max_wave_warps": self.max_wave_warps,
                "pending_buckets": len(self._ready),
                "pending_jobs": sum(len(b.jobs) for b in self._ready),
                "lanes_busy": self.lanes_busy}

    def _pump(self) -> None:
        while self._ready and self.lanes_busy < self.lanes:
            bucket = self._ready.popleft()
            if self._buckets.get(bucket.key) is bucket:
                del self._buckets[bucket.key]  # launched: stops absorbing
            self.lanes_busy += 1
            self.waves += 1
            self.jobs_waved += len(bucket.jobs)
            self.biggest_wave = max(self.biggest_wave, len(bucket.jobs))
            self._dispatch(bucket.key, bucket.jobs)


__all__ = ["CoalescingBatcher", "DEFAULT_MAX_WAVE_WARPS"]
