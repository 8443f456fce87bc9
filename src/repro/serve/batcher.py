"""The coalescing batcher: fuse queued jobs into megabatch waves.

Jobs bucket by their :attr:`~repro.serve.protocol.JobOptions.coalescing_key`
(only jobs that would run on the same kernel configuration may fuse).
The first job landing in an empty bucket arms a **window timer**; when
it expires the bucket is *ripe* and queues for a **wave lane** (one per
worker). Waves form when a lane frees, not when the window ends:

* with a lane idle a ripe bucket launches at once (latency bound: a
  lone job never waits longer than the window);
* with every lane busy it stays open and keeps absorbing jobs of its
  key until a lane is handed back — the wait that would otherwise be
  spent queued behind the running wave fills the next one instead;
* a bucket whose warp estimate crosses the **high-water mark** is
  *sealed*: it stops absorbing (a later job opens a new bucket) and
  queues for a lane without waiting out the window.

Ripe and sealed buckets start strictly in the order they became ready.
``window_s == 0`` seals every job on arrival — one launch per job, the
uncoalesced baseline the benchmark compares against.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.serve.protocol import JobSpec

DEFAULT_WINDOW_S = 0.01
DEFAULT_MAX_WAVE_WARPS = 4096


@dataclass
class _Bucket:
    key: tuple
    jobs: list[JobSpec] = field(default_factory=list)
    warps: int = 0
    timer: asyncio.TimerHandle | None = None  # armed while the window runs
    ready: bool = False                       # queued for a lane


class CoalescingBatcher:
    """Window, high-water and free-lane job fusion before the worker pool.

    ``dispatch(key, jobs)`` is a plain callable invoked once per wave,
    on the event loop, with at least one job and **one lane held**; the
    callee hands the lane back with :meth:`release_lane` once the wave
    has left the executor. Single-threaded by construction: submits,
    timers and releases all run on the loop, so bucket and lane state
    needs no locking — and nothing here awaits between reading that
    state and changing it.
    """

    def __init__(self, dispatch, window_s: float = DEFAULT_WINDOW_S,
                 max_wave_warps: int = DEFAULT_MAX_WAVE_WARPS,
                 window_scale=None, lanes: int = 1) -> None:
        if window_s < 0:
            raise ReproError(f"window_s must be >= 0, got {window_s}")
        if max_wave_warps < 1:
            raise ReproError(
                f"max_wave_warps must be >= 1, got {max_wave_warps}")
        if lanes < 1:
            raise ReproError(f"lanes must be >= 1, got {lanes}")
        self._dispatch = dispatch
        self.window_s = window_s
        self.max_wave_warps = max_wave_warps
        # optional () -> float in [0, 1]: the load shedder shortens the
        # idle-lane wait as in-flight depth grows; sampled per bucket
        self._window_scale = window_scale
        self.lanes = lanes
        self.lanes_busy = 0
        self._buckets: dict[tuple, _Bucket] = {}   # still absorbing
        self._ready: deque[_Bucket] = deque()      # ripe or sealed, FIFO
        self._lane_freed = asyncio.Event()
        self.waves = 0
        self.jobs_waved = 0
        self.biggest_wave = 0

    def effective_window_s(self) -> float:
        if self._window_scale is None:
            return self.window_s
        return self.window_s * max(0.0, min(1.0, self._window_scale()))

    async def submit(self, spec: JobSpec) -> None:
        """Add one admitted job. Never waits for a lane: the job joins
        its key's bucket, which launches when ripe and a lane is free."""
        key = spec.options.coalescing_key
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket(key)
            if self.window_s > 0:
                # a fully shed window (scale 0) ripens on the next loop
                # turn; only a configured window_s == 0 disables fusion
                bucket.timer = asyncio.get_running_loop().call_later(
                    self.effective_window_s(), self._ripen, bucket)
        bucket.jobs.append(spec)
        # each contig runs as one warp per extension direction
        bucket.warps += 2 * spec.n_contigs
        if self.window_s == 0 or bucket.warps >= self.max_wave_warps:
            del self._buckets[key]  # sealed: the next job opens a new one
            self._ripen(bucket)

    async def flush_all(self) -> None:
        """Ripen every open bucket now and wait until all have launched
        (drain on shutdown); with busy lanes that is once they free."""
        for bucket in list(self._buckets.values()):
            self._ripen(bucket)
        while self._ready:
            self._lane_freed.clear()
            await self._lane_freed.wait()

    def release_lane(self) -> None:
        """Hand back the lane a dispatched wave held; starts the next."""
        self.lanes_busy -= 1
        self._pump()
        self._lane_freed.set()

    def stats(self) -> dict:
        pending = list(self._ready) + [b for b in self._buckets.values()
                                       if not b.ready]
        return {"waves": self.waves, "jobs_waved": self.jobs_waved,
                "biggest_wave": self.biggest_wave,
                "window_s": self.window_s,
                "effective_window_s": self.effective_window_s(),
                "max_wave_warps": self.max_wave_warps,
                "pending_buckets": len(pending),
                "pending_jobs": sum(len(b.jobs) for b in pending),
                "ready_waves": len(self._ready),
                "lanes_busy": self.lanes_busy}

    def _ripen(self, bucket: _Bucket) -> None:
        """Window over (or sealed, or flushed): queue for the next lane."""
        if bucket.timer is not None:
            bucket.timer.cancel()
            bucket.timer = None
        if not bucket.ready:
            bucket.ready = True
            self._ready.append(bucket)
        self._pump()

    def _pump(self) -> None:
        while self._ready and self.lanes_busy < self.lanes:
            bucket = self._ready.popleft()
            if self._buckets.get(bucket.key) is bucket:
                del self._buckets[bucket.key]  # ripe: stops absorbing now
            self.lanes_busy += 1
            self.waves += 1
            self.jobs_waved += len(bucket.jobs)
            self.biggest_wave = max(self.biggest_wave, len(bucket.jobs))
            self._dispatch(bucket.key, bucket.jobs)


__all__ = ["CoalescingBatcher", "DEFAULT_MAX_WAVE_WARPS", "DEFAULT_WINDOW_S"]
