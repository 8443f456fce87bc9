"""Wave supervision: deadlines, retries, bisection, breakers, shedding.

PR 7's service had exactly one failure mode for a fused wave: any
exception fails *every* job coalesced into it. This module is the fault
boundary that replaces that hole.

**WaveSupervisor** runs each wave under a deadline derived from the
jobs' own ``deadline_s`` budgets (minimum across the wave — a fused
launch can't honor one tenant's deadline by blowing another's).
Transient failures (:class:`~repro.errors.TransientError`) retry in
place with the shared :func:`~repro.resilience.retry.backoff_delay`
schedule, jittered by a seeded generator so retry storms decorrelate
deterministically. A worker crash (``BrokenExecutor`` /
:class:`~repro.resilience.InjectedCrashError`), a blown deadline, or a
deterministic wave poison triggers **blast-radius bisection**: the wave
re-runs as two halves, recursively, down to solo launches. Because
coalesced execution is byte-identical to solo execution per job (the
record/replay parity invariant of
:func:`~repro.kernels.engine.run_schedule_coalesced`), re-running a
half-wave yields exactly the results the original wave would have — so
a poisoned job fails alone while its co-tenants' results are unchanged,
bytewise. Bisection recurses sequentially (left half, then right) so
chaos runs replay deterministically.

**CircuitBreaker** tracks consecutive failures per coalescing key.
A key that keeps failing stops being fused — its jobs degrade to solo
launches (isolation, not rejection: solo work still completes) — until
a cooldown passes and a half-open probe wave is allowed to re-coalesce.

**LoadShedder** converts in-flight depth into backpressure: past a
configurable depth the batcher's coalescing window shrinks linearly to
zero (a bucket then ripens at once and launches into the first free
lane; with every lane busy it keeps fusing until one frees), and
while any breaker is open the admission budget is halved (degraded
capacity should refuse early, not accept work it will run slowly).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import BrokenExecutor

import numpy as np

from repro.errors import ReproError, TransientError
from repro.resilience.faults import FaultInjector, InjectedCrashError
from repro.resilience.retry import (
    DEFAULT_BACKOFF,
    DEFAULT_JITTER,
    DEFAULT_RETRIES,
    backoff_delay,
)
from repro.serve.protocol import JobSpec

#: Per-job deadline when the submission does not name one.
DEFAULT_DEADLINE_S = 60.0

#: Consecutive failures per key before its breaker opens.
DEFAULT_BREAKER_THRESHOLD = 3

#: Seconds an open breaker waits before allowing a half-open probe.
DEFAULT_BREAKER_COOLDOWN_S = 5.0


class WaveDeadlineError(ReproError):
    """A wave ran past the deadline derived from its jobs' budgets."""


class CircuitBreaker:
    """Per-coalescing-key failure tracking with half-open recovery.

    Purely synchronous bookkeeping on the event loop; the clock is
    injectable so tests control time.
    """

    def __init__(self, threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
                 clock=time.monotonic) -> None:
        if threshold < 1:
            raise ReproError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._keys: dict[tuple, dict] = {}
        self.opened = 0

    def _entry(self, key: tuple) -> dict:
        entry = self._keys.get(key)
        if entry is None:
            entry = self._keys[key] = {
                "state": "closed", "failures": 0, "opened_at": 0.0}
        return entry

    def state(self, key: tuple) -> str:
        entry = self._keys.get(key)
        return entry["state"] if entry is not None else "closed"

    def allows_fusion(self, key: tuple) -> bool:
        """May this key's jobs still be coalesced into shared waves?"""
        entry = self._entry(key)
        if entry["state"] == "open":
            if self._clock() - entry["opened_at"] >= self.cooldown_s:
                entry["state"] = "half-open"
                return True
            return False
        return True

    def record_success(self, key: tuple) -> None:
        entry = self._entry(key)
        entry["state"] = "closed"
        entry["failures"] = 0

    def record_failure(self, key: tuple) -> None:
        entry = self._entry(key)
        if entry["state"] == "half-open":
            # the probe failed: straight back to open, cooldown restarts
            entry["state"] = "open"
            entry["opened_at"] = self._clock()
            self.opened += 1
            return
        entry["failures"] += 1
        if entry["state"] == "closed" and entry["failures"] >= self.threshold:
            entry["state"] = "open"
            entry["opened_at"] = self._clock()
            self.opened += 1

    def open_keys(self) -> int:
        return sum(1 for e in self._keys.values() if e["state"] == "open")

    def stats(self) -> dict:
        return {
            "keys": len(self._keys),
            "open": self.open_keys(),
            "half_open": sum(1 for e in self._keys.values()
                             if e["state"] == "half-open"),
            "opened_total": self.opened,
            "threshold": self.threshold,
            "cooldown_s": self.cooldown_s,
        }


#: Fraction of the in-flight budget at which the window starts to shrink.
SHED_START = 0.5
#: Fraction of the in-flight budget admitted while any breaker is open.
DEGRADED_FRACTION = 0.5


class LoadShedder:
    """Depth-proportional backpressure for the batcher and admission.

    ``window_scale`` multiplies the batcher's coalescing window — how
    long a bucket waits for company while a lane sits idle: 1.0 up to
    :data:`SHED_START` of the in-flight budget, then linearly down to 0.0
    at the full budget. A fully shed window does not mean solo waves:
    it only drops the idle-lane wait, and under a deep backlog the
    lanes are busy, so buckets go on absorbing jobs until one frees.
    ``admission_budget``
    halves while any circuit breaker is open: degraded capacity refuses
    work up front instead of queueing it behind solo launches.
    """

    def __init__(self, max_in_flight: int) -> None:
        self.max_in_flight = max_in_flight

    def window_scale(self, in_flight: int) -> float:
        start = SHED_START * self.max_in_flight
        if in_flight <= start:
            return 1.0
        span = self.max_in_flight - start
        if span <= 0:
            return 0.0
        return max(0.0, 1.0 - (in_flight - start) / span)

    def admission_budget(self, open_breakers: int) -> int:
        if open_breakers <= 0:
            return self.max_in_flight
        return max(1, int(self.max_in_flight * DEGRADED_FRACTION))

    def stats(self, in_flight: int, open_breakers: int) -> dict:
        return {
            "window_scale": round(self.window_scale(in_flight), 4),
            "admission_budget": self.admission_budget(open_breakers),
            "shed_start": SHED_START,
        }


class WaveSupervisor:
    """The fault boundary between the batcher and the worker pool.

    Args:
        execute: async callable ``execute(jobs) -> list[dict]`` running
            one wave (the service's executor dispatch).
        default_deadline_s: per-job deadline when a submission has none.
        retries: in-place re-attempts for transient failures per wave.
        backoff_s: base of the geometric retry backoff.
        jitter: jitter fraction on the backoff (seeded, deterministic).
        seed: seeds the jitter generator.
        breaker: shared :class:`CircuitBreaker` (one per service).
        injector: optional seeded :class:`~repro.resilience.FaultInjector`
            whose wave-scoped faults fire here, in the service process —
            pool workers cannot share the plan's ``times`` accounting,
            and firing before dispatch keeps chaos deterministic under
            bisection and retry.
    """

    def __init__(self, execute, *,
                 default_deadline_s: float = DEFAULT_DEADLINE_S,
                 retries: int = DEFAULT_RETRIES,
                 backoff_s: float = DEFAULT_BACKOFF,
                 jitter: float = DEFAULT_JITTER,
                 seed: int = 0,
                 breaker: CircuitBreaker | None = None,
                 injector: FaultInjector | None = None) -> None:
        if default_deadline_s <= 0:
            raise ReproError(
                f"default_deadline_s must be > 0, got {default_deadline_s}")
        self.execute = execute
        self.default_deadline_s = default_deadline_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.jitter = jitter
        self.rng = np.random.default_rng(seed)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.injector = injector
        self.waves_launched = 0
        self.waves_timed_out = 0
        self.waves_crashed = 0
        self.transient_retries = 0
        self.bisections = 0
        self.degraded_waves = 0
        self.jobs_failed = 0

    def deadline_for(self, jobs: list[JobSpec]) -> float:
        """The wave deadline: the tightest job budget in the wave."""
        budgets = [job.deadline_s for job in jobs
                   if job.deadline_s is not None]
        budgets.append(self.default_deadline_s)
        return min(budgets)

    async def run(self, key: tuple, jobs: list[JobSpec]) -> list[dict]:
        """Supervise one wave; always returns one payload per job."""
        if len(jobs) > 1 and not self.breaker.allows_fusion(key):
            # open breaker: this key has been failing — stop fusing and
            # run each job alone, so one tenant's poison cannot keep
            # taking co-tenants down while the key recovers
            self.degraded_waves += 1
            payloads: list[dict] = []
            for job in jobs:
                payloads.extend(await self._supervise(key, [job]))
            return payloads
        return await self._supervise(key, jobs)

    async def _attempt(self, jobs: list[JobSpec]) -> list[dict]:
        deadline = self.deadline_for(jobs)
        if self.injector is not None:
            # raises for a worker crash or a launch failure
            spec = self.injector.wave_fault([j.fingerprint for j in jobs])
            if spec is not None:
                # WAVE_STALL: the wave hangs for delay_s. Model the hang
                # here, off the executor (chaos runs stay deterministic)
                # but with the wave's lane held, as a genuinely stuck
                # wave would hold it; past the deadline it surfaces
                # exactly like a genuine timeout.
                await asyncio.sleep(min(spec.delay_s, deadline))
                if spec.delay_s >= deadline:
                    raise WaveDeadlineError(
                        f"wave deadline exceeded after {deadline:g}s "
                        f"(injected stall of {spec.delay_s:g}s)")
        try:
            return await asyncio.wait_for(self.execute(jobs),
                                          timeout=deadline)
        except asyncio.TimeoutError:
            raise WaveDeadlineError(
                f"wave deadline exceeded after {deadline:g}s "
                f"({len(jobs)} jobs)") from None

    async def _supervise(self, key: tuple,
                         jobs: list[JobSpec]) -> list[dict]:
        attempt = 0
        while True:
            self.waves_launched += 1
            try:
                payloads = await self._attempt(jobs)
            except TransientError as exc:
                self.breaker.record_failure(key)
                if attempt < self.retries:
                    self.transient_retries += 1
                    delay = backoff_delay(attempt, backoff=self.backoff_s,
                                          jitter=self.jitter, rng=self.rng)
                    if delay > 0:
                        await asyncio.sleep(delay)
                    attempt += 1
                    continue
                return await self._bisect(key, jobs, exc)
            except WaveDeadlineError as exc:
                self.waves_timed_out += 1
                self.breaker.record_failure(key)
                return await self._bisect(key, jobs, exc)
            except (BrokenExecutor, InjectedCrashError) as exc:
                self.waves_crashed += 1
                self.breaker.record_failure(key)
                return await self._bisect(key, jobs, exc)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # deterministic wave-level poison (bad backend, a bug):
                # bisection attributes it to the job(s) that trigger it
                self.breaker.record_failure(key)
                return await self._bisect(key, jobs, exc)
            else:
                self.breaker.record_success(key)
                return payloads

    async def _bisect(self, key: tuple, jobs: list[JobSpec],
                      exc: Exception) -> list[dict]:
        """Shrink the blast radius: re-run halves, fail solo jobs alone."""
        if len(jobs) == 1:
            self.jobs_failed += 1
            return [{
                "ok": False,
                "error": str(exc) or type(exc).__name__,
                "error_type": type(exc).__name__,
                "supervised": True,
            }]
        self.bisections += 1
        mid = len(jobs) // 2
        left = await self._supervise(key, jobs[:mid])
        right = await self._supervise(key, jobs[mid:])
        return left + right

    def stats(self) -> dict:
        return {
            "waves_launched": self.waves_launched,
            "waves_timed_out": self.waves_timed_out,
            "waves_crashed": self.waves_crashed,
            "transient_retries": self.transient_retries,
            "bisections": self.bisections,
            "degraded_waves": self.degraded_waves,
            "jobs_failed": self.jobs_failed,
            "default_deadline_s": self.default_deadline_s,
            "breaker": self.breaker.stats(),
        }


__all__ = [
    "DEFAULT_BREAKER_COOLDOWN_S",
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_DEADLINE_S",
    "CircuitBreaker",
    "LoadShedder",
    "WaveDeadlineError",
    "WaveSupervisor",
]
