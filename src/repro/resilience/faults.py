"""Deterministic fault injection for the engine, the suite and the service.

A :class:`FaultPlan` is a seeded, declarative list of :class:`FaultSpec`
entries; a :class:`FaultInjector` executes the plan at explicit hook
points: the SIMT engine calls :meth:`FaultInjector.begin_launch` /
:meth:`FaultInjector.shape_batch` / :meth:`FaultInjector.degrade_result`
around each launch, :class:`~repro.analysis.experiments.ExperimentSuite`
calls :meth:`FaultInjector.before_run` around each ``(device, k)`` run,
and the serve tier asks :meth:`FaultInjector.wave_fault` /
:meth:`FaultInjector.checkpoint_fault`. :attr:`FaultInjector.fired`
records which launch, warps, run or wave each fault hit; a run's
``degraded`` / ``retried`` lists say what it cost.

All randomness (which bases a corruption flips) comes from one
``numpy`` generator seeded by the plan, so a plan replays identically
run after run — faults are reproducible test fixtures, not chaos.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.errors import BackendLaunchError, ReproError


class InjectedCrashError(ReproError):
    """A deliberately injected *fatal* failure (not retryable).

    Distinct from :class:`~repro.errors.TransientError` so checkpoint /
    resume tests can kill a suite mid-run and assert that retries do
    *not* absorb the crash.
    """


class FaultKind(Enum):
    """The failure modes a :class:`FaultPlan` can inject."""

    #: Clamp chosen warps' hash-table capacities, forcing overflow.
    TABLE_PRESSURE = "table-pressure"
    #: Corrupt read extension bases feeding chosen launches' votes.
    READ_CORRUPTION = "read-corruption"
    #: Raise :class:`~repro.errors.BackendLaunchError` (transient) at launch.
    LAUNCH_FAILURE = "launch-failure"
    #: Zero / NaN the run's profile so the perf model sees degenerate input.
    DEGENERATE_PROFILE = "degenerate-profile"
    #: Abort an :class:`ExperimentSuite` run (fatal unless ``transient``).
    SUITE_CRASH = "suite-crash"
    #: Kill a serve wave mid-flight (:class:`InjectedCrashError`, as if
    #: the pool worker died — the supervisor bisects the blast radius).
    WORKER_CRASH = "worker-crash"
    #: Hang a serve wave past its deadline (the supervisor times out).
    WAVE_STALL = "wave-stall"
    #: Corrupt a job's checkpoint file on disk after it is written.
    CHECKPOINT_CORRUPTION = "checkpoint-corruption"
    #: Delay a checkpoint write (slow disk) by ``delay_s`` seconds.
    SLOW_DISK = "slow-disk"


#: Wave-scoped kinds consumed via :meth:`FaultInjector.wave_fault` /
#: :meth:`FaultInjector.begin_wave`.
WAVE_FAULT_KINDS = frozenset({FaultKind.WORKER_CRASH, FaultKind.WAVE_STALL,
                              FaultKind.LAUNCH_FAILURE})

#: Checkpoint-I/O kinds consumed via :meth:`FaultInjector.checkpoint_fault`.
CHECKPOINT_FAULT_KINDS = frozenset({
    FaultKind.CHECKPOINT_CORRUPTION, FaultKind.SLOW_DISK})


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes:
        kind: which failure mode to inject.
        launch: global launch ordinal (0-based, counted across the
            kernel run) the fault targets; ``None`` matches the next
            opportunity. Used by the engine-level kinds.
        run: suite run ordinal (0-based, counted across
            ``ExperimentSuite`` executions) for :attr:`FaultKind.SUITE_CRASH`;
            ``None`` matches the next run.
        device: restrict a suite fault to one device name (optional).
        k: restrict a suite fault to one k (optional).
        warps: warp indices whose tables get clamped (TABLE_PRESSURE).
        capacity: clamped slot count per targeted warp (TABLE_PRESSURE).
        fraction: fraction of insertion bases to corrupt (READ_CORRUPTION).
        mode: degenerate-profile flavor: ``"zero-intops"`` (an empty
            runtime: the timing model refuses) or ``"nan-bytes"`` (NaN
            intensity: the roofline refuses).
        transient: SUITE_CRASH raises a retryable
            :class:`~repro.errors.BackendLaunchError` instead of the
            fatal :class:`InjectedCrashError`.
        times: how many times the fault may fire before it is spent.
        fingerprint: restrict a serve-scoped fault (WORKER_CRASH,
            WAVE_STALL, CHECKPOINT_CORRUPTION, SLOW_DISK, or a
            wave-level LAUNCH_FAILURE) to waves containing this job
            fingerprint; ``None`` matches any wave. Fingerprint scoping
            — unlike launch ordinals — survives coalescing, bisection
            and re-dispatch, so chaos runs stay replayable.
        delay_s: stall / slow-disk duration in seconds (WAVE_STALL,
            SLOW_DISK).
    """

    kind: FaultKind
    launch: int | None = None
    run: int | None = None
    device: str | None = None
    k: int | None = None
    warps: tuple[int, ...] = (0,)
    capacity: int = 2
    fraction: float = 0.05
    mode: str = "zero-intops"
    transient: bool = False
    times: int = 1
    fingerprint: str | None = None
    delay_s: float = 0.25


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered set of faults to inject."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))


@dataclass(frozen=True)
class FaultRecord:
    """One fired fault, for attribution."""

    kind: FaultKind
    site: str                    #: hook that fired ("launch", "run", ...)
    detail: dict = field(default_factory=dict)


class FaultInjector:
    """Executes a :class:`FaultPlan` against the engine and the suite.

    Attach the same injector instance to every kernel of a suite (the
    suite does this when ``ExperimentConfig.fault_injector`` is set) so
    launch and run ordinals count globally across the whole workload.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self._remaining = [spec.times for spec in plan.faults]
        self.fired: list[FaultRecord] = []
        self._launch_ordinal = 0
        self._run_ordinal = 0

    # ------------------------------------------------------------------
    # matching / bookkeeping

    def _take(self, kind: FaultKind, *, launch: int | None = None,
              device: str | None = None, k: int | None = None,
              run: int | None = None,
              fingerprints: tuple[str, ...] | list[str] | None = None,
              ) -> FaultSpec | None:
        """Consume one charge of the first matching live spec, if any."""
        for i, spec in enumerate(self.plan.faults):
            if spec.kind is not kind or self._remaining[i] <= 0:
                continue
            if launch is not None and spec.launch is not None \
                    and spec.launch != launch:
                continue
            if run is not None and spec.run is not None and spec.run != run:
                continue
            if spec.device is not None and device is not None \
                    and spec.device != device:
                continue
            if spec.k is not None and k is not None and spec.k != k:
                continue
            if spec.fingerprint is not None and (
                    fingerprints is None
                    or spec.fingerprint not in fingerprints):
                continue
            self._remaining[i] -= 1
            return spec
        return None

    def counts(self) -> dict[str, int]:
        """Fired-fault tally by kind value (for smoke checks)."""
        out: dict[str, int] = {}
        for rec in self.fired:
            out[rec.kind.value] = out.get(rec.kind.value, 0) + 1
        return out

    # ------------------------------------------------------------------
    # engine hook points

    def begin_launch(self) -> int:
        """Called by the engine before each planned launch.

        Returns the launch ordinal; raises
        :class:`~repro.errors.BackendLaunchError` when a
        :attr:`FaultKind.LAUNCH_FAILURE` spec targets this launch.
        """
        ordinal = self._launch_ordinal
        self._launch_ordinal += 1
        spec = self._take(FaultKind.LAUNCH_FAILURE, launch=ordinal)
        if spec is not None:
            self.fired.append(FaultRecord(spec.kind, "launch",
                                          {"launch": ordinal}))
            raise BackendLaunchError(
                f"injected transient launch failure (launch {ordinal})")
        return ordinal

    def shape_batch(self, batch, ordinal: int) -> None:
        """Apply capacity pressure / read corruption to a prepared batch.

        Mutates the batch in place: ``capacities`` are clamped for
        targeted warps (TABLE_PRESSURE) and a seeded sample of insertion
        extension bases is rewritten to a different base
        (READ_CORRUPTION).
        """
        spec = self._take(FaultKind.TABLE_PRESSURE, launch=ordinal)
        if spec is not None:
            warps = [w for w in spec.warps if w < batch.n_warps]
            if warps:
                batch.capacities[warps] = max(1, spec.capacity)
            self.fired.append(FaultRecord(spec.kind, "batch", {
                "launch": ordinal, "warps": tuple(warps),
                "capacity": spec.capacity}))
        spec = self._take(FaultKind.READ_CORRUPTION, launch=ordinal)
        if spec is not None:
            n = batch.ins_ext.size
            hits = 0
            if n:
                hits = max(1, int(round(spec.fraction * n)))
                idx = self.rng.choice(n, size=min(hits, n), replace=False)
                # rotate each base by 1..3 so every hit becomes a
                # different base — a guaranteed-visible corruption
                shift = self.rng.integers(1, 4, size=idx.size,
                                          dtype=np.uint8)
                batch.ins_ext[idx] = (batch.ins_ext[idx] + shift) % 4
            self.fired.append(FaultRecord(spec.kind, "batch", {
                "launch": ordinal, "corrupted": int(hits)}))

    def degrade_result(self, result) -> None:
        """Inject degenerate perf-model inputs into a finished run."""
        while True:
            spec = self._take(FaultKind.DEGENERATE_PROFILE)
            if spec is None:
                break
            if spec.mode == "zero-intops":
                result.profile.intops = 0
            elif spec.mode == "nan-bytes":
                result.profile.hbm_bytes = float("nan")
            else:
                raise ReproError(
                    f"unknown degenerate-profile mode {spec.mode!r}")
            self.fired.append(FaultRecord(spec.kind, "result",
                                          {"mode": spec.mode}))

    # ------------------------------------------------------------------
    # suite hook point

    def before_run(self, device_name: str, k: int) -> None:
        """Called by the suite before each ``(device, k)`` execution.

        Raises :class:`InjectedCrashError` (fatal) or
        :class:`~repro.errors.BackendLaunchError` (transient, per the
        spec) when a :attr:`FaultKind.SUITE_CRASH` targets this run.
        """
        ordinal = self._run_ordinal
        self._run_ordinal += 1
        spec = self._take(FaultKind.SUITE_CRASH, run=ordinal,
                          device=device_name, k=k)
        if spec is None:
            return
        detail = {"run": ordinal, "device": device_name, "k": k}
        self.fired.append(FaultRecord(spec.kind, "run", detail))
        if spec.transient:
            raise BackendLaunchError(
                f"injected transient suite failure at {device_name}/k={k}")
        raise InjectedCrashError(
            f"injected suite crash at {device_name}/k={k} (run {ordinal})")

    # ------------------------------------------------------------------
    # serve hook points (wave supervision / checkpoint I/O)

    def wave_fault(self, fingerprints: list[str]) -> FaultSpec | None:
        """Fire one wave-scoped fault matching this wave's jobs.

        Called before a wave is dispatched: by the serve-side
        :class:`WaveSupervisor` in the service process, where the plan's
        ``times`` accounting is shared across retries and bisection
        halves (pool workers cannot share that state), and by
        :meth:`begin_wave`. ``WORKER_CRASH`` raises
        :class:`InjectedCrashError` and ``LAUNCH_FAILURE`` the transient
        :class:`~repro.errors.BackendLaunchError`; a ``WAVE_STALL`` spec
        is returned for the caller to hang the wave with.
        """
        for kind in (FaultKind.WORKER_CRASH, FaultKind.WAVE_STALL,
                     FaultKind.LAUNCH_FAILURE):
            spec = self._take(kind, fingerprints=fingerprints)
            if spec is None:
                continue
            self.fired.append(FaultRecord(spec.kind, "wave", {
                "fingerprints": tuple(fingerprints),
                "fingerprint": spec.fingerprint,
                "delay_s": spec.delay_s}))
            if kind is FaultKind.WORKER_CRASH:
                raise InjectedCrashError(
                    f"injected worker crash mid-wave ({len(fingerprints)} jobs)")
            if kind is FaultKind.LAUNCH_FAILURE:
                raise BackendLaunchError(
                    "injected transient wave launch failure "
                    f"({len(fingerprints)} jobs)")
            return spec
        return None

    def begin_wave(self, fingerprints: list[str]) -> None:
        """Engine hook: called by ``run_schedule_coalesced`` per wave —
        :meth:`wave_fault`, with a stall slept inline (the caller's
        deadline may fire)."""
        spec = self.wave_fault(list(fingerprints))
        if spec is not None:
            time.sleep(spec.delay_s)

    def checkpoint_fault(self, fingerprint: str) -> FaultSpec | None:
        """Consume one checkpoint-I/O fault scoped to this job, if any.

        Returns the spec (``CHECKPOINT_CORRUPTION`` or ``SLOW_DISK``)
        for the caller to apply — corruption is applied by the service
        *after* the store's atomic write, modeling bit rot rather than a
        torn write (torn writes are already impossible by rename).
        """
        for kind in (FaultKind.CHECKPOINT_CORRUPTION, FaultKind.SLOW_DISK):
            spec = self._take(kind, fingerprints=(fingerprint,))
            if spec is not None:
                self.fired.append(FaultRecord(spec.kind, "checkpoint", {
                    "fingerprint": fingerprint, "delay_s": spec.delay_s}))
                return spec
        return None


def corrupt_file(path) -> None:
    """Deterministically corrupt a file in place (chaos helper).

    Truncates to half length and appends garbage, so the result is both
    invalid JSON and CRC-mismatched — exercising quarantine, not parsing
    luck.
    """
    from pathlib import Path

    p = Path(path)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) // 2] + b"\x00corrupt")
