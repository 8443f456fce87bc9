"""Multi-tenant megabatch coalescing: fuse N jobs into one launch wave.

The serving tier (:mod:`repro.serve`) runs many *small* jobs, each a
few contigs with its own k schedule. Warps are independent (each owns a
disjoint slot range of the fused tables; every phase decision is
warp-local), so a warp of a fused launch behaves bit for bit as it does
solo. So:

1. **Execute fused**: per k, every active job is planned with the
   kernel's own launch policy and narrowed to the contig ends its solo
   schedule launches at that k; *all* resulting segments — every bin,
   both ends, every tenant — are concatenated
   (:func:`~repro.kernels.engine.prepare.concat_batches`) and run
   through construct and walk **once**. Construct only *logs* the
   arrays behind each iteration (entry layout:
   :mod:`repro.kernels.engine.tally`); the walk writes each segment's
   rows itself (:attr:`WalkPhase.warp_base
   <repro.kernels.engine.walk.WalkPhase.warp_base>`); the bus has no
   subscriber.
2. **Attribute**: one vectorized pass
   (:func:`~repro.kernels.engine.attribution.attribute`) turns
   the log into every segment's construct rows — exactly its solo
   run's — and clears it.
3. **Charge per job**: each job's launch tallies are charged in solo
   launch order by the fold a solo launch ends in
   (:func:`~repro.kernels.engine.tally.charge`), so profiles and
   traffic are a one-at-a-time run's by construction (drift guard:
   ``tests/kernels/test_coalesce_parity.py``).

A kernel that does not fuse (:meth:`LocalAssemblyKernel._fuses`: a
subscriber wants slot-numbered evidence) runs every job of the wave
through its own ``run_schedule``. Overflow is settled during replay by
the kernel's ``_settle``, as solo: retries re-fuse only the failing
segments, and under ``raise`` the solo
:class:`~repro.errors.HashTableFullError` becomes the job's
:attr:`CoalescedJobResult.error`, its co-tenants unaffected. Fault
injection takes the fingerprint-scoped wave kinds only
(``worker-crash``, ``wave-stall``, ``launch-failure``); kinds that
mutate a batch or a profile, and launch-ordinal scopes, are rejected
with a :class:`~repro.errors.KernelError`: fusion changes both, so
they could not replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HashTableFullError, KernelError
from repro.genomics.contig import Contig
from repro.kernels.engine.attribution import (
    attribute,
    Segment,
    record_attempt,
)
from repro.kernels.engine.events import EventBus
from repro.kernels.engine.prepare import concat_batches
from repro.kernels.engine.schedule import (
    KernelRunResult,
    KSchedule,
    narrow_plans,
    validate_k_schedule,
)
from repro.kernels.engine.simt import LocalAssemblyKernel
from repro.resilience.faults import WAVE_FAULT_KINDS


@dataclass
class CoalescedJobResult:
    """One job's outcome of a coalesced wave: exactly one of ``result``
    / ``error`` is set, and a ``result`` — diagnostics included — is
    byte-identical to what a solo ``kernel.run_schedule`` call would
    have returned for the same contigs."""

    result: KernelRunResult | None
    error: HashTableFullError | None = None


class _Job(KSchedule):
    """One tenant's k schedule in a wave, with what the wave needs
    beside it: its contigs, the segments of the k in flight, and the
    error that ended it under the RAISE policy."""

    def __init__(self, contigs: list[Contig],
                 k_schedule: tuple[int, ...]) -> None:
        super().__init__(len(contigs), k_schedule)
        self.contigs = contigs
        self.segments: list[Segment] = []
        self.error: HashTableFullError | None = None

    @property
    def done(self) -> bool:
        return self.error is not None or super().done


# ----------------------------------------------------------------------
# fused execution
# ----------------------------------------------------------------------


def _run_fused_group(kernel, group: list[Segment], k: int,
                     construct, walker) -> None:
    """Run one fused launch (plus grow-retry re-launches) over ``group``.

    Every launch fuses only the still-retrying segments; each segment's
    per-attempt record (its share of the attributed launch, result
    slices, failures) lands in ``segment.records`` for the replay pass.
    """
    def launch_live(live: list[Segment], attempt: int) -> None:
        fused, warp_base = concat_batches([seg.sub for seg in live])
        tables = kernel.tables_cls(fused.capacities, k)
        construct.log, walker.warp_base = [], warp_base
        bus = EventBus()    # nobody listens: a fused program counts only
        cres = construct.run(fused, tables, bus)
        wres = walker.run(fused, tables, bus)
        # the bulk of a wave's memory dies before the log is reduced
        del fused, tables
        record_attempt(live, warp_base, attribute(construct.log, warp_base),
                       cres.overflowed, wres, attempt)

    kernel._run_attempts(group, launch_live)


# ----------------------------------------------------------------------
# per-job replay
# ----------------------------------------------------------------------


def _replay_job_k(kernel, job: _Job, k: int, parallel_scale: float) -> None:
    """Replay one job's k-run and fold it into the job's schedule.

    ``LocalAssemblyKernel.run``'s launch loop fed from the attributed
    fused launches instead of executing phases — the kernel's own
    ``_begin_run`` and ``_replay``, which charges each launch's tally —
    then :meth:`KSchedule.add`.
    """
    krun = kernel._begin_run(len(job.contigs), k, parallel_scale,
                             len(job.segments))
    try:
        kernel._replay(krun, job.segments)
    except HashTableFullError as error:    # the RAISE policy, settling
        job.error = error
        return
    job.add(k, krun.result())


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------


def _run_solo(kernel, contigs: list[Contig], k_schedule: tuple[int, ...],
              parallel_scale: float) -> CoalescedJobResult:
    """One job of a wave that does not fuse: the kernel's own schedule."""
    try:
        return CoalescedJobResult(
            kernel.run_schedule(contigs, k_schedule, parallel_scale))
    except HashTableFullError as error:
        return CoalescedJobResult(result=None, error=error)


def _validate_coalesced_injector(injector, n_jobs: int,
                                 fingerprints: list[str] | None) -> None:
    """Reject fault plans that cannot fire deterministically under fusion."""
    never = sorted({spec.kind.value for spec in injector.plan.faults
                    if spec.kind not in WAVE_FAULT_KINDS})
    if never:
        raise KernelError(
            f"fault kinds {never} never fire in a coalesced wave; a wave "
            f"takes {sorted(kind.value for kind in WAVE_FAULT_KINDS)}, "
            "scoped by job fingerprint")
    if any(spec.launch is not None for spec in injector.plan.faults):
        raise KernelError(
            "launch-ordinal-scoped faults are not replayable under "
            "fusion (ordinals depend on how jobs were coalesced); "
            "scope the spec by job fingerprint instead")
    if fingerprints is not None and len(fingerprints) != n_jobs:
        raise KernelError("fingerprints must align with jobs")


def run_schedule_coalesced(
    kernel,
    jobs: list[list[Contig]],
    k_schedule: tuple[int, ...] = (21, 33, 55, 77),
    parallel_scale: float = 1.0,
    fingerprints: list[str] | None = None,
) -> list[CoalescedJobResult]:
    """Run N jobs' k-schedules as fused multi-tenant launch waves.

    Results (outputs, profiles, overflow sets, traces, sanitizer
    verdicts) are byte-identical to ``kernel.run_schedule(job, ...)``
    run per job. A k's fused launch carries, of every job still active,
    exactly the contig ends that job's solo schedule launches at that k:
    all of them at the first k, afterwards the ones still forking.
    A diagnostic kernel's wave (one that does not fuse: tracing, trace
    replay, sanitizing) runs solo per job instead.
    ``fingerprints`` optionally names each job (the
    serve tier passes request fingerprints) so a seeded
    :class:`~repro.resilience.FaultInjector` on the kernel can attribute
    wave-scoped faults per job; an injector whose plan names a kind
    outside :data:`~repro.resilience.WAVE_FAULT_KINDS` is rejected up
    front.
    """
    if not isinstance(kernel, LocalAssemblyKernel):
        # fusion drives the kernel's phases, bus and launch policy
        # directly; a backend that only offers run() has none of them
        raise KernelError(
            f"run_schedule_coalesced needs a LocalAssemblyKernel, "
            f"not {type(kernel).__name__}")
    if not jobs:
        raise KernelError("run_schedule_coalesced needs at least one job")
    for j, contigs in enumerate(jobs):
        if not contigs:
            raise KernelError(f"coalesced job {j} has no contigs")
    if kernel.fault_injector is not None:
        _validate_coalesced_injector(kernel.fault_injector, len(jobs),
                                     fingerprints)
        # may raise InjectedCrashError (fatal) or BackendLaunchError
        # (transient) before any launch — whole-wave faults, attributed
        # by fingerprint, absorbed by the serve supervisor's bisection
        kernel.fault_injector.begin_wave(list(fingerprints or []))
    validate_k_schedule(k_schedule)
    if parallel_scale <= 0 or parallel_scale > 1:
        raise KernelError(
            f"parallel_scale must be in (0, 1], got {parallel_scale}")

    if not kernel._fuses():
        return [_run_solo(kernel, contigs, k_schedule, parallel_scale)
                for contigs in jobs]

    wave = [_Job(contigs, k_schedule) for contigs in jobs]
    construct, walker = kernel._phases()
    construct.frees_keys = True     # a fused batch is built per launch
    config = kernel.launch_config()

    for k in k_schedule:
        active = [job for job in wave if not job.done]
        if not active:
            break
        for job in active:
            job.segments = [
                Segment(plan, kernel.preparer.prepare(
                    job.contigs, plan.bin, plan.end, k).without_reads())
                for plan in narrow_plans(
                    kernel.launch_policy.plan(job.contigs, k, config),
                    job.contigs, job.pending())]
        # one lockstep program per k: every bin, both ends, every tenant
        _run_fused_group(kernel, [seg for job in active
                                  for seg in job.segments],
                         k, construct, walker)
        for job in active:
            _replay_job_k(kernel, job, k, parallel_scale)

    return [CoalescedJobResult(None, job.error) if job.error is not None
            else CoalescedJobResult(job.result(kernel.device))
            for job in wave]
