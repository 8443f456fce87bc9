"""Multi-tenant megabatch coalescing: fuse N jobs into one launch wave.

The serving tier (:mod:`repro.serve`) needs to run many *small* jobs —
each a handful of contigs with its own k-schedule run — without paying
full per-launch lockstep overhead per job. Warps are fully independent
in this engine (each owns a disjoint slot region of the fused
:class:`~repro.kernels.vectortable.WarpHashTables`, and every phase
decision is warp-local), so the per-warp behaviour of a fused launch is
*bit-identical* to the same warp running solo. That fusion invariance is
what this module exploits:

1. **Execute fused**: per k, every active job is planned with the
   kernel's own launch policy (per-job binning is preserved), narrowed
   to the job's contig ends that have not settled — what its solo
   schedule launches — and *all* resulting segments — every bin, both
   extension directions, every tenant — are concatenated with
   :func:`~repro.kernels.engine.prepare.concat_batches` and run through
   construct + walk **once**: one lockstep program per k. Inside the
   launch the phases only *log*: they append references to the
   per-iteration arrays they already hold to the list the driver
   installs as their ``log`` (entry layout:
   :data:`~repro.kernels.engine.events.LOG_WAVE`); nothing is counted
   in the probe loops, and the bus they are handed has no subscriber.
2. **Attribute after the fact**: once per launch, one vectorized pass
   (:meth:`LaunchRecord.attribute <repro.kernels.engine.attribution.\
LaunchRecord.attribute>`: a single ``searchsorted`` of the
   log's concatenated warps against the segment boundaries, then
   ``bincount`` over ``segment x entry`` keys) turns the log into
   per-segment count columns, stored sparsely — only the (segment,
   entry) pairs in which the segment had lanes, i.e. exactly the events
   its solo run emits. The log itself is cleared at launch end.
3. **Replay per job**: each job's solo event stream is re-emitted, in
   solo launch order (:mod:`repro.kernels.engine.attribution`, shared
   with the solo driver's walk groups), through the kernel's own
   instrumentation stack (:meth:`LocalAssemblyKernel._build_bus`), so
   profiles and traffic are byte-identical to a one-at-a-time run *by
   construction* — the hypothesis parity tests in
   ``tests/kernels/test_coalesce_parity.py`` are the drift guard.

A fused program carries counts only. A kernel that does not fuse
(:meth:`LocalAssemblyKernel._fuses`: a tracer, the trace replayer or a
sanitizer wants slot-numbered evidence) runs every job of the wave
through its own ``run_schedule`` — solo, so trivially identical to solo.

Overflow is settled where a solo run settles it, by the kernel's
``_settle`` during replay: ``drop-contig`` and ``grow-retry`` emit the
per-job drop/retry event sequences (fused retry launches re-fuse only
the failing segments); ``raise`` raises the solo
:class:`~repro.errors.HashTableFullError`, which becomes the job's
:attr:`CoalescedJobResult.error` — an erroring job yields its error
instead of a result, while its co-tenants are unaffected.

Fault injection is supported for the *wave-scoped, fingerprint-scoped*
kinds only (``worker-crash``, ``wave-stall``, ``launch-failure``):
faults attributed to a job fingerprint fire identically no matter how
the wave was fused, bisected, or re-dispatched, so chaos runs stay
replayable. Kinds that mutate a prepared batch or a finished profile
(``table-pressure``, ``read-corruption``, ``degenerate-profile``) and
launch-ordinal-scoped specs are rejected with a clear
:class:`~repro.errors.KernelError` — fusion changes launch ordinals and
batch layouts, so those faults could not replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import HashTableFullError, KernelError
from repro.genomics.contig import Contig
from repro.kernels.engine.attribution import (
    LaunchRecord,
    Segment,
    record_attempt,
)
from repro.kernels.engine.backend import KernelRunResult, ScheduleTail
from repro.kernels.engine.events import EventBus
from repro.kernels.engine.prepare import Batch, concat_batches
from repro.kernels.engine.schedule import (
    SideArrays,
    merge_k_side,
    narrow_plans,
    pending_ends,
    validate_k_schedule,
)
from repro.kernels.engine.simt import LocalAssemblyKernel
from repro.simt.counters import KernelProfile


@dataclass
class CoalescedJobResult:
    """One job's outcome of a coalesced wave.

    Exactly one of ``result`` / ``error`` is set. When ``result`` is
    set, it — and ``replay`` / ``trace`` / ``sanitizer_report`` — are
    byte-identical to what a solo ``kernel.run_schedule`` call (and its
    ``last_replay`` / ``last_trace`` / ``last_sanitizer_report``
    attributes) would have produced for the same contigs: the three are
    a diagnostic kernel's, whose wave *is* its solo runs, and stay empty
    for a kernel that fuses.
    """

    result: KernelRunResult | None
    replay: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    sanitizer_report: object | None = None
    error: HashTableFullError | None = None


# ----------------------------------------------------------------------
# per-job state
# ----------------------------------------------------------------------


class _JobState:
    """Accumulated schedule state of one coalesced job."""

    def __init__(self, contigs: list[Contig], first_k: int) -> None:
        self.contigs = contigs
        self.n = len(contigs)
        self.best_r = SideArrays.empty(self.n)
        self.best_l = SideArrays.empty(self.n)
        self.settled_r = np.zeros(self.n, dtype=bool)
        self.settled_l = np.zeros(self.n, dtype=bool)
        self.merged_profile: KernelProfile | None = None
        self.tail = ScheduleTail()
        self.error: HashTableFullError | None = None
        self.last_k = first_k
        self.segments: list[Segment] = []

    @property
    def done(self) -> bool:
        return (self.error is not None
                or (bool(self.settled_r.all()) and bool(self.settled_l.all())))


# ----------------------------------------------------------------------
# fused execution
# ----------------------------------------------------------------------


def _launch(kernel, subs: list[Batch], k: int, construct, walker) -> tuple:
    """One lockstep program over ``subs``: ``(launch, cres, wres)``.

    The fused batch and its tables — the bulk of a wave's memory — die
    with this frame, before the log is reduced.
    """
    fused, warp_base = concat_batches(subs)
    tables = kernel.tables_cls(fused.capacities, k)
    launch = LaunchRecord(warp_base)
    construct.log = walker.log = launch.log
    bus = EventBus()    # nobody listens: a fused program logs its counts
    return (launch, construct.run(fused, tables, bus),
            walker.run(fused, tables, bus))


def _run_fused_group(kernel, group: list[Segment], k: int,
                     construct, walker) -> None:
    """Run one fused launch (plus grow-retry re-launches) over ``group``.

    Every launch fuses only the still-retrying segments; each segment's
    per-attempt record (its share of the attributed launch, result
    slices, failures) lands in ``segment.records`` for the replay pass.
    """
    def launch_live(live: list[Segment], attempt: int) -> None:
        launch, cres, wres = _launch(kernel, [seg.sub for seg in live], k,
                                     construct, walker)
        launch.attribute()
        record_attempt(live, launch, cres.overflowed, wres, attempt)

    kernel._run_attempts(group, launch_live)


# ----------------------------------------------------------------------
# per-job replay
# ----------------------------------------------------------------------


def _replay_job_k(kernel, state: _JobState, k: int,
                  parallel_scale: float) -> None:
    """Replay one job's k-run and fold it into the job's schedule state.

    ``LocalAssemblyKernel.run``'s launch loop fed from the attributed
    fused launches instead of executing phases — the kernel's own
    ``_begin_run`` and ``_replay`` — plus ``iterate_k_schedule``'s fold
    of the k-run.
    """
    krun = kernel._begin_run(state.n, k, parallel_scale)
    krun.profile.prep_cache_misses = len(state.segments)
    try:
        kernel._replay(krun, state.segments)
    except HashTableFullError as error:    # the RAISE policy, settling
        state.error = error
        return
    if state.merged_profile is None:
        state.merged_profile = krun.profile
    else:
        state.merged_profile.merge(krun.profile)
    merge_k_side(krun.right, state.best_r, state.settled_r)
    merge_k_side(krun.left, state.best_l, state.settled_l)
    state.tail.add(krun.degraded, krun.retried)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------


def _run_solo(kernel, contigs: list[Contig], k_schedule: tuple[int, ...],
              parallel_scale: float) -> CoalescedJobResult:
    """One job of a wave that does not fuse: the kernel's own schedule."""
    try:
        result = kernel.run_schedule(contigs, k_schedule, parallel_scale)
    except HashTableFullError as error:
        return CoalescedJobResult(result=None, error=error)
    return CoalescedJobResult(result, list(kernel.last_replay),
                              kernel.last_trace,
                              kernel.last_sanitizer_report)


#: Fault kinds whose effects depend on launch ordinals or batch layout —
#: both change under fusion, so these cannot replay deterministically.
_COALESCE_UNSUPPORTED_FAULTS = frozenset({
    "table-pressure", "read-corruption", "degenerate-profile",
})


def _validate_coalesced_injector(injector, n_jobs: int,
                                 fingerprints: list[str] | None) -> None:
    """Reject fault plans that cannot fire deterministically under fusion."""
    unsupported = sorted({
        spec.kind.value for spec in injector.plan.faults
        if spec.kind.value in _COALESCE_UNSUPPORTED_FAULTS})
    if unsupported:
        raise KernelError(
            "coalesced execution does not support fault kinds "
            f"{unsupported}: they mutate batch layouts or profiles that "
            "fusion rearranges; scope chaos by job fingerprint with "
            "worker-crash / wave-stall / launch-failure instead")
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
    wave-scoped faults per job; an injector whose plan contains kinds
    that cannot replay under fusion is rejected up front.
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

    states = [_JobState(contigs, k_schedule[0]) for contigs in jobs]
    construct, walker = kernel._phases()
    config = kernel.launch_config()

    for k in k_schedule:
        active = [s for s in states if not s.done]
        if not active:
            break
        group: list[Segment] = []
        for s in active:
            s.last_k = k
            s.segments = []
            for plan in narrow_plans(
                    kernel.launch_policy.plan(s.contigs, k, config),
                    s.contigs, pending_ends(s.settled_r, s.settled_l)):
                seg = Segment(plan, kernel.preparer.prepare(
                    s.contigs, plan.bin, plan.end, k))
                s.segments.append(seg)
                group.append(seg)
        # one lockstep program per k: every bin, both ends, every tenant
        _run_fused_group(kernel, group, k, construct, walker)
        for s in active:
            _replay_job_k(kernel, s, k, parallel_scale)

    results: list[CoalescedJobResult] = []
    for s in states:
        if s.error is not None:
            results.append(CoalescedJobResult(result=None, error=s.error))
            continue
        assert s.merged_profile is not None
        res = s.tail.result(kernel.device, s.last_k, s.merged_profile,
                            s.best_r.to_side(), s.best_l.to_side())
        results.append(CoalescedJobResult(result=res))
    return results
