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
   construct + walk **once**: one lockstep program per k, with
   ``defer_overflow`` always on. Inside the launch the phases only
   *log*: they append references to the per-iteration arrays they
   already hold to the list the driver installs as their ``log``
   (entry layout: :data:`~repro.kernels.engine.events.LOG_WAVE`);
   nothing is counted in the probe loops. When tracing or sanitizing, a recorder
   subscriber additionally locates each segment's share of the slot /
   write / read / barrier evidence; replay slices it and rebases it to
   the job's local warp and slot numbering (a subtraction, because
   every segment owns contiguous warp and slot ranges).
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
   profiles, traffic,
   traces, replay stats and sanitizer verdicts are byte-identical to a
   one-at-a-time run *by construction* — the hypothesis parity tests in
   ``tests/kernels/test_coalesce_parity.py`` are the drift guard.

Overflow semantics per job match the kernel's policy exactly:
``drop-contig`` and ``grow-retry`` replay the per-job drop/retry event
sequences (fused retry launches re-fuse only the failing segments);
``raise`` reconstructs the solo :class:`~repro.errors.HashTableFullError`
(same contig, k, capacity, probes) as the job's
:attr:`CoalescedJobResult.error` — solo raising aborts mid-launch, so an
erroring job yields its error instead of a result, while its co-tenants
are unaffected.

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
    EVIDENCE_ENTRY,
    EVIDENCE_EVENTS,
    LaunchRecord,
    Segment,
    record_attempt,
)
from repro.kernels.engine.backend import KernelRunResult, ScheduleTail
from repro.kernels.engine.events import (
    BarrierSync,
    EventBus,
    SlotAccess,
    SlotRead,
    SlotWrite,
)
from repro.kernels.engine.prepare import Batch, concat_batches
from repro.kernels.engine.schedule import (
    SideArrays,
    merge_k_side,
    narrow_plans,
    pending_ends,
    validate_k_schedule,
)
from repro.kernels.engine.simt import LocalAssemblyKernel
from repro.kernels.vectortable import WarpHashTables
from repro.simt.counters import KernelProfile


@dataclass
class CoalescedJobResult:
    """One job's outcome of a coalesced wave.

    Exactly one of ``result`` / ``error`` is set. When ``result`` is
    set, it — and ``replay`` / ``trace`` / ``sanitizer_report`` — are
    byte-identical to what a solo ``kernel.run_schedule`` call (and its
    ``last_replay`` / ``last_trace`` / ``last_sanitizer_report``
    attributes) would have produced for the same contigs.
    """

    result: KernelRunResult | None
    replay: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    sanitizer_report: object | None = None
    error: HashTableFullError | None = None


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------


class _EvidenceRecorder:
    """Subscriber placing a fused launch's array evidence per segment.

    Slot traces and sanitizer writes / reads / barriers are split per
    segment at record time (a binary search against the segment
    boundaries; replay slices and rebases) and take a placeholder
    position in the launch's attribution log, which keeps them ordered
    among the counted events. Which evidence classes are recorded
    follows what the per-job replay buses will want (``handled_events``
    is built accordingly — the phases' ``bus.wants`` gating then skips
    unrecorded evidence in the fused run too).
    """

    def __init__(self, probe_bus: EventBus) -> None:
        self.handled_events = tuple(
            cls for cls in EVIDENCE_EVENTS if probe_bus.wants(cls))
        #: The launch in flight; the driver sets it before each launch.
        self.launch: LaunchRecord

    def handle(self, event, bus) -> None:
        launch = self.launch
        if isinstance(event, SlotAccess):
            # Not globally sorted (slots within one warp's region arrive
            # in probe order), but every segment boundary *partitions*
            # the array — all earlier elements are below the boundary
            # slot, all later ones at or above — so the search is exact.
            split = np.searchsorted(event.slots, launch.slot_base)
        elif isinstance(event, (SlotWrite, SlotRead, BarrierSync)):
            split = np.searchsorted(event.warps, launch.warp_base)
        else:
            return
        launch.evidence[len(launch.log)] = (event, split)
        launch.log.append(EVIDENCE_ENTRY)


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
        self.traces: list = []
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


def _launch(subs: list[Batch], k: int, construct, walker, bus: EventBus,
            recorder: _EvidenceRecorder) -> tuple:
    """One lockstep program over ``subs``: ``(launch, cres, wres)``.

    The fused batch and its tables — the bulk of a wave's memory — die
    with this frame, before the log is reduced.
    """
    fused, warp_base = concat_batches(subs)
    tables = WarpHashTables(fused.capacities, k)
    launch = LaunchRecord(warp_base, tables.offsets[warp_base])
    construct.log = walker.log = launch.log
    recorder.launch = launch
    return (launch, construct.run(fused, tables, bus),
            walker.run(fused, tables, bus))


def _run_fused_group(kernel, group: list[Segment], k: int,
                     construct, walker, bus: EventBus,
                     recorder: _EvidenceRecorder) -> None:
    """Run one fused launch (plus grow-retry re-launches) over ``group``.

    Every launch fuses only the still-retrying segments; each segment's
    per-attempt record (its share of the attributed launch, result
    slices, failures) lands in ``segment.records`` for the replay pass.
    """
    def launch_live(live: list[Segment], attempt: int) -> None:
        launch, cres, wres = _launch([seg.sub for seg in live], k,
                                     construct, walker, bus, recorder)
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
    # solo raising aborts the run mid-launch
    state.error = kernel._replay(krun, state.segments)
    if state.error is not None:
        return
    if state.merged_profile is None:
        state.merged_profile = krun.profile
    else:
        state.merged_profile.merge(krun.profile)
    merge_k_side(krun.right, state.best_r, state.settled_r)
    merge_k_side(krun.left, state.best_l, state.settled_l)
    if krun.tracer is not None:
        state.traces = krun.tracer.traces
    state.tail.add(
        krun.degraded, krun.retried,
        krun.replayer.launches if krun.replayer is not None else (),
        krun.sanitizer.report if krun.sanitizer is not None else None)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------


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

    states = [_JobState(contigs, k_schedule[0]) for contigs in jobs]

    # What the per-job replay buses will want decides which evidence the
    # fused run must record (and therefore emit): probe with a throwaway
    # instrumentation stack built exactly like the replay ones. Counts
    # never travel the fused bus (the phases log them), so with no
    # evidence wanted it has no subscriber at all.
    recorder = _EvidenceRecorder(kernel._build_bus(
        KernelProfile(warp_size=kernel.warp_size), parallel_scale)[0])
    fused_bus = EventBus()
    if recorder.handled_events:
        fused_bus.subscribe(recorder)
    construct, walker = kernel._phases(True)
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
        _run_fused_group(kernel, group, k, construct, walker, fused_bus,
                         recorder)
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
        results.append(CoalescedJobResult(result=res, replay=s.tail.replay,
                                          trace=s.traces,
                                          sanitizer_report=s.tail.report))
    return results
