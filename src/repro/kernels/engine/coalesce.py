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
   kernel's own launch policy (per-job binning is preserved) and *all*
   resulting segments — every bin, both extension directions, every
   tenant — are concatenated with
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
   (:meth:`_LaunchRecord.attribute`: a single ``searchsorted`` of the
   log's concatenated warps against the segment boundaries, then
   ``bincount`` over ``segment x entry`` keys) turns the log into
   per-segment count columns, stored sparsely — only the (segment,
   entry) pairs in which the segment had lanes, i.e. exactly the events
   its solo run emits. The log itself is cleared at launch end.
3. **Replay per job**: each job's solo event stream is re-emitted, in
   solo launch order, through the kernel's own instrumentation stack
   (:meth:`LocalAssemblyKernel._build_bus`), so profiles, traffic,
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

from repro.core.extension import WALK_STATE_CODES, WalkState
from repro.errors import HashTableFullError, KernelError
from repro.genomics.contig import Contig
from repro.kernels.engine.backend import KernelRunResult, ScheduleTail
from repro.kernels.engine.events import (
    LOG_INSERT_ITER,
    LOG_LOOKUP_ITER,
    LOG_WALK_STEP,
    LOG_WAVE,
    BarrierSync,
    EventBus,
    LaunchDone,
    SlotAccess,
    SlotRead,
    SlotWrite,
    counted_events,
)
from repro.kernels.engine.prepare import (
    Batch,
    PrepareCache,
    concat_batches,
    subset_batch,
)
from repro.kernels.engine.schedule import (
    LaunchPlan,
    SideArrays,
    merge_k_side,
    validate_k_schedule,
)
from repro.kernels.engine.simt import LocalAssemblyKernel
from repro.kernels.vectortable import WarpHashTables
from repro.resilience.policy import OverflowPolicy
from repro.simt.counters import KernelProfile

_MAX_LEN_CODE = np.int8(WALK_STATE_CODES[WalkState.MAX_LEN])


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


_NO_LANES = np.empty(0, dtype=np.int64)

#: Log-entry kind of recorded evidence (after the phases' count kinds).
_LOG_EVIDENCE = LOG_WALK_STEP + 1
_EVIDENCE_ENTRY = (_LOG_EVIDENCE, _NO_LANES, None, None, None, None)


class _LaunchRecord:
    """One fused launch, attributed: what every segment's solo run emits.

    ``rows`` / ``counts`` are CSR-like over segments: segment ``s`` owns
    columns ``ptr[s]:ptr[s + 1]``, one per log entry in which it had
    lanes, in emission order. ``rows`` is the entry's log position,
    ``kinds[rows]`` its kind, and the six ``counts`` rows are the
    tallies :func:`~repro.kernels.engine.events.counted_events` takes:
    lanes, distinct warps, ``m0`` / ``m1`` / ``m2`` / ``idx``. ``evidence``
    maps the log position of an array-carrying event to ``(event,
    split)``: segment ``s`` owns elements ``split[s]:split[s + 1]``.
    """

    __slots__ = ("warp_base", "slot_base", "log", "kinds", "ptr", "rows",
                 "counts", "evidence")

    def __init__(self, warp_base: np.ndarray, slot_base: np.ndarray) -> None:
        self.warp_base = warp_base      # (n_segs + 1) fused warp offsets
        self.slot_base = slot_base      # (n_segs + 1) fused slot offsets
        self.log: list = []             # the phases' attribution log
        self.evidence: dict[int, tuple] = {}
        # a launch that logged nothing (no insertions, no valid seed)
        self.kinds = self.rows = np.empty(0, dtype=np.int64)
        self.ptr = np.zeros(warp_base.size, dtype=np.int64)
        self.counts = np.empty((6, 0), dtype=np.int64)

    def attribute(self) -> None:
        """Reduce the finished launch's log to per-segment counts; clear it.

        One ``searchsorted`` places every logged lane in its segment;
        every count is then a ``bincount`` over ``segment * n_entries +
        entry`` keys, masked by the logged column. Distinct warps are
        run starts (every entry's ``warps`` is non-decreasing).
        """
        log = self.log
        if not log:
            return
        n_seg, n_tok = self.warp_base.size - 1, len(log)
        sizes = np.fromiter((e[1].size for e in log), dtype=np.int64,
                            count=n_tok)
        starts = np.cumsum(sizes) - sizes
        warps = np.concatenate([e[1] for e in log])
        key = np.searchsorted(self.warp_base, warps, side="right") - 1
        key *= n_tok
        key += np.repeat(np.arange(n_tok), sizes)
        first = np.ones(warps.size, dtype=bool)
        np.not_equal(warps[1:], warps[:-1], out=first[1:])
        first[starts[sizes > 0]] = True
        absent = np.zeros(int(sizes.max()), dtype=bool)

        def tally(select: np.ndarray) -> np.ndarray:
            return np.bincount(key[select], minlength=n_seg * n_tok)

        def column(j: int) -> np.ndarray:
            return np.concatenate([e[j] if e[j] is not None
                                   else absent[:e[1].size] for e in log])

        lanes = np.bincount(key, minlength=n_seg * n_tok)
        for pos, (_, split) in self.evidence.items():
            lanes[pos::n_tok] = np.diff(split)
        picked = np.concatenate([_NO_LANES] + [
            e[5] + st for e, st in zip(log, starts.tolist())
            if e[5] is not None])
        present = np.nonzero(lanes)[0]
        self.counts = np.stack([
            lanes[present], tally(first)[present],
            tally(column(2))[present], tally(column(3))[present],
            tally(column(4))[present], tally(picked)[present]])
        self.kinds = np.fromiter((e[0] for e in log), dtype=np.int64,
                                 count=n_tok)
        self.ptr = np.searchsorted(present, np.arange(n_seg + 1) * n_tok)
        self.rows = present % n_tok
        # in place: the phases hold the same list until the next launch
        log.clear()


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
            cls for cls in (SlotAccess, SlotWrite, SlotRead, BarrierSync)
            if probe_bus.wants(cls))
        #: The launch in flight; the driver sets it before each launch.
        self.launch: _LaunchRecord

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
        launch.log.append(_EVIDENCE_ENTRY)


# ----------------------------------------------------------------------
# per-job state
# ----------------------------------------------------------------------


@dataclass
class _AttemptRecord:
    """One segment's share of one fused launch (one overflow attempt)."""

    sub: Batch                      # the segment's batch for this attempt
    launch: _LaunchRecord           # the attributed fused launch (shared)
    pos: int                        # this segment's index in the launch
    base_codes: np.ndarray          # wres slices for the solo scatter
    base_lens: np.ndarray
    state_codes: np.ndarray
    failed: list[int]               # overflowed warps, segment-local, sorted
    first_construct_fail: int | None  # chronological, for RAISE semantics
    first_walk_fail: int | None
    attempt: int                    # 0-based attempt index


@dataclass
class _Segment:
    """One (job, launch plan) unit of a coalesced k-run."""

    state: "_JobState"
    plan: LaunchPlan
    sub: Batch
    records: list[_AttemptRecord] = field(default_factory=list)


class _JobState:
    """Accumulated schedule state of one coalesced job."""

    def __init__(self, contigs: list[Contig], cache: PrepareCache,
                 first_k: int) -> None:
        self.contigs = contigs
        self.n = len(contigs)
        self.cache = cache
        self.best_r = SideArrays.empty(self.n)
        self.best_l = SideArrays.empty(self.n)
        self.settled_r = np.zeros(self.n, dtype=bool)
        self.settled_l = np.zeros(self.n, dtype=bool)
        self.merged_profile: KernelProfile | None = None
        self.tail = ScheduleTail(cache)
        self.traces: list = []
        self.error: HashTableFullError | None = None
        self.last_k = first_k
        self.segments: list[_Segment] = []

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
    launch = _LaunchRecord(warp_base, tables.offsets[warp_base])
    construct.log = walker.log = launch.log
    recorder.launch = launch
    return (launch, construct.run(fused, tables, bus),
            walker.run(fused, tables, bus))


def _run_fused_group(kernel, group: list[_Segment], k: int,
                     construct, walker, bus: EventBus,
                     recorder: _EvidenceRecorder) -> None:
    """Run one fused launch (plus grow-retry re-launches) over ``group``.

    Every launch fuses only the still-retrying segments; each segment's
    per-attempt record (its share of the attributed launch, result
    slices, failures) lands in ``segment.records`` for the replay pass.
    """
    live = group
    attempt = 0
    while live:
        launch, cres, wres = _launch([seg.sub for seg in live], k,
                                     construct, walker, bus, recorder)
        launch.attribute()
        warp_base = launch.warp_base
        failed_global = sorted(set(cres.overflowed) | set(wres.overflowed))
        retry_live: list[_Segment] = []
        for pos, seg in enumerate(live):
            lo, hi = int(warp_base[pos]), int(warp_base[pos + 1])
            seg_failed = [w - lo for w in failed_global if lo <= w < hi]
            seg.records.append(_AttemptRecord(
                sub=seg.sub, launch=launch, pos=pos,
                base_codes=wres.base_codes[lo:hi],
                base_lens=wres.base_lens[lo:hi],
                state_codes=wres.state_codes[lo:hi],
                failed=seg_failed,
                first_construct_fail=next(
                    (w - lo for w in cres.overflowed if lo <= w < hi), None),
                first_walk_fail=next(
                    (w - lo for w in wres.overflowed if lo <= w < hi), None),
                attempt=attempt,
            ))
            grown = (kernel._retry_capacities(seg.sub, seg_failed, attempt)
                     if seg_failed else None)
            if grown is not None:
                seg.sub = subset_batch(seg.sub, seg_failed, grown)
                retry_live.append(seg)
        attempt += 1
        live = retry_live


# ----------------------------------------------------------------------
# per-job replay
# ----------------------------------------------------------------------


def _replay_attempt(rec: _AttemptRecord, bus: EventBus) -> LaunchDone:
    """Re-emit one segment's solo event stream from the attributed launch.

    Emits one event per log entry in which the segment had lanes
    (exactly the condition under which the solo loops emit it), and
    returns the per-segment ``LaunchDone`` for the caller to emit.
    """
    launch, s = rec.launch, rec.pos
    mine = slice(launch.ptr[s], launch.ptr[s + 1])
    rows = launch.rows[mine]
    kinds = launch.kinds[rows]
    counted = counted_events(kinds.tolist(),
                             *launch.counts[:, mine].tolist())
    for row, count_event in zip(rows.tolist(), counted):
        if count_event is not None:
            bus.emit(count_event)
        else:
            event, split = launch.evidence[row]
            own = slice(split[s], split[s + 1])
            warp_lo, slot_lo = launch.warp_base[s], launch.slot_base[s]
            if isinstance(event, SlotAccess):
                bus.emit(SlotAccess(slots=event.slots[own] - slot_lo,
                                    kind=event.kind))
            elif isinstance(event, SlotWrite):
                bus.emit(SlotWrite(
                    phase=event.phase, kind=event.kind,
                    slots=event.slots[own] - slot_lo,
                    warps=event.warps[own] - warp_lo,
                    lanes=(event.lanes[own] if event.lanes is not None
                           else None),
                    atomic=event.atomic))
            elif isinstance(event, SlotRead):
                bus.emit(SlotRead(phase=event.phase, kind=event.kind,
                                  slots=event.slots[own] - slot_lo,
                                  warps=event.warps[own] - warp_lo))
            else:
                bus.emit(BarrierSync(phase=event.phase,
                                     warps=event.warps[own] - warp_lo,
                                     mask_lanes=event.mask_lanes[own],
                                     active_lanes=event.active_lanes[own]))
    # The max_walk_len cutoff step runs without emitting a WalkStep
    # (the solo loop breaks first) but still counts as a walk step; any
    # MAX_LEN terminal in this attempt's slice proves the segment had
    # walkers alive at the cutoff.
    per_kind = np.bincount(kinds, minlength=_LOG_EVIDENCE + 1).tolist()
    cutoff = bool((rec.state_codes == _MAX_LEN_CODE).any())
    return LaunchDone(waves=per_kind[LOG_WAVE],
                      construct_iterations=per_kind[LOG_INSERT_ITER],
                      walk_steps=per_kind[LOG_WALK_STEP] + cutoff,
                      walk_iterations=per_kind[LOG_LOOKUP_ITER])


def _solo_overflow_error(rec: _AttemptRecord, k: int) -> HashTableFullError:
    """Reconstruct the error a solo RAISE-policy run would have raised.

    Overflow detection is warp-local and iteration-exact, and a probe
    offset is bounds-checked every iteration once it can reach the
    capacity, so the solo error's ``probes`` always equals the failing
    warp's capacity; construction raises before the walk runs, so any
    construct overflow takes precedence.
    """
    if rec.first_construct_fail is not None:
        w, msg = rec.first_construct_fail, \
            "hash table overflow during construction"
    else:
        assert rec.first_walk_fail is not None
        w, msg = rec.first_walk_fail, "hash table wrapped during walk lookup"
    cap = int(rec.sub.capacities[w])
    return HashTableFullError(msg, contig_id=int(rec.sub.contig_ids[w]),
                              k=k, capacity=cap, probes=cap)


def _replay_job_k(kernel, state: _JobState, k: int,
                  parallel_scale: float) -> None:
    """Replay one job's k-run and fold it into the job's schedule state.

    ``LocalAssemblyKernel.run``'s launch loop fed from the attributed
    fused launches instead of executing phases — the bookkeeping around
    each launch is the kernel's own (``_begin_run`` / ``_start_launch``
    / ``_settle``) — plus ``iterate_k_schedule``'s fold of the k-run.
    """
    krun = kernel._begin_run(state.n, k, parallel_scale)
    bus = krun.bus
    raise_policy = kernel.overflow_policy is OverflowPolicy.RAISE
    for seg in state.segments:
        for rec in seg.records:
            kernel._start_launch(bus, rec.sub, k)
            bus.emit(_replay_attempt(rec, bus))
            if rec.failed and raise_policy:
                # solo raising aborts the run mid-launch
                state.error = _solo_overflow_error(rec, k)
                return
            kernel._settle(krun, seg.plan.end, rec.sub, rec, rec.failed,
                           rec.attempt)
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
    run per job; each job gets a fresh :class:`PrepareCache`, as a solo
    run would. ``fingerprints`` optionally names each job (the
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

    states = [_JobState(contigs, PrepareCache(), k_schedule[0])
              for contigs in jobs]

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
    construct = kernel.construct_cls(kernel.protocol, kernel.warp_size,
                                     defer_overflow=True)
    walker = kernel.walk_cls(kernel.policy, kernel.max_walk_len, kernel.seed,
                             defer_overflow=True)
    config = kernel.launch_config()

    for k in k_schedule:
        active = [s for s in states if not s.done]
        if not active:
            break
        group: list[_Segment] = []
        for s in active:
            s.last_k = k
            s.segments = []
            for plan in kernel.launch_policy.plan(s.contigs, k, config):
                sub = kernel.preparer.prepare(s.contigs, plan.bin, plan.end,
                                              k, cache=s.cache)
                seg = _Segment(state=s, plan=plan, sub=sub)
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
