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
   kernel's own launch policy (per-job binning is preserved); segments
   that share an extension direction are concatenated with
   :func:`~repro.kernels.engine.prepare.concat_batches` and run through
   construct + walk **once**, with ``defer_overflow`` always on and the
   phases' attribution events enabled.
2. **Record**: a single recorder subscriber turns the attribution
   events (:class:`~repro.kernels.engine.events.WaveWarps` /
   :class:`~repro.kernels.engine.events.ProbeWarps` /
   :class:`~repro.kernels.engine.events.WalkStepWarps`) into per-segment
   count vectors — and, when tracing or sanitizing, splits the slot /
   write / read / barrier evidence per segment, rebased to each job's
   local warp and slot numbering (a subtraction, because every segment
   owns contiguous warp and slot ranges).
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
from repro.genomics.contig import Contig, End
from repro.genomics.dna import decode_matrix, reverse_complement_matrix
from repro.hashing.opcount import hash_intops
from repro.kernels.engine.backend import KernelRunResult
from repro.kernels.engine.events import (
    BarrierSync,
    ContigDropped,
    ContigRetried,
    EventBus,
    LaunchDone,
    LaunchStarted,
    ProbeIteration,
    ProbeWarps,
    SlotAccess,
    SlotRead,
    SlotWrite,
    WalkStep,
    WalkStepWarps,
    WaveExecuted,
    WaveWarps,
)
from repro.kernels.engine.prepare import (
    Batch,
    PrepareCache,
    concat_batches,
    run_length_sorted,
    subset_batch,
)
from repro.kernels.engine.schedule import (
    MISSING_CODE,
    LaunchConfig,
    LaunchPlan,
    SideArrays,
    merge_k_side,
    validate_k_schedule,
)
from repro.kernels.vectortable import SLOT_BYTES, WarpHashTables
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


class _LaunchRecord:
    """Everything one fused launch recorded, shared by its segments."""

    __slots__ = ("warp_base", "slot_base", "tokens")

    def __init__(self, warp_base: np.ndarray, slot_base: np.ndarray) -> None:
        self.warp_base = warp_base      # (n_segs + 1) fused warp offsets
        self.slot_base = slot_base      # (n_segs + 1) fused slot offsets
        self.tokens: list[tuple] = []   # ordered per-event decompositions


class _FusionRecorder:
    """Subscriber decomposing a fused launch's events per segment.

    Count-bearing events become per-segment count vectors (bincounts
    over the warp-sorted attribution arrays, via ``searchsorted``
    against the segment warp boundaries); evidence events carrying
    arrays (slot traces, sanitizer writes/reads/barriers) are pre-split
    and *rebased* to segment-local warp/slot numbering at record time,
    so replay is pure indexing. Which evidence classes are recorded
    follows what the per-job replay buses will want (``handled_events``
    is built accordingly — the phases' ``bus.wants`` gating then skips
    unrecorded evidence in the fused run too).
    """

    def __init__(self, want_slots: bool, want_writes: bool,
                 want_reads: bool, want_sync: bool) -> None:
        handled = [WaveWarps, ProbeWarps, WalkStepWarps]
        if want_slots:
            handled.append(SlotAccess)
        if want_writes:
            handled.append(SlotWrite)
        if want_reads:
            handled.append(SlotRead)
        if want_sync:
            handled.append(BarrierSync)
        self.handled_events = tuple(handled)
        self._rec: _LaunchRecord | None = None

    def begin_launch(self, warp_base: np.ndarray,
                     tables: WarpHashTables) -> None:
        self._rec = _LaunchRecord(warp_base, tables.offsets[warp_base])

    def end_launch(self) -> _LaunchRecord:
        rec, self._rec = self._rec, None
        assert rec is not None
        return rec

    # -- per-segment decompositions ------------------------------------

    def _counts(self, warps: np.ndarray) -> np.ndarray:
        """Per-segment element counts of a warp-sorted array."""
        return np.diff(np.searchsorted(warps, self._rec.warp_base))

    def _distinct(self, warps: np.ndarray) -> np.ndarray:
        """Per-segment distinct-warp counts of a warp-sorted array."""
        uniq = run_length_sorted(warps)[0]
        return np.diff(np.searchsorted(uniq, self._rec.warp_base))

    def _split_slots(self, slots: np.ndarray) -> list[np.ndarray]:
        """Per-segment rebased slices of a warp-grouped slot array.

        The array is not globally sorted (slots within one warp's region
        arrive in probe order), but every segment boundary *partitions*
        it — all earlier elements are below the boundary slot, all later
        ones at or above — so per-boundary binary search is exact.
        """
        rec = self._rec
        ptr = np.searchsorted(slots, rec.slot_base)
        return [slots[ptr[s]:ptr[s + 1]] - rec.slot_base[s]
                for s in range(rec.warp_base.size - 1)]

    def _split_by_warps(self, warps: np.ndarray, slots: np.ndarray,
                        lanes: np.ndarray | None) -> list[tuple]:
        rec = self._rec
        ptr = np.searchsorted(warps, rec.warp_base)
        out = []
        for s in range(rec.warp_base.size - 1):
            sl = slice(ptr[s], ptr[s + 1])
            out.append((slots[sl] - rec.slot_base[s],
                        warps[sl] - rec.warp_base[s],
                        lanes[sl] if lanes is not None else None))
        return out

    def _split_barrier(self, event: BarrierSync) -> list[tuple]:
        rec = self._rec
        ptr = np.searchsorted(event.warps, rec.warp_base)
        out = []
        for s in range(rec.warp_base.size - 1):
            sl = slice(ptr[s], ptr[s + 1])
            out.append((event.warps[sl] - rec.warp_base[s],
                        event.mask_lanes[sl], event.active_lanes[sl]))
        return out

    def handle(self, event, bus) -> None:
        rec = self._rec
        if rec is None:
            return
        t = type(event)
        tokens = rec.tokens
        if t is ProbeWarps:
            if event.phase == "construct":
                tokens.append(("citer",
                               self._counts(event.pending_warps),
                               self._distinct(event.pending_warps),
                               self._counts(event.compare_warps),
                               self._counts(event.cas_warps),
                               self._counts(event.matched_warps),
                               self._counts(event.claimed_warps),
                               self._counts(event.merged_warps)))
            else:
                tokens.append(("witer",
                               self._counts(event.pending_warps),
                               self._counts(event.compare_warps)))
        elif t is WaveWarps:
            tokens.append(("wave", self._counts(event.lane_warps),
                           self._distinct(event.lane_warps)))
        elif t is WalkStepWarps:
            tokens.append(("wstep", self._counts(event.walker_warps),
                           self._counts(event.vote_read_warps),
                           self._counts(event.commit_warps)))
        elif t is SlotAccess:
            tokens.append(("slots", event.kind,
                           self._split_slots(event.slots)))
        elif t is SlotWrite:
            tokens.append(("swrite", event.phase, event.kind, event.atomic,
                           self._split_by_warps(event.warps, event.slots,
                                                event.lanes)))
        elif t is SlotRead:
            tokens.append(("sread", event.phase, event.kind,
                           self._split_by_warps(event.warps, event.slots,
                                                None)))
        elif t is BarrierSync:
            tokens.append(("barrier", event.phase,
                           self._split_barrier(event)))


# ----------------------------------------------------------------------
# per-job state
# ----------------------------------------------------------------------


@dataclass
class _AttemptRecord:
    """One segment's share of one fused launch (one overflow attempt)."""

    sub: Batch                      # the segment's batch for this attempt
    launch: _LaunchRecord           # shared token log of the fused launch
    pos: int                        # this segment's index in the launch
    context: LaunchStarted          # the segment's solo launch context
    base_codes: np.ndarray          # wres slices for the solo scatter
    base_lens: np.ndarray
    state_codes: np.ndarray
    failed: list[int]               # overflowed warps, segment-local, sorted
    first_construct_fail: int | None  # chronological, for RAISE semantics
    first_walk_fail: int | None
    attempt: int                    # 0-based attempt index
    grown: np.ndarray | None = None  # retry capacities (set when retried)


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
        self.degraded: set[int] = set()
        self.retried: set[int] = set()
        self.replay: list = []
        self.traces: list = []
        self.reports: list = []
        self.error: HashTableFullError | None = None
        self.last_k = first_k
        self.segments: list[_Segment] = []

    @property
    def done(self) -> bool:
        return (self.error is not None
                or (bool(self.settled_r.all()) and bool(self.settled_l.all())))


class _JobFailed(Exception):
    """Internal: carries a job's reconstructed solo overflow error."""

    def __init__(self, error: HashTableFullError) -> None:
        super().__init__(str(error))
        self.error = error


# ----------------------------------------------------------------------
# fused execution
# ----------------------------------------------------------------------


def _segment_context(sub: Batch, k: int, ops: int,
                     with_contig_ids: bool) -> LaunchStarted:
    """The LaunchStarted a solo run would emit for this segment batch."""
    total_slots = int(sub.capacities.sum())
    return LaunchStarted(
        k=k, hash_ops=ops, n_warps=sub.n_warps,
        mean_table_bytes=float(np.mean(sub.capacities)) * SLOT_BYTES,
        mean_read_bytes=float(np.mean(sub.read_bytes_per_warp)),
        cold_footprint_bytes=total_slots * SLOT_BYTES + 2 * sub.codes.size,
        total_slots=total_slots,
        contig_ids=(tuple(int(ci) for ci in sub.contig_ids)
                    if with_contig_ids else ()),
    )


def _run_fused_group(kernel, group: list[_Segment], k: int, ops: int,
                     construct, walker, bus: EventBus,
                     recorder: _FusionRecorder, with_contig_ids: bool) -> None:
    """Run one fused launch (plus grow-retry re-launches) over ``group``.

    Every launch fuses only the still-retrying segments; each segment's
    per-attempt record (token log share, result slices, failures) lands
    in ``segment.records`` for the replay pass.
    """
    grow = kernel.overflow_policy is OverflowPolicy.GROW_RETRY
    live = list(range(len(group)))
    attempt = 0
    while True:
        subs = [group[i].sub for i in live]
        fused, warp_base = concat_batches(subs)
        tables = WarpHashTables(fused.capacities, k)
        recorder.begin_launch(warp_base, tables)
        cres = construct.run(fused, tables, bus)
        wres = walker.run(fused, tables, bus)
        launch = recorder.end_launch()
        failed_global = sorted(set(cres.overflowed) | set(wres.overflowed))
        any_failed = False
        retry_live: list[int] = []
        for pos, i in enumerate(live):
            seg = group[i]
            lo, hi = int(warp_base[pos]), int(warp_base[pos + 1])
            seg_failed = [w - lo for w in failed_global if lo <= w < hi]
            rec = _AttemptRecord(
                sub=seg.sub, launch=launch, pos=pos,
                context=_segment_context(seg.sub, k, ops, with_contig_ids),
                base_codes=wres.base_codes[lo:hi],
                base_lens=wres.base_lens[lo:hi],
                state_codes=wres.state_codes[lo:hi],
                failed=seg_failed,
                first_construct_fail=next(
                    (w - lo for w in cres.overflowed if lo <= w < hi), None),
                first_walk_fail=next(
                    (w - lo for w in wres.overflowed if lo <= w < hi), None),
                attempt=attempt,
            )
            seg.records.append(rec)
            if seg_failed:
                any_failed = True
                if grow and attempt < kernel.max_grow_attempts:
                    caps = seg.sub.capacities[seg_failed]
                    grown = np.maximum(
                        caps + 1,
                        np.ceil(caps * kernel.grow_factor).astype(np.int64))
                    rec.grown = grown
                    seg.sub = subset_batch(seg.sub, seg_failed, grown)
                    retry_live.append(i)
        if not any_failed or not retry_live:
            return
        attempt += 1
        live = retry_live


# ----------------------------------------------------------------------
# per-job replay
# ----------------------------------------------------------------------


def _replay_attempt(rec: _AttemptRecord, bus: EventBus) -> LaunchDone:
    """Re-emit one segment's solo event stream from the fused token log.

    Emits ``LaunchStarted``, the segment's share of every token (skipped
    when the share is empty — exactly the condition under which the solo
    loops would not have emitted the event), and returns the per-segment
    ``LaunchDone`` for the caller to emit after any scatter bookkeeping.
    """
    s = rec.pos
    bus.emit(rec.context)
    waves = citers = wsteps = witers = 0
    for tok in rec.launch.tokens:
        kind = tok[0]
        if kind == "citer":
            lanes = int(tok[1][s])
            if lanes:
                bus.emit(ProbeIteration(
                    phase="construct", lanes=lanes, warps=int(tok[2][s]),
                    key_compares=int(tok[3][s]), cas_attempts=int(tok[4][s]),
                    votes_matched=int(tok[5][s]),
                    votes_claimed=int(tok[6][s]),
                    votes_merged=int(tok[7][s])))
                citers += 1
        elif kind == "wave":
            lanes = int(tok[1][s])
            if lanes:
                bus.emit(WaveExecuted(lanes=lanes, warps=int(tok[2][s])))
                waves += 1
        elif kind == "witer":
            lanes = int(tok[1][s])
            if lanes:
                bus.emit(ProbeIteration(phase="walk", lanes=lanes,
                                        warps=lanes,
                                        key_compares=int(tok[2][s])))
                witers += 1
        elif kind == "wstep":
            walkers = int(tok[1][s])
            if walkers:
                bus.emit(WalkStep(walkers=walkers,
                                  vote_reads=int(tok[2][s]),
                                  bases_committed=int(tok[3][s])))
                wsteps += 1
        elif kind == "slots":
            chunk = tok[2][s]
            if chunk.size:
                bus.emit(SlotAccess(slots=chunk, kind=tok[1]))
        elif kind == "swrite":
            slots_s, warps_s, lanes_s = tok[4][s]
            if warps_s.size:
                bus.emit(SlotWrite(phase=tok[1], kind=tok[2], slots=slots_s,
                                   warps=warps_s, lanes=lanes_s,
                                   atomic=tok[3]))
        elif kind == "sread":
            slots_s, warps_s, _ = tok[3][s]
            if warps_s.size:
                bus.emit(SlotRead(phase=tok[1], kind=tok[2], slots=slots_s,
                                  warps=warps_s))
        elif kind == "barrier":
            warps_s, mask_s, active_s = tok[2][s]
            if warps_s.size:
                bus.emit(BarrierSync(phase=tok[1], warps=warps_s,
                                     mask_lanes=mask_s,
                                     active_lanes=active_s))
    # The max_walk_len cutoff step runs without emitting a WalkStep
    # (the solo loop breaks first) but still counts as a walk step; any
    # MAX_LEN terminal in this attempt's slice proves the segment had
    # walkers alive at the cutoff.
    if bool((rec.state_codes == _MAX_LEN_CODE).any()):
        wsteps += 1
    return LaunchDone(waves=waves, construct_iterations=citers,
                      walk_steps=wsteps, walk_iterations=witers)


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

    Mirrors ``LocalAssemblyKernel.run`` (launch loop, scatter, overflow
    bookkeeping) and the ``run_schedule`` accumulation around it, but
    fed from the fused token logs instead of executing phases.
    """
    profile = KernelProfile(warp_size=kernel.warp_size)
    profile.walk_issue_width = (1 if kernel.lane_parallel_walks
                                else kernel.warp_size)
    profile.contigs = state.n
    right_arr = SideArrays.empty(state.n)
    left_arr = SideArrays.empty(state.n)
    bus, traffic, tracer, replayer, sanitizer = kernel._build_bus(
        profile, parallel_scale)
    raise_policy = kernel.overflow_policy is OverflowPolicy.RAISE
    try:
        for seg in state.segments:
            arr = right_arr if seg.plan.end is End.RIGHT else left_arr
            for ridx, rec in enumerate(seg.records):
                done = _replay_attempt(rec, bus)
                bus.emit(done)
                sub = rec.sub
                failed = rec.failed
                ok = np.ones(sub.n_warps, dtype=bool)
                if failed:
                    ok[failed] = False
                cis = np.asarray(sub.contig_ids, dtype=np.int64)[ok]
                if cis.size:
                    lens = rec.base_lens[ok]
                    mat = rec.base_codes[ok]
                    if seg.plan.end is not End.RIGHT:
                        mat = reverse_complement_matrix(mat, lens)
                    arr.text[cis] = decode_matrix(mat, lens)
                    arr.lens[cis] = lens
                    arr.state_codes[cis] = rec.state_codes[ok]
                if not failed:
                    continue
                if raise_policy:
                    raise _JobFailed(_solo_overflow_error(rec, k))
                if rec.grown is not None:
                    # this attempt was re-fused with grown tables
                    for w, cap in zip(failed, rec.grown):
                        bus.emit(ContigRetried(
                            contig_id=sub.contig_ids[w], k=k,
                            attempt=rec.attempt + 1, capacity=int(cap)))
                        state.retried.add(sub.contig_ids[w])
                    continue
                end_name = "right" if seg.plan.end is End.RIGHT else "left"
                for w in failed:
                    ci = sub.contig_ids[w]
                    bus.emit(ContigDropped(
                        contig_id=ci, k=k, end=end_name,
                        capacity=int(sub.capacities[w])))
                    state.degraded.add(ci)
                    arr.text[ci] = ""
                    arr.lens[ci] = 0
                    arr.state_codes[ci] = MISSING_CODE
                assert ridx == len(seg.records) - 1
    except _JobFailed as exc:
        state.error = exc.error
        return
    if state.merged_profile is None:
        state.merged_profile = profile
    else:
        state.merged_profile.merge(profile)
    merge_k_side(right_arr, state.best_r, state.settled_r)
    merge_k_side(left_arr, state.best_l, state.settled_l)
    if tracer is not None:
        state.traces = tracer.traces
    if replayer is not None:
        state.replay.extend(replayer.launches)
    if sanitizer is not None:
        state.reports.append(sanitizer.report)


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
    # instrumentation stack built exactly like the replay ones.
    probe_bus, _, _, _, _ = kernel._build_bus(
        KernelProfile(warp_size=kernel.warp_size), parallel_scale)
    recorder = _FusionRecorder(
        want_slots=probe_bus.wants(SlotAccess),
        want_writes=probe_bus.wants(SlotWrite),
        want_reads=probe_bus.wants(SlotRead),
        want_sync=probe_bus.wants(BarrierSync),
    )
    fused_bus = EventBus()
    fused_bus.subscribe(recorder)
    construct = kernel.construct_cls(kernel.protocol, kernel.warp_size,
                                     defer_overflow=True, attribution=True)
    walker = kernel.walk_cls(kernel.policy, kernel.max_walk_len, kernel.seed,
                             defer_overflow=True, attribution=True)
    # reserve at most ~25% of HBM for tables in one launch (solo default)
    max_batch_insertions = int(
        kernel.device.hbm_bytes * 0.25 * kernel.load_factor / SLOT_BYTES)
    config = LaunchConfig(depth_ratio=2.0,
                          max_batch_insertions=max_batch_insertions,
                          load_factor=kernel.load_factor)

    for k in k_schedule:
        active = [s for s in states if not s.done]
        if not active:
            break
        ops = hash_intops(k)
        with_contig_ids = bool(kernel.sanitize_checks)
        by_end: dict[End, list[_Segment]] = {}
        for s in active:
            s.last_k = k
            s.segments = []
            for plan in kernel.launch_policy.plan(s.contigs, k, config):
                sub = kernel.preparer.prepare(s.contigs, plan.bin, plan.end,
                                              k, cache=s.cache)
                seg = _Segment(state=s, plan=plan, sub=sub)
                s.segments.append(seg)
                by_end.setdefault(plan.end, []).append(seg)
        for group in by_end.values():
            _run_fused_group(kernel, group, k, ops, construct, walker,
                             fused_bus, recorder, with_contig_ids)
        for s in active:
            _replay_job_k(kernel, s, k, parallel_scale)

    results: list[CoalescedJobResult] = []
    for s in states:
        if s.error is not None:
            results.append(CoalescedJobResult(result=None, error=s.error))
            continue
        merged = s.merged_profile
        assert merged is not None
        merged.contigs = s.n
        merged.prep_cache_hits = s.cache.hits
        merged.prep_cache_misses = s.cache.misses
        merged.prep_cache_evictions = s.cache.evictions
        report = None
        if kernel.sanitize_checks and s.reports:
            from repro.sanitize.report import SanitizerReport
            report = SanitizerReport(max_findings=s.reports[0].max_findings)
            for rep in s.reports:
                report.extend(rep)
        res = KernelRunResult(device=kernel.device, k=s.last_k,
                              profile=merged,
                              right=s.best_r.to_side(),
                              left=s.best_l.to_side(),
                              degraded=sorted(s.degraded),
                              retried=sorted(s.retried))
        results.append(CoalescedJobResult(result=res, replay=s.replay,
                                          trace=s.traces,
                                          sanitizer_report=report))
    return results
