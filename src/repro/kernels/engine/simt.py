"""The staged SIMT execution engine driving the three vendor ports.

Execution model (Figure 4 of the paper): one contig per warp. Per
launch plan (one bin, one extension direction) the engine runs

1. **prepare** (:mod:`repro.kernels.engine.prepare`) — flatten + hash
   the bin's reads into launch arrays (every launch flattens its own
   read stream and lets it go);
2. **construct** (:mod:`repro.kernels.engine.construct`) — insertion
   waves with the port's collision protocol;
3. **walk** (:mod:`repro.kernels.engine.walk`) — the predicated
   mer-walk;

with launch plans produced by
:class:`~repro.kernels.engine.schedule.BinnedLaunchPolicy`. Every launch
attempt ends in one tally (:mod:`repro.kernels.engine.tally`) that one
fold charges to the profile — counters, analytic memory traffic, chain
cycles; the phases only tally what they measured, and the event bus
(:mod:`repro.kernels.engine.events`) carries evidence and, for a
subscriber that asks, count events rendered from the tally.

Two rules live here and nowhere else. *Fusion*
(:meth:`LocalAssemblyKernel._fuses`): launches share a lockstep program
— a k-run's walk groups, a multi-tenant wave — only when no subscriber
wants slot-numbered evidence, so a fused program carries counts only.
*Overflow* (:meth:`LocalAssemblyKernel._settle`): the phases retire and
report the warps whose table filled; the driver alone raises, drops or
grow-retries them, for a launch run alone and one replayed from a
fused program alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.construct import DEFAULT_LOAD_FACTOR
from repro.core.extension import (
    DEFAULT_MAX_WALK_LEN,
    DEFAULT_POLICY,
    WalkPolicy,
    WalkState,
)
from repro.errors import HashTableFullError, KernelError
from repro.genomics.contig import Contig, End
from repro.genomics.dna import decode_matrix, reverse_complement_matrix
from repro.genomics.reads import DEFAULT_QUAL_THRESHOLD
from repro.hashing.opcount import hash_intops
from repro.kernels.engine.attribution import (
    LaunchRecord,
    Segment,
    record_attempt,
)
from repro.kernels.engine.backend import ProtocolCosts
from repro.kernels.engine.construct import ConstructPhase
from repro.kernels.engine.events import (
    EVIDENCE_EVENTS,
    ContigDropped,
    ContigRetried,
    EventBus,
    LaunchStarted,
    TraceReplaySubscriber,
    TraceSubscriber,
)
from repro.kernels.engine.prepare import (
    Batch,
    BatchPreparer,
    concat_batches,
    subset_batch,
)
from repro.kernels.engine.schedule import (
    BinnedLaunchPolicy,
    KernelRunResult,
    KSchedule,
    LaunchConfig,
    SideArrays,
    iterate_k_schedule,
    narrow_plans,
)
from repro.kernels.engine.tally import LaunchTally, charge, render
from repro.kernels.engine.walk import WalkPhase
from repro.kernels.vectortable import SLOT_BYTES, WarpHashTables
from repro.resilience.policy import (
    OverflowPolicy,
    grow_budget,
    grown_capacity,
)
from repro.simt.counters import KernelProfile
from repro.simt.device import DeviceSpec


@dataclass
class _KRun:
    """One k-run in flight: its instrumentation stack and what its
    launches settle into (see :meth:`LocalAssemblyKernel._settle`)."""

    k: int
    profile: KernelProfile
    bus: EventBus
    tracer: TraceSubscriber | None
    replayer: TraceReplaySubscriber | None
    sanitizer: object | None
    right: SideArrays
    left: SideArrays
    parallel_scale: float
    degraded: set[int] = field(default_factory=set)
    retried: set[int] = field(default_factory=set)

    def result(self, device: DeviceSpec) -> KernelRunResult:
        """The k-run's result, with whatever its bus collected."""
        return KernelRunResult.of_sides(
            device, self.k, self.profile, self.right, self.left,
            degraded=sorted(self.degraded), retried=sorted(self.retried),
            replay=[] if self.replayer is None else self.replayer.launches,
            trace=[] if self.tracer is None else self.tracer.traces,
            sanitizer_report=(None if self.sanitizer is None
                              else self.sanitizer.report))


class _WalkGroup:
    """Consecutive launch attempts of a k-run that share one lockstep walk.

    A member constructs exactly as its own launch does — its own
    ``tables_cls(capacities, k)``, its own tally rows; its finished
    tables then move in behind the group's
    (:meth:`WarpHashTables.absorb <repro.kernels.vectortable.\
WarpHashTables.absorb>`: one contiguous warp and slot range per member
    of one table set) and die. One walk with the attribution log on then
    covers them all.
    """

    def __init__(self, kernel: "LocalAssemblyKernel", k: int, slots: int,
                 construct, walker) -> None:
        self.kernel = kernel
        self.tables = kernel.tables_cls.reserve(slots, k)
        self.construct = construct
        self.walker = walker
        self.segments: list[Segment] = []
        self.construct_rows: list[list] = []
        self.construct_failed: list[int] = []   # fused warp ids, in order

    def join(self, seg: Segment) -> None:
        tables = self.kernel.tables_cls(seg.sub.capacities, self.tables.k)
        base = self.tables.n_warps
        # nobody listens: a walk group forms only when nothing wants evidence
        cres = self.construct.run(seg.sub, tables, EventBus())
        self.tables.absorb(tables)
        self.construct_failed.extend(w + base for w in cres.overflowed)
        self.segments.append(seg)
        self.construct_rows.append(cres.rows)
        if self.kernel.overflow_policy is not OverflowPolicy.GROW_RETRY:
            # nothing re-launches: the insertions have served
            seg.sub = seg.sub.walk_only()

    def walk(self, attempt: int) -> None:
        """The members' one walk; an ``AttemptRecord`` lands on each."""
        fused, warp_base = concat_batches(
            [seg.sub.walk_only() for seg in self.segments])
        launch = LaunchRecord(warp_base)
        self.walker.log = launch.log
        try:
            wres = self.walker.run(fused, self.tables, EventBus())
        finally:
            self.walker.log = None
        launch.attribute()
        record_attempt(self.segments, launch, self.construct_failed, wres,
                       attempt, self.construct_rows)


class LocalAssemblyKernel:
    """Base class; subclasses set :attr:`protocol` and default warp size.

    Args:
        device: simulated GPU to run on.
        warp_size: lane width; defaults to the device's native width
            (the SYCL port exposes this as the sub-group size).
        policy: walk vote-resolution thresholds.
        max_walk_len: extension length cap.
        qual_threshold: phred cut separating hi/low-quality votes.
        seed: Murmur seed.
        load_factor: hash-table occupancy target for size estimation.
        table_sizing: "upper_bound" (default) reserves per-contig capacity
            from the k-independent read-volume bound, as the GPU
            pre-processing must (Figure 3: tables are sized once, before
            the k iterations run); "exact" sizes from the actual insertion
            count (the ablation comparison).
        l2_churn: cache-model churn constant (see
            :class:`repro.simt.memory.AnalyticCacheModel`).
        memory_model: "analytic" (default) prices traffic with the
            working-set model only; "trace" additionally streams every
            table-slot access through the exact batched cache hierarchy
            (:class:`~repro.kernels.engine.events.TraceReplaySubscriber`),
            leaving per-launch exact measurements in the result's
            ``replay`` for validating/recalibrating the analytic model.
            Profile counters always come from the analytic model, so trace
            mode changes no result — it adds exact measurements beside it.
        sanitize: ``None`` (default, off) or a check selection for the
            :class:`~repro.sanitize.Sanitizer` — ``"all"``,
            ``"racecheck"``, ``"synccheck"``, ``"initcheck"``, a
            comma-separated string, or an iterable. When set, the phases
            emit slot-write / slot-read / barrier records (gated on
            ``bus.wants``; off costs nothing) and the run's structured
            findings land in the result's ``sanitizer_report``.
    """

    protocol: ProtocolCosts  # set by subclasses

    #: Phase factories; the buggy sanitizer-demo backend swaps these for
    #: subclasses that seed protocol violations (:mod:`repro.sanitize.demo`),
    #: the parity oracle for its scalar references — which also overrides
    #: :meth:`_scatter` and :meth:`_iterate_k_schedule`.
    construct_cls = ConstructPhase
    walk_cls = WalkPhase
    preparer_cls = BatchPreparer
    tables_cls = WarpHashTables

    #: Table slots one *walk group* may hold (0 = nothing fuses: every
    #: launch walks alone and a wave runs its jobs solo — the parity
    #: reference, whose phases do not log). A walk has one lane per
    #: warp, so on Table II-shaped data (many contigs, 3-5 reads each) a
    #: launch's walk is fixed NumPy call cost over a median of 18
    #: walkers; while their tables fit this budget, consecutive launches
    #: of a k-run share one walk instead (:class:`_WalkGroup`, DESIGN.md
    #: decision 24) — a launch joins if two of its size would fit. Host
    #: memory only: 13 B per slot + 32 B per key = 6.8 MB of tags plus
    #: the votes. Measured on ``paper_grid`` (seed 7), walk steps / lookup
    #: rounds / wall per iteration (min of 4, one process): 13,572 /
    #: 53,231 / 5.2 s at 0; 6,036 / 29,929 / 4.3 s at ``1 << 18``; 4,185
    #: / 24,797 / 3.8 s at ``1 << 19`` (the k = 33 run, 492,474 slots,
    #: is one walk); 3,123 / 19,366 / 3.7 s at ``1 << 20``, which holds
    #: twice the memory. Every ``deep_multik`` launch (2,094,592 slots)
    #: exceeds it and runs as before.
    walk_group_slots = 1 << 19

    def __init__(
        self,
        device: DeviceSpec,
        warp_size: int | None = None,
        policy: WalkPolicy = DEFAULT_POLICY,
        max_walk_len: int = DEFAULT_MAX_WALK_LEN,
        qual_threshold: int = DEFAULT_QUAL_THRESHOLD,
        seed: int = 0,
        load_factor: float = DEFAULT_LOAD_FACTOR,
        table_sizing: str = "upper_bound",
        l2_churn: float = 4.0,
        lane_parallel_walks: bool = False,
        memory_model: str = "analytic",
        overflow_policy: OverflowPolicy | str = OverflowPolicy.RAISE,
        fault_injector=None,
        grow_factor: float | None = None,
        max_grow_attempts: int | None = None,
        sanitize=None,
    ) -> None:
        if not hasattr(self, "protocol"):
            raise KernelError("use a concrete kernel subclass, not the base")
        if table_sizing not in ("upper_bound", "exact"):
            raise KernelError(f"unknown table_sizing {table_sizing!r}")
        if memory_model not in ("analytic", "trace"):
            raise KernelError(f"unknown memory_model {memory_model!r}")
        self.device = device
        self.warp_size = int(warp_size or device.warp_size)
        if self.warp_size <= 0:
            raise KernelError(f"warp_size must be positive, got {self.warp_size}")
        self.policy = policy
        self.max_walk_len = max_walk_len
        self.qual_threshold = qual_threshold
        self.seed = seed
        self.load_factor = load_factor
        self.table_sizing = table_sizing
        self.l2_churn = l2_churn
        #: Future-work mode (paper Section VI): with independent thread
        #: scheduling, every lane of a warp can run its own mer-walk, so
        #: walk instructions stop wasting warp_size-1 issue lanes.
        self.lane_parallel_walks = lane_parallel_walks
        #: What a table overflow does: raise (default), drop the contig
        #: (the paper's ``*hashtable full*``), or grow-retry it.
        self.overflow_policy = OverflowPolicy.parse(overflow_policy)
        #: Optional :class:`repro.resilience.FaultInjector`; hooked
        #: around every launch and subscribed to the event bus.
        self.fault_injector = fault_injector
        self.grow_factor, self.max_grow_attempts = grow_budget(
            grow_factor, max_grow_attempts)
        self.launch_policy = BinnedLaunchPolicy()
        self.preparer = self.preparer_cls(
            seed=seed, qual_threshold=qual_threshold,
            load_factor=load_factor, table_sizing=table_sizing,
        )
        #: When True, every table-slot access's byte address is recorded
        #: into the result's ``trace`` (one array per launch) so the
        #: analytic cache model can be validated against the exact trace
        #: simulator.
        self.record_trace = False
        self.memory_model = memory_model
        if sanitize:
            # imported lazily: repro.sanitize imports this module
            from repro.sanitize.report import parse_checks
            self.sanitize_checks = parse_checks(sanitize)
        else:
            self.sanitize_checks = ()
        #: Extra event subscribers attached to every subsequent run —
        #: the observability extension point.
        self.extra_subscribers: list = []

    # ------------------------------------------------------------------

    def add_subscriber(self, subscriber):
        """Attach an event subscriber to all future runs of this kernel."""
        self.extra_subscribers.append(subscriber)
        return subscriber

    def _build_bus(self) -> tuple[EventBus, TraceSubscriber | None,
                                  TraceReplaySubscriber | None, object | None]:
        """Assemble the diagnostic subscribers of one run (the profile is
        charged directly, :meth:`_end_launch`)."""
        bus = EventBus()
        tracer = bus.subscribe(TraceSubscriber()) if self.record_trace else None
        replayer = (bus.subscribe(TraceReplaySubscriber(self.device))
                    if self.memory_model == "trace" else None)
        sanitizer = None
        if self.sanitize_checks:
            from repro.sanitize.checkers import Sanitizer
            sanitizer = bus.subscribe(Sanitizer(self.sanitize_checks))
        for sub in self.extra_subscribers:
            bus.subscribe(sub)
        return bus, tracer, replayer, sanitizer

    def _fuses(self) -> bool:
        """Whether launches of this kernel may share a lockstep program —
        a walk group in :meth:`run`, a wave in
        :func:`~repro.kernels.engine.coalesce.run_schedule_coalesced`.

        A fused program carries counts only; evidence is numbered by one
        launch's slots and warps. So a kernel does not fuse when a
        subscriber of its run bus (:meth:`_build_bus`) wants an
        ``EVIDENCE_EVENTS`` class: a tracer, the trace replayer, a
        sanitizer, or an extra subscriber that asks for one — nor when
        its :attr:`walk_group_slots` is 0.
        """
        asked = EventBus()
        for sub in self.extra_subscribers:
            asked.subscribe(sub)
        return not (self.walk_group_slots <= 0 or self.record_trace
                    or self.memory_model == "trace" or self.sanitize_checks
                    or any(map(asked.wants, EVIDENCE_EVENTS)))

    def launch_config(self, depth_ratio: float = 2.0,
                      max_batch_insertions: int | None = None) -> LaunchConfig:
        """The launch policy's inputs for this kernel — the one place the
        defaults live, so solo runs and coalesced waves plan identically
        (any drift would break byte-identity for jobs that split bins).
        """
        if max_batch_insertions is None:
            # reserve at most ~25% of HBM for tables in one launch
            max_batch_insertions = int(
                self.device.hbm_bytes * 0.25 * self.load_factor / SLOT_BYTES
            )
        return LaunchConfig(depth_ratio=depth_ratio,
                            max_batch_insertions=max_batch_insertions,
                            load_factor=self.load_factor)

    # ------------------------------------------------------------------
    # Launch bookkeeping, shared: ``run`` executes the phases, the
    # coalescing driver replays attributed launches, and both account
    # for every launch attempt through the methods below.

    def _begin_run(self, n_contigs: int, k: int,
                   parallel_scale: float) -> _KRun:
        """A fresh profile, instrumentation stack and sides for one k."""
        profile = KernelProfile(warp_size=self.warp_size)
        profile.walk_issue_width = (1 if self.lane_parallel_walks
                                    else self.warp_size)
        profile.contigs = n_contigs
        return _KRun(k, profile, *self._build_bus(),
                     right=SideArrays.empty(n_contigs),
                     left=SideArrays.empty(n_contigs),
                     parallel_scale=parallel_scale)

    def _start_launch(self, bus: EventBus, sub: Batch,
                      k: int) -> LaunchStarted:
        """Emit the ``LaunchStarted`` of one launch attempt over ``sub``;
        return it, the context :meth:`_end_launch` charges the attempt in."""
        total_slots = int(sub.capacities.sum())
        bus.emit(ctx := LaunchStarted(
            k=k, hash_ops=hash_intops(k), n_warps=sub.n_warps,
            mean_table_bytes=float(np.mean(sub.capacities)) * SLOT_BYTES,
            mean_read_bytes=float(np.mean(sub.read_bytes_per_warp)),
            cold_footprint_bytes=total_slots * SLOT_BYTES + 2 * sub.codes.size,
            total_slots=total_slots,
            contig_ids=(tuple(int(ci) for ci in sub.contig_ids)
                        if self.sanitize_checks else ()),
        ))
        return ctx

    def _end_launch(self, krun: _KRun, ctx: LaunchStarted,
                    tally: LaunchTally) -> None:
        """Charge a finished launch attempt to the k-run's profile and
        render its count events for a subscriber that asks."""
        render(krun.bus, tally, charge(krun.profile, ctx, tally, self,
                                       krun.parallel_scale))

    def _retry_capacities(self, sub: Batch, failed: list[int],
                          attempt: int) -> np.ndarray | None:
        """Grown capacities for ``failed`` if attempt ``attempt`` (0-based)
        is followed by a grow-retry re-launch; ``None`` if none is."""
        if (not failed
                or self.overflow_policy is not OverflowPolicy.GROW_RETRY
                or attempt >= self.max_grow_attempts):
            return None
        return grown_capacity(sub.capacities[failed], self.grow_factor)

    def _scatter(self, arr: SideArrays, end: End, sub: Batch, walk,
                 ok: np.ndarray) -> None:
        """Scatter a launch's accepted walks (``ok`` warps) into ``arr``
        in one batched decode + array assignment (left ends
        reverse-complement as a matrix gather, not per string). ``walk``
        carries ``base_codes`` / ``base_lens`` / ``state_codes``."""
        cis = np.asarray(sub.contig_ids, dtype=np.int64)[ok]
        if not cis.size:
            return
        lens = walk.base_lens[ok]
        mat = walk.base_codes[ok]
        if end is not End.RIGHT:
            mat = reverse_complement_matrix(mat, lens)
        arr.text[cis] = decode_matrix(mat, lens)
        arr.lens[cis] = lens
        arr.state_codes[cis] = walk.state_codes[ok]

    def _settle(self, krun: _KRun, end: End, sub: Batch, walk,
                construct_failed, walk_failed, attempt: int,
                grown: np.ndarray | None) -> None:
        """Settle one finished launch attempt — the one place a full
        table is answered (Figure 3's ``*hashtable full*``), for a launch
        run alone and one replayed from a fused program alike.

        ``construct_failed`` / ``walk_failed`` name the warps that
        overflowed (launch-local, in the order they did). Under the
        RAISE policy the first of them — construction runs before the
        walk — becomes the :class:`~repro.errors.HashTableFullError`.
        Otherwise the walks of the other warps scatter, and the failed
        ones are either retried — ``ContigRetried`` each, at the
        ``grown`` capacities :meth:`_retry_capacities` gave the caller —
        or, ``grown`` being ``None``, dropped: ``ContigDropped`` each,
        the end blanked.
        """
        failed = sorted({*construct_failed, *walk_failed})
        k, bus = krun.k, krun.bus
        if failed and self.overflow_policy is OverflowPolicy.RAISE:
            if construct_failed:
                w, msg = construct_failed[0], \
                    "hash table overflow during construction"
            else:
                w, msg = walk_failed[0], \
                    "hash table wrapped during walk lookup"
            # a probe offset is bounds-checked every iteration once it
            # can reach the capacity: the failing probe count equals it
            cap = int(sub.capacities[w])
            raise HashTableFullError(msg, contig_id=int(sub.contig_ids[w]),
                                     k=k, capacity=cap, probes=cap)
        arr = krun.right if end is End.RIGHT else krun.left
        ok = np.ones(sub.n_warps, dtype=bool)
        ok[failed] = False
        self._scatter(arr, end, sub, walk, ok)
        if grown is not None:
            krun.profile.overflow_retries += len(failed)
            for w, cap in zip(failed, grown):
                bus.emit(ContigRetried(
                    contig_id=sub.contig_ids[w], k=k,
                    attempt=attempt + 1, capacity=int(cap)))
                krun.retried.add(sub.contig_ids[w])
            return
        end_name = "right" if end is End.RIGHT else "left"
        krun.profile.contigs_dropped += len(failed)
        for w in failed:
            ci = sub.contig_ids[w]
            bus.emit(ContigDropped(
                contig_id=ci, k=k, end=end_name,
                capacity=int(sub.capacities[w])))
            krun.degraded.add(ci)
            arr.put(ci, "", WalkState.MISSING)

    def _phases(self) -> tuple:
        """A ``(construct, walk)`` phase pair from the kernel's factories."""
        return (self.construct_cls(self.protocol, self.warp_size),
                self.walk_cls(self.policy, self.max_walk_len, self.seed))

    def _run_attempts(self, live: list[Segment], launch) -> None:
        """Run ``launch(live, attempt)`` — one fused program that records
        an attempt on every live segment — then again over the segments
        that grow-retry, narrowed to their failing warps, until none do.
        Each record keeps the grown capacities for :meth:`_settle`."""
        attempt = 0
        while live:
            launch(live, attempt)
            retry: list[Segment] = []
            for seg in live:
                rec = seg.records[-1]
                failed = rec.failed
                rec.grown = self._retry_capacities(seg.sub, failed, attempt)
                if rec.grown is not None:
                    seg.sub = subset_batch(seg.sub, failed, rec.grown)
                    retry.append(seg)
            live = retry
            attempt += 1

    def _replay(self, krun: _KRun, segments: list[Segment]) -> None:
        """Charge attributed launch attempts in solo order — all of a
        plan's attempts, then the next plan's — and settle each as
        :meth:`_launch` does (under the RAISE policy the first overflow
        raises there, and nothing after it replays)."""
        bus, k = krun.bus, krun.k
        for seg in segments:
            for rec in seg.records:
                self._end_launch(krun, self._start_launch(bus, rec.sub, k),
                                 rec.tally)
                self._settle(krun, seg.plan.end, rec.sub, rec,
                             rec.construct_failed, rec.walk_failed,
                             rec.attempt, rec.grown)

    def _finish_group(self, krun: _KRun, group: _WalkGroup) -> None:
        """Walk a group, re-launch what grow-retries, replay every launch."""
        segments = group.segments

        def launch(live: list[Segment], attempt: int) -> None:
            members = group
            if attempt:
                # only the failing warps re-launch, so their grown tables
                # get a room of exactly their size
                members = _WalkGroup(
                    self, krun.k,
                    sum(int(seg.sub.capacities.sum()) for seg in live),
                    group.construct, group.walker)
                for seg in live:
                    members.join(seg)
            members.walk(attempt)

        self._run_attempts(segments, launch)
        self._replay(krun, segments)

    def _launch(self, krun: _KRun, end: End, sub: Batch, attempt: int,
                construct, walker) -> Batch | None:
        """One launch attempt over ``sub``; returns the batch of its
        grow-retry re-launch, ``None`` once every contig is settled.

        The tables and the walk output — the bulk of a launch's memory —
        die with this frame, before the next plan is prepared.
        """
        k, bus = krun.k, krun.bus
        tables = self.tables_cls(sub.capacities, k)
        ctx = self._start_launch(bus, sub, k)
        cres = construct.run(sub, tables, bus)
        wres = walker.run(sub, tables, bus)
        self._end_launch(krun, ctx,
                         LaunchTally(wres.state_codes, cres.rows, wres.rows))
        failed = sorted({*cres.overflowed, *wres.overflowed})
        grown = self._retry_capacities(sub, failed, attempt)
        self._settle(krun, end, sub, wres, cres.overflowed, wres.overflowed,
                     attempt, grown)
        return subset_batch(sub, failed, grown) if grown is not None else None

    # ------------------------------------------------------------------

    def run(
        self,
        contigs: list[Contig],
        k: int,
        depth_ratio: float = 2.0,
        max_batch_insertions: int | None = None,
        parallel_scale: float = 1.0,
        pending: dict[End, np.ndarray] | None = None,
    ) -> KernelRunResult:
        """Execute the full local-assembly workflow (Figure 3) at one k.

        ``parallel_scale`` declares what fraction of the paper-size
        dataset ``contigs`` represents, so the cache model can apply
        full-size concurrency pressure to a scaled run.
        ``pending`` is how a k-schedule passes the contig ends that
        still fork (:func:`~repro.kernels.engine.schedule.pending_ends`):
        only those are launched, every other end comes back unextended
        (``("", MISSING)``), and the profile counts the k-run's flattens
        (``prep_cache_misses``). Without it both ends of every contig
        launch.

        Returns functional extensions for both ends of every contig plus
        the merged :class:`KernelProfile` (time left at zero — the timing
        model in :mod:`repro.perfmodel.timing` fills it from the counters).
        """
        if parallel_scale <= 0 or parallel_scale > 1:
            raise KernelError(f"parallel_scale must be in (0, 1], got {parallel_scale}")
        plans = self.launch_policy.plan(contigs, k, self.launch_config(
            depth_ratio, max_batch_insertions))
        krun = self._begin_run(len(contigs), k, parallel_scale)
        if pending is not None:
            plans = narrow_plans(plans, contigs, pending)
            krun.profile.prep_cache_misses = len(plans)
        construct, walker = self._phases()
        injector = self.fault_injector
        # launch ordinals stay per launch: with an injector nothing groups
        budget = (self.walk_group_slots
                  if injector is None and self._fuses() else 0)
        group: _WalkGroup | None = None
        for plan in plans:
            ordinal = injector.begin_launch() if injector is not None else -1
            sub = self.preparer.prepare(contigs, plan.bin, plan.end, k)
            if injector is not None:
                injector.shape_batch(sub, ordinal)
            slots = int(sub.capacities.sum())
            # a launch shares a walk if two of its size would fit
            shares = 2 * slots <= budget
            if group is not None and not (
                    shares and group.tables.total_slots + slots <= budget):
                self._finish_group(krun, group)
                group = None
            if shares:
                if group is None:
                    group = _WalkGroup(self, k, budget, construct, walker)
                group.join(Segment(plan, sub))
                continue
            attempt = 0
            while sub is not None:
                sub = self._launch(krun, plan.end, sub, attempt,
                                   construct, walker)
                attempt += 1
        if group is not None:
            self._finish_group(krun, group)
        result = krun.result(self.device)
        if injector is not None:
            injector.degrade_result(result)
        return result

    def _iterate_k_schedule(self, run_one, n_contigs: int,
                            k_schedule: tuple[int, ...]) -> KSchedule:
        """The k-schedule fold :meth:`run_schedule` drives (a seam: the
        oracle kernel substitutes the per-contig scalar fold)."""
        return iterate_k_schedule(run_one, n_contigs, k_schedule)

    def run_schedule(
        self,
        contigs: list[Contig],
        k_schedule: tuple[int, ...] = (21, 33, 55, 77),
        parallel_scale: float = 1.0,
    ) -> KernelRunResult:
        """Iterate the k schedule on-device (Figures 2 and 4).

        Per contig end, the first *accepted* walk (anything but a fork)
        at the smallest k wins, and forked ends retry at the next k,
        keeping the longest extension if no k resolves the fork. The
        first k launches every bin in both directions; a later k
        launches only the contig ends that have not settled (their bins
        narrowed, emptied bins dropped), so a settled end costs nothing
        more and a table overflow at a later k cannot touch it. Every
        launch flattens its own read stream and lets it go before the
        next is prepared. Profiles of all launches merge; the result's
        ``k`` reports the last k executed, and its diagnostics cover the
        launches of every k (:class:`KSchedule`).
        """
        return self._iterate_k_schedule(
            lambda k, pending: self.run(contigs, k,
                                        parallel_scale=parallel_scale,
                                        pending=pending),
            len(contigs), k_schedule).result(self.device)
