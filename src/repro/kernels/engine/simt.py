"""The staged SIMT execution engine driving the three vendor ports.

Execution model (Figure 4 of the paper): one contig per warp. Per
launch plan (one bin, one extension direction, from
:class:`~repro.kernels.engine.schedule.BinnedLaunchPolicy`) the engine
runs **prepare** (:mod:`~repro.kernels.engine.prepare`: flatten + hash
the bin's reads), **construct** (:mod:`~repro.kernels.engine.construct`:
insertion waves with the port's collision protocol) and **walk**
(:mod:`~repro.kernels.engine.walk`: the predicated mer-walk). Every
launch attempt ends in one tally (:mod:`~repro.kernels.engine.tally`)
that one fold charges to the profile; the event bus
(:mod:`~repro.kernels.engine.events`) carries evidence, and count
events for a subscriber that asks.

Three rules live here and nowhere else. *Fusion*
(:meth:`LocalAssemblyKernel._fuses`): launches share a lockstep program
— a k-run's walk groups, a multi-tenant wave — only when no subscriber
wants slot-numbered evidence, so a fused program carries counts only.
*Overflow* (:meth:`LocalAssemblyKernel._settle`): the phases report the
warps whose table filled; the driver alone raises, drops or grow-retries
them. *Following* (:func:`run_ports`): ports that share an input share
its prepare and one walk path, each checked against its own tables.
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
from repro.kernels.engine.walk import WalkPhase, WalkTape
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
    """One kernel's k-run in flight: its instrumentation, its phases and
    what its launches settle into (:meth:`LocalAssemblyKernel._settle`)."""

    k: int
    profile: KernelProfile
    bus: EventBus
    tracer: TraceSubscriber | None
    replayer: TraceReplaySubscriber | None
    sanitizer: object | None
    right: SideArrays
    left: SideArrays
    parallel_scale: float
    kernel: "LocalAssemblyKernel"
    construct: ConstructPhase
    walker: WalkPhase
    degraded: set[int] = field(default_factory=set)
    retried: set[int] = field(default_factory=set)

    def result(self) -> KernelRunResult:
        """The k-run's result, with whatever its bus collected."""
        return KernelRunResult.of_sides(
            self.kernel.device, self.k, self.profile, self.right, self.left,
            degraded=sorted(self.degraded), retried=sorted(self.retried),
            replay=[] if self.replayer is None else self.replayer.launches,
            trace=[] if self.tracer is None else self.tracer.traces,
            sanitizer_report=(None if self.sanitizer is None
                              else self.sanitizer.report))


class _WalkGroup:
    """Consecutive launch attempts of a k-run that share one lockstep walk.

    A member constructs its own tables, as its own launch would; they
    then move in behind the group's (:meth:`WarpHashTables.absorb
    <repro.kernels.vectortable.WarpHashTables.absorb>`) and die. One walk
    with the attribution log on covers them all.
    """

    def __init__(self, krun: _KRun, slots: int, members=()) -> None:
        self.kernel = kernel = krun.kernel
        self.tables = kernel.tables_cls.reserve(slots, krun.k)
        self.construct = krun.construct
        self.walker = krun.walker
        self.segments: list[Segment] = []
        self.construct_rows: list[list] = []
        self.construct_failed: list[int] = []   # fused warp ids, in order
        for seg in members:
            self.join(seg)

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
        """The members' one walk; an ``AttemptRecord`` lands on each. The
        walked tables die here."""
        fused, warp_base = concat_batches(
            [seg.sub.walk_only() for seg in self.segments])
        launch = LaunchRecord(warp_base)
        self.walker.log = launch.log
        try:
            wres = self.walker.run(fused, self.tables, EventBus())
        finally:
            self.walker.log = None
        self.tables = None
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
        table_sizing: "upper_bound" (default) sizes tables from the
            k-independent read-volume bound (Figure 3: once, before the k
            iterations); "exact" from the insertion count (the ablation).
        l2_churn: cache-model churn constant (see
            :class:`repro.simt.memory.AnalyticCacheModel`).
        memory_model: "analytic" (default) prices traffic with the
            working-set model; "trace" also streams every slot access
            through the exact cache hierarchy
            (:class:`~repro.kernels.engine.events.TraceReplaySubscriber`)
            into the result's ``replay`` — measurements beside the
            unchanged analytic counters.
        sanitize: ``None`` (off) or a check selection for the
            :class:`~repro.sanitize.Sanitizer` (``"all"``, a check name,
            a comma list, an iterable); its findings land in the
            result's ``sanitizer_report``.
    """

    protocol: ProtocolCosts  # set by subclasses

    #: Phase factories (the sanitizer's test mutants and the parity
    #: oracle swap in their own; the oracle also overrides
    #: :meth:`_scatter` and :meth:`_iterate_k_schedule`).
    construct_cls = ConstructPhase
    walk_cls = WalkPhase
    preparer_cls = BatchPreparer
    tables_cls = WarpHashTables

    #: Table slots one *walk group* may hold (0 = nothing fuses: every
    #: launch walks alone and a wave runs its jobs solo — the parity
    #: reference, whose phases do not log). A walk has one lane per warp,
    #: so on Table II-shaped data a launch's walk is fixed NumPy call cost
    #: over a few walkers; while their tables fit this budget (a launch
    #: joins if two of its size would fit), consecutive launches of a
    #: k-run share one walk (:class:`_WalkGroup`). Host memory: 13 B per
    #: slot + 32 B per key. Sized in DESIGN.md decision 24.
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
        #: Future-work mode (Section VI): every lane runs its own mer-walk.
        self.lane_parallel_walks = lane_parallel_walks
        #: A full table raises (default), drops the contig or grow-retries.
        self.overflow_policy = OverflowPolicy.parse(overflow_policy)
        #: Optional :class:`repro.resilience.FaultInjector`, per launch.
        self.fault_injector = fault_injector
        self.grow_factor, self.max_grow_attempts = grow_budget(
            grow_factor, max_grow_attempts)
        self.launch_policy = BinnedLaunchPolicy()
        self.preparer = self.preparer_cls(
            seed=seed, qual_threshold=qual_threshold,
            load_factor=load_factor, table_sizing=table_sizing,
        )
        #: Record every slot access's byte address into the result's
        #: ``trace`` (one array per launch), to validate the cache model.
        self.record_trace = False
        self.memory_model = memory_model
        if sanitize:
            # imported lazily: repro.sanitize imports this module
            from repro.sanitize.report import parse_checks
            self.sanitize_checks = parse_checks(sanitize)
        else:
            self.sanitize_checks = ()
        #: Extra event subscribers attached to every subsequent run.
        self.extra_subscribers: list = []

    # ------------------------------------------------------------------

    def add_subscriber(self, subscriber):
        """Attach an event subscriber to all future runs of this kernel."""
        self.extra_subscribers.append(subscriber)
        return subscriber

    def _build_bus(self) -> tuple[EventBus, TraceSubscriber | None,
                                  TraceReplaySubscriber | None, object | None]:
        """Assemble the diagnostic subscribers of one run."""
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
        """Whether launches of this kernel may share a lockstep program (a
        walk group, a wave) — not when :attr:`walk_group_slots` is 0, nor
        when a subscriber of its run bus wants an ``EVIDENCE_EVENTS``
        class, which is numbered by one launch's slots and warps."""
        asked = EventBus()
        for sub in self.extra_subscribers:
            asked.subscribe(sub)
        return not (self.walk_group_slots <= 0 or self.record_trace
                    or self.memory_model == "trace" or self.sanitize_checks
                    or any(map(asked.wants, EVIDENCE_EVENTS)))

    def launch_config(self, depth_ratio: float = 2.0,
                      max_batch_insertions: int | None = None) -> LaunchConfig:
        """The launch policy's inputs for this kernel — the one place the
        defaults live, so every driver plans identically."""
        if max_batch_insertions is None:
            # reserve at most ~25% of HBM for tables in one launch
            max_batch_insertions = int(
                self.device.hbm_bytes * 0.25 * self.load_factor / SLOT_BYTES
            )
        return LaunchConfig(depth_ratio=depth_ratio,
                            max_batch_insertions=max_batch_insertions,
                            load_factor=self.load_factor)

    # ------------------------------------------------------------------
    # Launch bookkeeping, shared by every driver.

    def _begin_run(self, n_contigs: int, k: int, parallel_scale: float,
                   flattens: int = 0) -> _KRun:
        """A fresh k-run: profile, instrumentation, phases and sides;
        ``flattens`` counts its prepares (a k-schedule's later k-runs)."""
        profile = KernelProfile(warp_size=self.warp_size)
        profile.walk_issue_width = (1 if self.lane_parallel_walks
                                    else self.warp_size)
        profile.contigs = n_contigs
        profile.prep_cache_misses = flattens
        return _KRun(k, profile, *self._build_bus(),
                     SideArrays.empty(n_contigs), SideArrays.empty(n_contigs),
                     parallel_scale, self, *self._phases())

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
        """Scatter a launch's accepted walks (``ok`` warps; ``walk`` has
        ``base_codes`` / ``base_lens`` / ``state_codes``) into ``arr``,
        decoded in one batch."""
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
        table is answered (Figure 3's ``*hashtable full*``).

        ``construct_failed`` / ``walk_failed`` name the overflowed warps
        (launch-local, in overflow order). Under RAISE the first of them
        (construction first) becomes the
        :class:`~repro.errors.HashTableFullError`. Otherwise the other
        warps' walks scatter, and the failed ones are retried at
        ``grown`` (``ContigRetried`` each) or, ``grown`` being ``None``,
        dropped (``ContigDropped`` each, the end blanked).
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
        """Run ``launch(live, attempt)`` — one fused program recording an
        attempt on every live segment — then again over the segments that
        grow-retry (their failing warps, at grown capacities) until none
        do."""
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
        """Charge and settle attributed launch attempts in solo order —
        a plan's attempts, then the next plan's (a RAISE ends it)."""
        bus, k = krun.bus, krun.k
        for seg in segments:
            for rec in seg.records:
                self._end_launch(krun, self._start_launch(bus, rec.sub, k),
                                 rec.tally)
                self._settle(krun, seg.plan.end, rec.sub, rec,
                             rec.construct_failed, rec.walk_failed,
                             rec.attempt, rec.grown)

    def _finish_group(self, krun: _KRun, group: _WalkGroup) -> bool:
        """Walk a group, re-launch what grow-retries, replay every launch;
        whether its first walk left a warp overflowed."""
        segments = group.segments

        def launch(live: list[Segment], attempt: int) -> None:
            members = group
            if attempt:
                # only the failing warps re-launch, so their grown tables
                # get a room of exactly their size
                members = _WalkGroup(krun, sum(
                    int(seg.sub.capacities.sum()) for seg in live), live)
            members.walk(attempt)

        self._run_attempts(segments, launch)
        self._replay(krun, segments)
        return any(seg.records[0].failed for seg in segments)

    def _launch(self, krun: _KRun, end: End, sub: Batch) -> bool:
        """Launch ``sub`` alone, then grow-retry the warps that overflowed
        until every contig is settled; whether the first attempt
        overflowed. An attempt's tables — the bulk of a launch's memory
        — die as soon as it has walked."""
        k, bus = krun.k, krun.bus
        attempt = 0
        while True:
            tables = self.tables_cls(sub.capacities, k)
            ctx = self._start_launch(bus, sub, k)
            cres = krun.construct.run(sub, tables, bus)
            wres = krun.walker.run(sub, tables, bus)
            del tables
            self._end_launch(krun, ctx, LaunchTally(
                wres.state_codes, cres.rows, wres.rows))
            failed = sorted({*cres.overflowed, *wres.overflowed})
            grown = self._retry_capacities(sub, failed, attempt)
            self._settle(krun, end, sub, wres, cres.overflowed,
                         wres.overflowed, attempt, grown)
            if not attempt:
                overflowed = bool(failed)
            if grown is None:
                return overflowed
            sub = subset_batch(sub, failed, grown)
            attempt += 1

    def _lead_key(self) -> tuple | None:
        """What a follower shares with its lead (:func:`run_ports`): the
        prepare and what a walk's path depends on; ``None`` under a fault
        injector or without :meth:`_fuses` (it runs alone)."""
        if self.fault_injector is not None or not self._fuses():
            return None
        return (type(self.preparer), vars(self.preparer), self.policy,
                self.max_walk_len)

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
        """Execute the full local-assembly workflow (Figure 3) at one k:
        extensions for both ends of every contig and the merged
        :class:`KernelProfile` (times are the timing model's to fill).

        ``parallel_scale`` is the fraction of the paper-size dataset
        ``contigs`` represents (the cache model applies full-size
        pressure). ``pending`` is how a k-schedule passes the ends that
        still fork (:func:`~repro.kernels.engine.schedule.pending_ends`):
        only those launch, the rest come back ``("", MISSING)``, and the
        profile counts the k-run's flattens (``prep_cache_misses``).
        """
        return run_ports((self,), contigs, k, depth_ratio,
                         max_batch_insertions, parallel_scale, pending)[0]

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

        Per contig end the first *accepted* walk (anything but a fork) at
        the smallest k wins; forked ends retry at the next k, which
        launches only the ends not yet settled, keeping the longest
        extension if no k resolves the fork. Profiles merge; the result's
        ``k`` is the last k run, its diagnostics cover every k
        (:class:`KSchedule`).
        """
        return self._iterate_k_schedule(
            lambda k, pending: self.run(contigs, k,
                                        parallel_scale=parallel_scale,
                                        pending=pending),
            len(contigs), k_schedule).result(self.device)


def _lead_and_follow(kruns: list[_KRun], program) -> None:
    """Run one launch or walk group on every port: ``program(krun)`` runs
    it, with its re-launches, on one port and says whether its first
    attempt overflowed; unless the lead's did, the followers follow it."""
    lead, *followers = kruns
    lead.walker.tape = tape = WalkTape() if followers else None
    overflowed = program(lead)
    for krun in followers:
        krun.walker.tape = None if overflowed else tape
        program(krun)


def run_ports(kernels, contigs: list[Contig], k: int,
              depth_ratio: float = 2.0,
              max_batch_insertions: int | None = None,
              parallel_scale: float = 1.0,
              pending: dict[End, np.ndarray] | None = None,
              ) -> list[KernelRunResult]:
    """Run one k of one input on several ports: one result per kernel,
    each equal to its own ``run`` (``run_ports((kernel,), ...)[0]``).

    Each launch plan is prepared once. ``kernels[0]``, the *lead*, walks
    and tapes each walk (:class:`~repro.kernels.engine.walk.WalkTape`);
    each *follower* constructs its own tables in walk groups that mirror
    the lead's and only looks the taped keys up in them (DESIGN.md
    decision 34), unless the lead's program overflowed. Each kernel runs
    alone if their plans or :meth:`~LocalAssemblyKernel._lead_key` differ.
    """
    if parallel_scale <= 0 or parallel_scale > 1:
        raise KernelError(f"parallel_scale must be in (0, 1], got {parallel_scale}")
    plans = [kern.launch_policy.plan(contigs, k, kern.launch_config(
        depth_ratio, max_batch_insertions)) for kern in kernels]
    if pending is not None:
        plans = [narrow_plans(p, contigs, pending) for p in plans]
    key = kernels[0]._lead_key()
    if len(kernels) > 1 and (key is None or any(
            p != plans[0] or kern._lead_key() != key
            for kern, p in zip(kernels, plans))):
        return [run_ports((kern,), contigs, k, depth_ratio,
                          max_batch_insertions, parallel_scale, pending)[0]
                for kern in kernels]
    kruns = [kern._begin_run(len(contigs), k, parallel_scale,
                             0 if pending is None else len(plans[0]))
             for kern in kernels]
    lead = kruns[0]
    injector = lead.kernel.fault_injector
    # launch ordinals stay per launch: with an injector nothing groups
    budget = (lead.kernel.walk_group_slots
              if injector is None and lead.kernel._fuses() else 0)
    group: _WalkGroup | None = None
    held: list[Segment] = []    # the group's full batches, for followers

    def finish_group() -> None:
        def program(krun: _KRun) -> bool:
            own = group if krun is lead else _WalkGroup(
                krun, budget, [Segment(seg.plan, seg.sub) for seg in held])
            return krun.kernel._finish_group(krun, own)

        _lead_and_follow(kruns, program)

    for plan in plans[0]:
        ordinal = injector.begin_launch() if injector is not None else -1
        sub = lead.kernel.preparer.prepare(contigs, plan.bin, plan.end, k)
        if injector is not None:
            injector.shape_batch(sub, ordinal)
        slots = int(sub.capacities.sum())
        # a launch shares a walk if two of its size would fit
        shares = 2 * slots <= budget
        if group is not None and not (
                shares and group.tables.total_slots + slots <= budget):
            finish_group()
            group, held = None, []
        if shares:
            if group is None:
                group = _WalkGroup(lead, budget)
            group.join(Segment(plan, sub))
            if len(kruns) > 1:
                held.append(Segment(plan, sub))
            continue
        _lead_and_follow(kruns, lambda krun, end=plan.end, sub=sub:
                         krun.kernel._launch(krun, end, sub))
        del sub     # the launch's batch dies before the next is prepared
    if group is not None:
        finish_group()
    results = [krun.result() for krun in kruns]
    if injector is not None:
        injector.degrade_result(results[0])
    return results
