"""The instrumentation-hook layer: typed engine events + subscribers.

The execution engine never mutates a :class:`~repro.simt.counters.KernelProfile`
or a traffic ledger inline. Instead, the phases emit *events* describing
what just executed (a construction wave, a probe iteration, a walk step,
a batch of table-slot accesses, a finished launch) onto an
:class:`EventBus`, and independent subscribers turn those events into
observations:

* :class:`ProfileSubscriber` — instruction/operation counters
  (:class:`~repro.simt.counters.KernelProfile`).
* :class:`TrafficSubscriber` — the per-launch
  :class:`~repro.simt.memory.AnalyticCacheModel` traffic accounting;
  publishes a :class:`MemoryTrafficResolved` event back onto the bus so
  the profile can absorb the byte counts and latency-weighted chain
  cycles without the two subscribers knowing about each other.
* :class:`TraceSubscriber` — exact table-slot address traces for the
  trace-driven cache-simulator validation.
* :class:`TraceReplaySubscriber` — streams every launch's slot trace
  through the exact batched cache hierarchy
  (:meth:`~repro.simt.memory.CacheHierarchy.replay`) during a normal
  kernel run (``memory_model="trace"``), yielding measured per-level
  counts to validate — and recalibrate ``l2_churn`` in — the analytic
  model.

Any object with a ``handle(event, bus)`` method can subscribe, so new
observability (histograms, per-launch logs, live dashboards) attaches
without touching kernel code. Subscribers may declare the event types
they consume in a ``handled_events`` class attribute; the phases use
:meth:`EventBus.wants` to skip building hot-loop events (the per-probe
:class:`SlotAccess` arrays) that nobody listens to.

Ordering note: :class:`TrafficSubscriber` emits
:class:`MemoryTrafficResolved` while handling :class:`LaunchDone`;
subscribers that consume both (the profile) must be registered *before*
it so they see the launch stats first. The SIMT driver
(:mod:`repro.kernels.engine.simt`) registers them in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.vectortable import SLOT_BYTES, SLOT_TAG_BYTES, SLOT_VALUE_BYTES
from repro.simt.device import DeviceSpec
from repro.simt.memory import (
    AccessCategory,
    AnalyticCacheModel,
    CacheHierarchy,
    implied_l2_churn,
)

#: Warp instructions charged per probe iteration (loop bookkeeping).
ITERATION_BASE_INSTRS = 10

#: Thread-level integer ops per walk step outside the hash (state updates).
WALK_STEP_INTOPS = 24

# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LaunchStarted:
    """A kernel launch (one bin, one extension direction) is beginning."""

    k: int
    hash_ops: int                 #: INTOPs of one k-length Murmur hash
    n_warps: int                  #: contigs (= warps) in the launch
    mean_table_bytes: float       #: mean per-warp hash-table footprint
    mean_read_bytes: float        #: mean per-warp read-buffer footprint
    cold_footprint_bytes: float   #: compulsory-traffic floor of the launch
    total_slots: int = 0          #: table slots across all warps (sanitizer)
    #: Per-warp contig ids, for finding provenance. Populated only when a
    #: sanitizer is attached (building the tuple costs per-launch work).
    contig_ids: tuple = ()


@dataclass(frozen=True)
class WaveExecuted:
    """One construction wave hashed + dispatched its k-mers."""

    lanes: int                    #: k-mers hashed (insertions issued)
    warps: int                    #: warps with at least one pending lane


@dataclass(frozen=True)
class ProbeIteration:
    """One lockstep probe iteration over all pending lanes.

    ``phase`` is ``"construct"`` (insert probing) or ``"walk"`` (lookup
    probing); the vote/CAS fields are only non-zero during construction.
    """

    phase: str                    #: "construct" | "walk"
    lanes: int                    #: lanes still pending this iteration
    warps: int                    #: warps with pending lanes
    key_compares: int             #: occupied slots whose key was compared
    cas_attempts: int = 0         #: atomicCAS claims issued on empty slots
    votes_matched: int = 0        #: votes merged into pre-existing keys
    votes_claimed: int = 0        #: votes by fresh CAS winners
    votes_merged: int = 0         #: same-iteration loser merges (match_any)


@dataclass(frozen=True)
class WalkStep:
    """One lockstep mer-walk step across all still-walking warps."""

    walkers: int                  #: warps that executed this step
    vote_reads: int               #: slot vote rows read to resolve bases
    bases_committed: int          #: bases accepted across all walkers


@dataclass(frozen=True)
class SlotAccess:
    """Raw table-slot indices touched by one probe iteration.

    ``kind`` names the access category (``"probe"``, ``"claim"``,
    ``"vote"``, ``"vote_read"``); emission sites must pass it explicitly
    (lint rule REP004), so trace consumers can attribute traffic.
    """

    slots: np.ndarray             #: global slot indices (int64)
    kind: str = "probe"           #: access category


@dataclass(frozen=True)
class SlotWrite:
    """Sanitizer-facing record of one batched table-slot write.

    Emitted by the phases (gated on ``bus.wants(SlotWrite)``) at every
    point where slot state is committed — ``atomicCAS`` tag claims and
    ``atomicAdd`` vote accumulations. ``atomic=False`` declares the
    commit was *not* performed with a read-modify-write primitive, which
    is exactly what the racecheck sanitizer flags when the batch carries
    same-slot conflicts (lost updates).
    """

    phase: str                    #: "construct" | "walk"
    kind: str                     #: "claim" | "vote"
    slots: np.ndarray             #: global slot indices written
    warps: np.ndarray             #: issuing warp per write
    lanes: np.ndarray | None = None  #: issuing lane per write (if known)
    atomic: bool = True           #: committed via an atomic primitive


@dataclass(frozen=True)
class SlotRead:
    """Sanitizer-facing record of one batched table-slot value read.

    Emitted where the walk resolves votes (``kind="vote_read"``); the
    initcheck sanitizer flags reads of slots whose value region was never
    written — the device-memory analogue of reading uninitialized memory.
    """

    phase: str                    #: "construct" | "walk"
    kind: str                     #: "vote_read"
    slots: np.ndarray             #: global slot indices read
    warps: np.ndarray             #: issuing warp per read


@dataclass(frozen=True)
class BarrierSync:
    """Sanitizer-facing record of one warp/sub-group synchronization.

    ``mask_lanes`` is the lane count each warp's barrier mask names (what
    the code passed to ``__syncwarp(mask)`` / sized the sub-group barrier
    for); ``active_lanes`` is the lane count actually converged at the
    barrier. The synccheck sanitizer flags any divergence — a stale
    ``__activemask()`` or a barrier inside divergent control flow, the
    classic warp-synchronous deadlock.
    """

    phase: str                    #: "construct" | "walk"
    warps: np.ndarray             #: warps executing the barrier
    mask_lanes: np.ndarray        #: lanes named by each warp's sync mask
    active_lanes: np.ndarray      #: lanes actually active at the barrier


#: The array-carrying events: evidence numbered by one launch's slots and
#: warps. A lockstep program that fuses launches carries counts only, so
#: a kernel with a subscriber that wants one of these never fuses
#: (:meth:`LocalAssemblyKernel._fuses
#: <repro.kernels.engine.simt.LocalAssemblyKernel._fuses>`).
EVIDENCE_EVENTS = (SlotAccess, SlotWrite, SlotRead, BarrierSync)


#: Entry kinds of a launch's *attribution log*. A phase whose ``log``
#: attribute is a list (a driver that fuses launches into one lockstep
#: program installs one per program; ``None`` = off) appends one entry
#: per count-bearing event — built by the ``*_entry`` helpers below from
#: references to the arrays the loop already holds, so logging costs one
#: ``list.append`` and nothing is counted inside the loop. An entry is
#: ``(kind, warps, m0, m1, m2, idx)``: ``warps`` the issuing warp of
#: every counted lane (sorted), ``m0..m2`` boolean masks and ``idx`` an
#: index array aligned with it (``None`` where a kind has none).
#: :mod:`repro.kernels.engine.attribution` reduces a finished program's
#: log to per-segment tallies in one vectorized pass — lanes, distinct
#: warps, then one tally per column — and :func:`counted_events` turns
#: a segment's tallies back into the events its solo run emits. The log
#: holds O(sum of pending lanes) array references for one program.
LOG_WAVE, LOG_INSERT_ITER, LOG_LOOKUP_ITER, LOG_WALK_STEP = range(4)


def wave_entry(lane_warps: np.ndarray) -> tuple:
    """Log entry of one construction wave (a :class:`WaveExecuted`)."""
    return (LOG_WAVE, lane_warps, None, None, None, None)


def insert_entry(pending_warps: np.ndarray, mismatched: np.ndarray,
                 matched: np.ndarray, retired: np.ndarray,
                 cas_winners: np.ndarray | None) -> tuple:
    """Log entry of one insert-probe iteration.

    ``mismatched`` / ``matched`` split the occupied slots by key compare
    outcome, ``retired`` marks lanes that voted this iteration (matched,
    claimed or merged) and ``cas_winners`` indexes the fresh CAS winners
    (``None``: no slot was observed empty).
    """
    return (LOG_INSERT_ITER, pending_warps, mismatched, matched, retired,
            cas_winners)


def lookup_entry(pending_warps: np.ndarray, occupied: np.ndarray) -> tuple:
    """Log entry of one walk lookup-probe iteration."""
    return (LOG_LOOKUP_ITER, pending_warps, occupied, None, None, None)


def walk_entry(walker_warps: np.ndarray, found: np.ndarray,
               committed: np.ndarray | None) -> tuple:
    """Log entry of one walk step: ``found`` masks the walkers whose key
    resolved (vote rows read), ``committed`` indexes those that accepted
    a base (``None``: nobody advanced)."""
    return (LOG_WALK_STEP, walker_warps, found, None, None, committed)


def counted_events(kinds: list, lanes: list, warps: list, m0: list,
                   m1: list, m2: list, idx: list):
    """Yield the solo events behind one segment's tallies of its entries.

    One event per entry, made as it is consumed: ``lanes`` / ``warps``
    count the segment's entries / distinct values in the entry's
    ``warps``; ``m0..m2`` and ``idx`` count its share of the like-named
    columns (the ``*_entry`` helpers say what each kind stores there).
    """
    for kind, n, w, c0, c1, c2, ci in zip(kinds, lanes, warps, m0, m1, m2,
                                          idx):
        if kind == LOG_INSERT_ITER:
            # every pending lane either compared a key or issued a CAS;
            # retired = matched + claimed (the CAS winners) + merged
            yield ProbeIteration(
                phase="construct", lanes=n, warps=w, key_compares=c0 + c1,
                cas_attempts=n - c0 - c1, votes_matched=c1,
                votes_claimed=ci, votes_merged=c2 - c1 - ci)
        elif kind == LOG_WAVE:
            yield WaveExecuted(lanes=n, warps=w)
        elif kind == LOG_LOOKUP_ITER:
            # one lookup lane per walking warp
            yield ProbeIteration(phase="walk", lanes=n, warps=n,
                                 key_compares=c0)
        else:   # LOG_WALK_STEP
            yield WalkStep(walkers=n, vote_reads=c0, bases_committed=ci)


@dataclass(frozen=True)
class LaunchDone:
    """A launch finished; carries its serial-chain statistics."""

    waves: int                    #: construction waves executed
    construct_iterations: int     #: lockstep insert-probe iterations
    walk_steps: int               #: lockstep walk steps
    walk_iterations: int          #: lockstep lookup-probe iterations


@dataclass(frozen=True)
class ContigDropped:
    """A contig was dropped after its table overflowed.

    The paper's ``*hashtable full*`` semantics, emitted under
    :attr:`repro.resilience.OverflowPolicy.DROP_CONTIG` (or when
    grow-retry exhausts its attempt budget).
    """

    contig_id: int                #: index in the run's contig list
    k: int
    end: str                      #: "right" | "left"
    capacity: int                 #: slots of the table that overflowed


@dataclass(frozen=True)
class ContigRetried:
    """A contig's launch is being re-run with a grown hash table.

    Emitted once per failed contig per
    :attr:`repro.resilience.OverflowPolicy.GROW_RETRY` attempt.
    """

    contig_id: int                #: index in the run's contig list
    k: int
    attempt: int                  #: 1-based retry attempt
    capacity: int                 #: grown table capacity for the retry


@dataclass(frozen=True)
class MemoryTrafficResolved:
    """Published by :class:`TrafficSubscriber` after each launch."""

    hbm_bytes: float
    l1_bytes: float
    l2_bytes: float
    access_latency: float         #: cache-weighted dependent-access cycles


# ----------------------------------------------------------------------
# bus
# ----------------------------------------------------------------------


class EventBus:
    """Synchronous in-process dispatch of engine events to subscribers.

    Subscribers may declare the event types they handle in a
    ``handled_events`` class attribute (a tuple of event classes);
    omitting it means "wants everything". :meth:`wants` lets hot loops skip constructing events no
    subscriber would consume.
    """

    def __init__(self) -> None:
        self._subscribers: list = []
        self._wants_cache: dict = {}

    def subscribe(self, subscriber):
        """Attach a subscriber (any object with ``handle(event, bus)``)."""
        self._subscribers.append(subscriber)
        self._wants_cache.clear()
        return subscriber

    def wants(self, event_type: type) -> bool:
        """Whether any subscriber consumes events of ``event_type``."""
        cached = self._wants_cache.get(event_type)
        if cached is not None:
            return cached
        wanted = any(
            getattr(sub, "handled_events", None) is None
            or event_type in sub.handled_events
            for sub in self._subscribers
        )
        self._wants_cache[event_type] = wanted
        return wanted

    def emit(self, event) -> None:
        subscribers = self._subscribers
        if not subscribers:
            return
        for sub in subscribers:
            sub.handle(event, self)


# ----------------------------------------------------------------------
# subscribers
# ----------------------------------------------------------------------


class ProfileSubscriber:
    """Turns engine events into :class:`KernelProfile` counter updates.

    Holds the port-specific cost constants (protocol, warp size, walk
    scheduling mode) so the *same* event stream yields different profiles
    for different ports — exactly how the paper's three ports differ.
    """

    handled_events = (LaunchStarted, WaveExecuted, ProbeIteration, WalkStep,
                      LaunchDone, MemoryTrafficResolved, ContigDropped,
                      ContigRetried)

    def __init__(self, profile, *, warp_size: int, protocol,
                 lane_parallel_walks: bool, dependent_cpi: float) -> None:
        self.profile = profile
        self.warp_size = warp_size
        self.protocol = protocol
        self.lane_parallel_walks = lane_parallel_walks
        self.dependent_cpi = dependent_cpi
        self._hash_ops = 0
        self._launch_stats: LaunchDone | None = None

    def handle(self, event, bus) -> None:
        p = self.profile
        if isinstance(event, LaunchStarted):
            self._hash_ops = event.hash_ops
            self._launch_stats = None
        elif isinstance(event, WaveExecuted):
            h = self._hash_ops
            # every lane hashes its k-mer; the warp runs the hash code once
            p.intops += event.lanes * h
            p.construct_intops += event.lanes * h
            p.warp_instructions += event.warps * h
            p.lane_instructions += event.lanes * h
            p.inserts += event.lanes
        elif isinstance(event, ProbeIteration):
            if event.phase == "construct":
                ops = ITERATION_BASE_INSTRS + self.protocol.iteration_intops
                p.intops += event.lanes * ops
                p.construct_intops += event.lanes * ops
                p.warp_instructions += event.warps * ops
                p.lane_instructions += event.lanes * ops
                p.sync_ops += event.warps * self.protocol.iteration_syncs
                p.insert_probe_iterations += event.lanes
                p.atomics += (event.votes_matched + event.cas_attempts
                              + event.votes_merged)
            else:
                ops = ITERATION_BASE_INSTRS
                p.intops += event.lanes * ops
                p.walk_intops += event.lanes * ops
                p.warp_instructions += event.lanes * ops
                p.lane_instructions += event.lanes * ops // self.warp_size
                p.lookup_probe_iterations += event.lanes
            p.serial_depth += 1
        elif isinstance(event, WalkStep):
            walk_ops = self._hash_ops + WALK_STEP_INTOPS
            p.intops += event.walkers * walk_ops
            p.walk_intops += event.walkers * walk_ops
            if self.lane_parallel_walks:
                # independent thread scheduling: one walk per lane, so
                # ceil(walks / warp_size) warps execute each instruction
                warps_walking = -(-event.walkers // self.warp_size)
                p.warp_instructions += warps_walking * walk_ops
                p.lane_instructions += event.walkers * walk_ops
            else:
                # one lane walks; the warp still issues every instruction
                p.warp_instructions += event.walkers * walk_ops
                p.lane_instructions += event.walkers * walk_ops // self.warp_size
            p.lookups += event.walkers
            p.sync_ops += event.walkers  # terminal-state shuffle broadcast
            p.walk_steps += event.bases_committed
            p.extension_bases += event.bases_committed
        elif isinstance(event, LaunchDone):
            self._launch_stats = event
            p.kernels_launched += 1
        elif isinstance(event, ContigDropped):
            p.contigs_dropped += 1
        elif isinstance(event, ContigRetried):
            p.overflow_retries += 1
        elif isinstance(event, MemoryTrafficResolved):
            p.hbm_bytes += event.hbm_bytes
            p.l1_hit_bytes += event.l1_bytes
            p.l2_hit_bytes += event.l2_bytes
            stats = self._launch_stats
            if stats is None:
                return
            # serial chain of this launch: dependent instruction cycles
            # plus one cache-weighted access latency per probe iteration
            lat = event.access_latency
            cpi = self.dependent_cpi
            p.construct_chain_cycles += (
                stats.waves * self._hash_ops * cpi
                + stats.construct_iterations * lat
            )
            p.walk_chain_cycles += (
                stats.walk_steps * (self._hash_ops + WALK_STEP_INTOPS) * cpi
                + stats.walk_iterations * lat
            )


class TrafficSubscriber:
    """Accumulates per-launch access counts and applies the cache model.

    On :class:`LaunchDone` it evaluates the
    :class:`~repro.simt.memory.AnalyticCacheModel` over the launch's
    access categories and publishes :class:`MemoryTrafficResolved`.
    """

    handled_events = (LaunchStarted, WaveExecuted, ProbeIteration, WalkStep,
                      LaunchDone)

    _COUNT_KEYS = ("table_probe", "table_vote", "table_vote_read",
                   "key_compare", "read_stream")

    def __init__(self, device: DeviceSpec, *, l2_churn: float = 4.0,
                 parallel_scale: float = 1.0) -> None:
        self.device = device
        self.l2_churn = l2_churn
        self.parallel_scale = parallel_scale
        self.last_access_latency = 0.0
        self._context: LaunchStarted | None = None
        self._counts = dict.fromkeys(self._COUNT_KEYS, 0)

    @property
    def counts(self) -> dict:
        """The current launch's access-count ledger (for tests/tools)."""
        return dict(self._counts)

    def handle(self, event, bus) -> None:
        if isinstance(event, LaunchStarted):
            self._context = event
            self._counts = dict.fromkeys(self._COUNT_KEYS, 0)
        elif isinstance(event, WaveExecuted):
            self._counts["read_stream"] += event.lanes
        elif isinstance(event, ProbeIteration):
            self._counts["table_probe"] += event.lanes
            self._counts["key_compare"] += event.key_compares
            self._counts["table_vote"] += (event.votes_matched
                                           + event.votes_claimed
                                           + event.votes_merged)
        elif isinstance(event, WalkStep):
            self._counts["table_vote_read"] += event.vote_reads
        elif isinstance(event, LaunchDone):
            ctx = self._context
            if ctx is None:
                return
            mem = self._counts
            cats = [
                # probes are atomicCAS attempts and walk reads of CAS-owned
                # tags; votes are atomicAdds — all execute at the L2
                AccessCategory("table_probe", mem["table_probe"],
                               SLOT_TAG_BYTES, ctx.mean_table_bytes,
                               "random", atomic=True),
                AccessCategory("table_vote", mem["table_vote"],
                               SLOT_VALUE_BYTES, ctx.mean_table_bytes,
                               "random", writes=True, atomic=True),
                AccessCategory("table_vote_read", mem["table_vote_read"],
                               SLOT_VALUE_BYTES, ctx.mean_table_bytes,
                               "random", atomic=True),
                AccessCategory("key_compare", mem["key_compare"],
                               float(ctx.k), ctx.mean_read_bytes, "random"),
                AccessCategory("read_stream", mem["read_stream"], 2.0,
                               ctx.mean_read_bytes, "stream"),
            ]
            # At a reduced dataset scale the batch has proportionally fewer
            # warps; model the L2 pressure of the full-size batch so scaled
            # runs predict full-scale behaviour.
            effective_warps = max(1, round(ctx.n_warps / self.parallel_scale))
            model = AnalyticCacheModel(self.device, effective_warps,
                                       l2_churn=self.l2_churn)
            traffic = model.traffic(
                cats, cold_footprint_bytes=ctx.cold_footprint_bytes)
            # latency of one dependent table access, for chain-cycle terms
            h1, h2 = model.hit_rates(cats[0])
            dev = self.device
            latency = (
                h1 * dev.l1.latency_cycles
                + (1 - h1) * (h2 * dev.l2.latency_cycles
                              + (1 - h2) * dev.hbm_latency_cycles)
            )
            self.last_access_latency = latency
            bus.emit(MemoryTrafficResolved(
                hbm_bytes=traffic.hbm_bytes, l1_bytes=traffic.l1_bytes,
                l2_bytes=traffic.l2_bytes, access_latency=latency,
            ))


class TraceSubscriber:
    """Records every table-slot access's byte address, one array/launch."""

    handled_events = (LaunchStarted, SlotAccess, LaunchDone)

    def __init__(self) -> None:
        self.traces: list[np.ndarray] = []
        self._chunks: list[np.ndarray] = []

    def handle(self, event, bus) -> None:
        if isinstance(event, LaunchStarted):
            self._chunks = []
        elif isinstance(event, SlotAccess):
            self._chunks.append(event.slots * SLOT_BYTES)
        elif isinstance(event, LaunchDone):
            if self._chunks:
                self.traces.append(np.concatenate(self._chunks))


@dataclass(frozen=True)
class TraceReplayStats:
    """Exact-replay measurement of one launch's table-slot traffic."""

    k: int
    n_warps: int
    mean_table_bytes: float       #: per-warp table footprint (L2 pressure)
    accesses: int                 #: slot accesses replayed
    l1: int                       #: accesses served by the L1 (0: atomics)
    l2: int                       #: accesses served by the L2
    hbm: int                      #: accesses that went to memory
    hbm_bytes: int                #: line-granular bytes over the bus
    cold_lines: int               #: distinct L2 lines touched (compulsory)

    @property
    def l2_hit_rate(self) -> float:
        """L2 hit probability given an L1 miss (compulsory misses included)."""
        seen = self.accesses - self.l1
        return self.l2 / seen if seen else 0.0

    @property
    def warm_l2_hit_rate(self) -> float:
        """L2 hit probability with compulsory misses excluded.

        The analytic capacity model prices cold traffic separately (the
        cold-footprint floor), so this — not :attr:`l2_hit_rate` — is the
        quantity ``min(1, C / W)`` predicts.
        """
        seen = self.accesses - self.l1 - self.cold_lines
        return self.l2 / seen if seen > 0 else 1.0


class TraceReplaySubscriber:
    """Replays every table-slot access through the exact cache hierarchy.

    Attached when a kernel runs with ``memory_model="trace"``. Slot
    traces buffer per launch and replay in one batched
    :meth:`~repro.simt.memory.CacheHierarchy.replay` call on
    :class:`LaunchDone` — atomically, because the kernel's probes and
    votes are atomicCAS/atomicAdd and execute at the L2 on every GPU
    modeled here. The hierarchy cold-starts per launch: each launch
    allocates fresh tables, so byte addresses from different launches
    alias unrelated memory.
    """

    handled_events = (LaunchStarted, SlotAccess, LaunchDone)

    def __init__(self, device: DeviceSpec, ways: int = 8) -> None:
        self.device = device
        self.hierarchy = CacheHierarchy(device, ways=ways)
        self.launches: list[TraceReplayStats] = []
        self._chunks: list[np.ndarray] = []
        self._context: LaunchStarted | None = None

    def handle(self, event, bus) -> None:
        if isinstance(event, LaunchStarted):
            self._chunks = []
            self._context = event
        elif isinstance(event, SlotAccess):
            self._chunks.append(event.slots * SLOT_BYTES)
        elif isinstance(event, LaunchDone):
            ctx = self._context
            if ctx is None:
                return
            trace = (np.concatenate(self._chunks) if self._chunks
                     else np.zeros(0, dtype=np.int64))
            self.hierarchy.reset()
            counts = self.hierarchy.replay(trace, atomic=True)
            line = self.device.l2.line_bytes
            self.launches.append(TraceReplayStats(
                k=ctx.k, n_warps=ctx.n_warps,
                mean_table_bytes=ctx.mean_table_bytes,
                accesses=int(trace.size), l1=counts["l1"], l2=counts["l2"],
                hbm=counts["hbm"], hbm_bytes=self.hierarchy.hbm_bytes,
                cold_lines=int(np.unique(trace // line).size),
            ))
            self._chunks = []


def replay_l2_hit_rate(launches: list[TraceReplayStats],
                       warm: bool = True) -> float:
    """Access-weighted exact L2 hit rate over replayed launches.

    ``warm`` (default) excludes each launch's compulsory misses, which is
    what the analytic capacity model predicts; ``warm=False`` gives the
    raw rate including cold traffic.
    """
    if warm:
        seen = sum(s.accesses - s.l1 - s.cold_lines for s in launches)
    else:
        seen = sum(s.accesses - s.l1 for s in launches)
    return sum(s.l2 for s in launches) / seen if seen > 0 else 1.0


def replay_suggested_l2_churn(device: DeviceSpec,
                              launches: list[TraceReplayStats]) -> float:
    """The ``l2_churn`` making the analytic model match exact replays.

    Access-weighted mean of the per-launch inversions
    (:func:`~repro.simt.memory.implied_l2_churn`) against the *warm* hit
    rates (the model floors compulsory traffic separately); launches
    whose replay saw no L2 hits are ignored.
    """
    total = 0.0
    weight = 0
    for s in launches:
        if s.accesses == 0 or s.warm_l2_hit_rate <= 0.0:
            continue
        churn = implied_l2_churn(device, s.n_warps,
                                 s.mean_table_bytes, s.warm_l2_hit_rate)
        total += churn * s.accesses
        weight += s.accesses
    return total / weight if weight else 1.0
