"""The instrumentation-hook layer: typed engine events + subscribers.

Events are the engine's *diagnostic* channel. What a launch counts goes
down the count channel (:mod:`repro.kernels.engine.tally`): the phases
tally each launch attempt and one fold charges the
:class:`~repro.simt.counters.KernelProfile`, with no event involved. An
:class:`EventBus` carries what a subscriber asks for:

* *evidence* (:data:`EVIDENCE_EVENTS`) — the table slots a probe
  touched, slot writes and reads, barriers — emitted by the phases
  where it happens, gated on :meth:`EventBus.wants`, so a run nobody
  observes builds none;
* *count events* (:class:`WaveExecuted`, :class:`ProbeIteration`,
  :class:`WalkStep`, :class:`LaunchDone`,
  :class:`MemoryTrafficResolved`) — rendered from a launch's tally at
  launch end, and only for a subscriber that asks for them;
* the launch bracket and the overflow outcome (:class:`LaunchStarted`,
  :class:`ContigDropped`, :class:`ContigRetried`).

The subscribers here: :class:`CountRecorder` (count events, in order),
:class:`TraceSubscriber` (exact table-slot address traces for the
trace-driven cache-simulator validation) and
:class:`TraceReplaySubscriber` (streams every launch's slot trace
through the exact batched cache hierarchy,
:meth:`~repro.simt.memory.CacheHierarchy.replay`, during a normal kernel
run — ``memory_model="trace"`` — yielding measured per-level counts to
validate, and recalibrate ``l2_churn`` in, the analytic model).

Any object with a ``handle(event, bus)`` method can subscribe, so new
observability (histograms, per-launch logs, live dashboards) attaches
without touching kernel code. Subscribers may declare the event types
they consume in a ``handled_events`` class attribute; one that asks for
no evidence leaves the kernel free to fuse launches
(:meth:`LocalAssemblyKernel._fuses
<repro.kernels.engine.simt.LocalAssemblyKernel._fuses>`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.vectortable import SLOT_BYTES
from repro.simt.device import DeviceSpec
from repro.simt.memory import CacheHierarchy, implied_l2_churn

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
    """Raw table-slot indices touched by one probe iteration."""

    slots: np.ndarray             #: global slot indices (int64)


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
    """One launch's analytic cache traffic, as charged to the profile."""

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
    subscriber would consume. :meth:`emit` hands every built event to
    every subscriber, so a declaring subscriber ignores the types it did
    not declare: what it keeps must not depend on who else listens.
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


class CountRecorder:
    """Keeps every count event of a run, in order: one launch's
    ``LaunchStarted``, its waves / probe iterations / walk steps,
    ``MemoryTrafficResolved`` and ``LaunchDone``, then the drops and
    retries its settling emitted. It asks for nothing else, so a kernel
    it observes still fuses; the events are rendered from each launch's
    tally (:func:`~repro.kernels.engine.tally.render`)."""

    handled_events = (LaunchStarted, WaveExecuted, ProbeIteration, WalkStep,
                      LaunchDone, MemoryTrafficResolved, ContigDropped,
                      ContigRetried)

    def __init__(self) -> None:
        self.events: list = []

    def handle(self, event, bus) -> None:
        if isinstance(event, self.handled_events):
            self.events.append(event)


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
