"""The construction phase: insertion waves + the atomicCAS insert protocol.

Lanes of each warp take consecutive k-mers of the contig's reads, in
*waves* of ``warp_size`` insertions; within a wave, lanes probe their
tables concurrently until every lane has inserted. Hash collisions
linear-probe; thread collisions (two lanes, same slot) are resolved by an
``atomicCAS`` winner, with losers retrying per the protocol
(:class:`~repro.kernels.engine.backend.ProtocolCosts`) — within the same
iteration for the CUDA ``__match_any_sync`` port, on the next iteration
for HIP/SYCL.

Counts leave the phase as tally rows (:mod:`repro.kernels.engine.tally`)
in :attr:`ConstructResult.rows`, or logged as arrays when a driver fuses
launches. Evidence goes to the event bus only where ``bus.wants`` it:
the :class:`~repro.kernels.engine.events.SlotAccess` of every probe and,
for a sanitizer, :class:`~repro.kernels.engine.events.SlotWrite` /
:class:`~repro.kernels.engine.events.BarrierSync` records at every slot
commit and synchronization point — small overridable steps, where the
sanitizer's test mutants seed their violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels.engine.events import (
    BarrierSync,
    EventBus,
    SlotAccess,
    SlotWrite,
)
from repro.kernels.engine.prepare import Batch, run_length_sorted
from repro.kernels.engine.tally import (
    insert_entry,
    insert_row,
    wave_entry,
    wave_row,
)
from repro.kernels.vectortable import (
    FAR_PROBES,
    VOTE_STRETCH,
    WarpHashTables,
)


@dataclass(frozen=True)
class ConstructResult:
    """Serial-chain statistics of one launch's construction phase."""

    waves: int          #: lockstep waves executed
    iterations: int     #: lockstep insert-probe iterations
    #: Warps whose table overflowed, in the order they did.
    overflowed: tuple[int, ...] = ()
    #: The launch's tally rows, in order (empty when the phase logged).
    rows: list = field(default_factory=list)


class ConstructPhase:
    """Runs all construction waves of a launch, tallying them.

    A full table never raises here: every pending lane of the overflowed
    warp retires, the warp sits out the remaining waves, and
    :attr:`ConstructResult.overflowed` reports it — what becomes of the
    contig (the paper's ``*hashtable full*`` drop, a retry, an error) is
    the launch driver's call (:meth:`LocalAssemblyKernel._settle
    <repro.kernels.engine.simt.LocalAssemblyKernel._settle>`).
    """

    def __init__(self, protocol, warp_size: int) -> None:
        self.protocol = protocol
        self.warp_size = warp_size
        #: The launch's attribution log (``None`` = off): the arrays behind
        #: every wave and probe iteration, appended by reference *instead
        #: of* tally rows (layout: :mod:`repro.kernels.engine.tally`), so a
        #: fused program can be cut per job. The coalescing driver sets it.
        self.log: list | None = None
        # the running launch's slot per insertion (-1: cast no vote)
        self._final_slot: np.ndarray | None = None
        self._unvoted = 0       # its insertions that have cast none
        #: Record each key's claimer (``WarpHashTables.first``) for a tape.
        self.record_claims = False
        #: Draw the read links the walk follows (a follower's does not).
        self.links = True
        #: Free the batch's probe-loop inputs (``ins_warp``, ``ins_home``,
        #: ``ins_fp``) before the vote flush: ``run_ports`` and a wave set
        #: it where nothing constructs from the batch again.
        self.frees_keys = False

    # ------------------------------------------------------------------
    # slot-state commit hooks (overridden by the sanitizer's test mutants)

    def _claim(self, tables: WarpHashTables, slots: np.ndarray,
               ins: np.ndarray, warps: np.ndarray,
               lanes: np.ndarray | None, bus: EventBus,
               emit_writes: bool) -> np.ndarray:
        """atomicCAS claim by insertions ``ins``; one winner per distinct
        slot. ``warps`` and ``lanes`` are ``None`` unless ``emit_writes``."""
        if emit_writes:
            bus.emit(SlotWrite(phase="construct", kind="claim", slots=slots,
                               warps=warps, lanes=lanes, atomic=True))
        return tables.claim(slots, ins)

    def _vote(self, tables: WarpHashTables, slots: np.ndarray,
              ins: np.ndarray, warps: np.ndarray,
              lanes: np.ndarray | None, bus: EventBus,
              emit_writes: bool) -> None:
        """atomicAdd vote accumulation on the slot value region.

        Construction never reads the votes back and integer atomicAdd
        commutes, so a retiring lane only records the slot its insertion
        ``ins`` landed on; :meth:`run` flushes the launch's votes at once
        (an insertion that never gets here casts none). Slot-write events
        still fire per iteration, in order.
        """
        if emit_writes:
            bus.emit(SlotWrite(phase="construct", kind="vote", slots=slots,
                               warps=warps, lanes=lanes, atomic=True))
        self._final_slot[ins] = slots
        self._unvoted -= ins.size

    def _barrier(self, warps: np.ndarray, active_counts: np.ndarray,
                 bus: EventBus) -> None:
        """The protocol's per-iteration sync; mask = the active lane set."""
        bus.emit(BarrierSync(phase="construct", warps=warps,
                             mask_lanes=active_counts,
                             active_lanes=active_counts))

    # ------------------------------------------------------------------

    def run(self, batch: Batch, tables: WarpHashTables,
            bus: EventBus) -> ConstructResult:
        W = self.warp_size
        n_warps = batch.n_warps
        # in ``ins_warp``'s dtype: a wider needle casts the whole haystack
        ins_off = np.searchsorted(batch.ins_warp, np.arange(
            n_warps + 1, dtype=batch.ins_warp.dtype))
        # The lane grid: a row per warp with insertions left, holding its
        # next wave's first insertion and its end. Rows go as their warps
        # run out or overflow, so the next wave's lanes are the grid's
        # cells below their row's end, warp-major and ascending.
        warp = np.flatnonzero(np.diff(ins_off))
        start, end = ins_off[warp], ins_off[warp + 1]
        lane = np.arange(W)
        chain = waves_run = 0
        overflowed: list[int] = []
        want_lanes = bus.wants(SlotWrite)
        log = self.log
        rows: list = []
        tables.keys = batch.ins_fp      # what the claimers index
        final_slot = self._final_slot = np.full(batch.ins_warp.size, -1,
                                                dtype=tables.row.dtype)
        self._unvoted = final_slot.size
        tables.inserted = batch.ins_warp.size
        while warp.size:
            grid = start[:, None] + lane
            inside = grid < end[:, None]
            idx = grid[inside]
            if log is not None:
                log.append(wave_entry(batch.ins_warp[idx]))
            else:
                rows.append(wave_row(idx.size, warp.size))
            waves_run += 1
            # lane id within the warp's wave, for sanitizer provenance
            lanes = (np.broadcast_to(lane, grid.shape)[inside]
                     if want_lanes else None)
            iters, wave_overflowed = self._insert_wave(batch, tables, idx,
                                                       bus, rows, lanes)
            chain += iters
            start += W
            live = start < end
            if wave_overflowed:
                overflowed.extend(wave_overflowed)
                live &= ~np.isin(warp, wave_overflowed)
            if not live.all():
                warp, start, end = warp[live], start[live], end[live]
        self._final_slot = None
        tables.probes = probe_rounds(tables, batch.ins_warp, batch.ins_home)
        if self.frees_keys:
            batch.ins_warp, batch.ins_home, batch.ins_fp = (
                batch.ins_warp[:0].copy(), batch.ins_home[:0].copy(),
                batch.ins_fp[:0].copy())
        # ``ins_*`` align with ``final_slot``; lanes that cast no vote (an
        # overflow took their warp first) are left out, cutting their read
        slots, exts, his, ends = (final_slot, batch.ins_ext, batch.ins_hi,
                                  batch.ins_end)
        if self._unvoted:
            voted = final_slot >= 0
            cut = np.zeros(voted.size, dtype=bool)
            cut[ends] = True
            cut[:-1] |= ~voted[1:]
            slots, exts, his, ends = (slots[voted], exts[voted], his[voted],
                                      np.flatnonzero(cut[voted]))
        tables.vote(slots, exts, his)   # frees ``ins_fp`` once it has the tags
        if not self.record_claims:      # the flush kept each key's claimer
            tables.first = np.empty(0, np.int32)
        if self.links:
            tables.link_reads(slots, exts, ends)
        return ConstructResult(waves=waves_run, iterations=chain,
                               overflowed=tuple(overflowed), rows=rows)

    def _insert_wave(self, batch: Batch, tables: WarpHashTables,
                     idx: np.ndarray, bus: EventBus, rows: list,
                     lanes: np.ndarray | None = None) -> tuple[int, list[int]]:
        """Probe until every lane of the wave has inserted, a row per
        iteration onto ``rows`` (or an entry onto the log).

        The pending lane set is kept *persistently compacted*: ``p`` (and
        its aligned probe counters) shrinks as lanes retire, instead of
        being re-derived from a full-wave boolean mask with ``nonzero``
        (and re-``unique``-d) every probe iteration. Late iterations —
        where only a few colliding lanes remain — therefore cost work
        proportional to the stragglers, not the wave. Its rows and events
        may not move: ``tests/kernels/walk_pinned.json`` pins them.

        Returns ``(iterations, overflowed_warps)``.
        """
        proto = self.protocol
        warps = batch.ins_warp[idx]
        homes = batch.ins_home[idx]
        fps = batch.ins_fp[idx]
        n = idx.size
        p = np.arange(n, dtype=np.int64)
        probe_p = np.zeros(n, dtype=np.int64)
        # Pending-set state gathered once per wave and compacted alongside
        # ``p`` each iteration, so the loop never re-gathers warp ids,
        # homes, fingerprints, or table geometry from the full wave.
        wp = warps
        hp = homes.astype(np.int64)
        fpp = fps
        caps_p = tables.capacities[warps]
        offs_p = tables.offsets[warps]
        iterations = 0
        overflowed: list[int] = []
        emit_slots = bus.wants(SlotAccess)
        emit_writes = bus.wants(SlotWrite)
        emit_sync = bus.wants(BarrierSync)
        log = self.log
        want_sync = emit_sync and proto.iteration_syncs
        # Probe offsets grow by at most one per iteration, so no lane can
        # wrap before iteration min(caps): skip the overflow scan until
        # a wrap is actually reachable.
        min_cap = int(caps_p.min()) if caps_p.size else 0

        def writers(at: np.ndarray) -> tuple:   # a SlotWrite's provenance
            if not emit_writes:
                return None, None
            return wp[at], lanes[p[at]] if lanes is not None else None

        while p.size:
            if iterations >= min_cap and (probe_p >= caps_p).any():
                over = probe_p >= caps_p
                bad = run_length_sorted(wp[over])[0]
                overflowed.extend(np.asarray(bad).tolist())
                keep = ~np.isin(wp, bad)
                p, probe_p = p[keep], probe_p[keep]
                wp, hp, fpp = wp[keep], hp[keep], fpp[keep]
                caps_p, offs_p = caps_p[keep], offs_p[keep]
                if not p.size:
                    break
                min_cap = int(caps_p.min())
            iterations += 1
            if want_sync:
                uniq_warps, uniq_counts = run_length_sorted(wp)

            # Probe offsets were bounds-checked against ``caps_p`` above,
            # so the linear-probe address arithmetic of ``slot_of`` can run
            # directly on the compacted geometry arrays.
            slots = offs_p + (hp + probe_p) % caps_p
            if emit_slots:
                bus.emit(SlotAccess(slots=slots))
            occupied, slot_fp = tables.inspect(slots)
            key_compares = int(np.count_nonzero(occupied))

            votes_matched = 0
            win = None
            match = occupied & (slot_fp == fpp)
            done = match
            midx = np.nonzero(match)[0]
            if midx.size:
                self._vote(tables, slots[midx], idx[p[midx]],
                           *writers(midx), bus, emit_writes)
                votes_matched = midx.size

            cas_attempts = 0
            votes_claimed = 0
            votes_merged = 0
            if key_compares < p.size:  # some slot observed empty
                e = np.nonzero(~occupied)[0]
                ins = idx[p[e]]
                winners_local = self._claim(tables, slots[e], ins,
                                            *writers(e), bus, emit_writes)
                cas_attempts = e.size  # every empty observer issues a CAS
                win = e[winners_local]
                self._vote(tables, slots[win], ins[winners_local],
                           *writers(win), bus, emit_writes)
                votes_claimed = win.size
                done = done.copy()
                done[win] = True
                losers = e[~winners_local]
                if proto.merges_in_iteration and losers.size:
                    # __match_any_sync: losers whose key equals the fresh
                    # winner's key merge their vote in this same iteration.
                    same = tables.inspect(slots[losers])[1] == fpp[losers]
                    m = losers[same]
                    if m.size:
                        self._vote(tables, slots[m], idx[p[m]],
                                   *writers(m), bus, emit_writes)
                        votes_merged = m.size
                        done[m] = True
                # HIP/SYCL losers retry next iteration at the same probe.

            if want_sync:
                self._barrier(uniq_warps, uniq_counts, bus)
            retired = votes_matched + votes_claimed + votes_merged
            # Occupied-but-mismatched lanes advance their probe; a single
            # elementwise add of the boolean beats masked assignment.
            occupied ^= match
            probe_p += occupied
            if log is not None:
                log.append(insert_entry(wp, occupied, match, done, win))
            else:
                # ``wp`` stays warp-sorted: its runs are the active warps
                rows.append(insert_row(
                    p.size, 1 + int(np.count_nonzero(wp[1:] != wp[:-1])),
                    key_compares, cas_attempts, votes_matched,
                    votes_claimed, votes_merged))
            if retired:
                # One ``nonzero`` shared by all seven gathers (boolean
                # masks would re-derive the index list per array).
                live = np.nonzero(~done)[0]
                p, probe_p = p[live], probe_p[live]
                wp, hp, fpp = wp[live], hp[live], fpp[live]
                caps_p, offs_p = caps_p[live], offs_p[live]
        return iterations, overflowed


def probe_rounds(tables: WarpHashTables, ins_warp: np.ndarray,
                 ins_home: np.ndarray) -> np.ndarray:
    """Each claimed key's lookup rounds, in slot order (the flush's row
    order), at most :data:`~repro.kernels.vectortable.FAR_PROBES`.

    Linear probing never deletes, so the key a claiming table holds at
    slot ``s`` of warp ``w``, claimed by insertion ``c``, is found in
    ``(s - offsets[w] - ins_home[c]) mod capacities[w] + 1`` rounds: its
    claim's probe offset, plus one. Counted a stretch of slots
    (:data:`~repro.kernels.vectortable.VOTE_STRETCH`) at a time.
    """
    parts = []
    for lo in range(0, tables.total_slots, VOTE_STRETCH):
        claimer = tables.claimer[lo:lo + VOTE_STRETCH]
        at = np.flatnonzero(claimer >= 0)
        c = claimer[at]
        w = ins_warp[c]
        at += lo - tables.offsets[w]
        at -= ins_home[c]
        at %= tables.capacities[w]
        at += 1
        parts.append(np.minimum(at, FAR_PROBES).astype(np.uint8))
    return np.concatenate(parts)
