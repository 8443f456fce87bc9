"""The scalar parity oracles: the pre-megabatch per-warp code paths.

The PR-6 megabatch refactor (DESIGN.md decision #14) turned the walk,
construct, result-scatter, and k-schedule-merge hot paths into lockstep
NumPy array programs. This module preserves the *previous* per-warp
Python implementations verbatim -- walk state in ``list[set]`` /
list-of-lists, insert waves re-deriving their pending set from a
full-size boolean mask every probe iteration, the per-contig result
scatter with per-string :func:`~repro.genomics.dna.reverse_complement`,
and the per-contig k-schedule merge loop -- so that

* the parity test suite can assert, property-style, that the lockstep
  paths are bit-identical to the scalar semantics (outputs, iteration
  counts, overflow sets, and the full tally and event stream), and
* ``benchmarks/bench_engine_megabatch.py`` and ``repro bench`` can
  measure the megabatch speedup against the genuine pre-refactor
  engine on the same inputs.

These classes are oracles, not production paths: they trade speed for
obviousness, and they are exactly the style lint rule REP006 bans from
the production phase modules (which is why they live here and not in
``walk.py`` / ``construct.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.construct import (
    estimate_table_slots,
    estimate_table_slots_upper_bound,
)
from repro.core.extension import (
    CODE_TO_WALK_STATE,
    WALK_STATE_CODES,
    WalkState,
    resolve_extension_batch,
)
from repro.genomics.contig import Contig, End
from repro.genomics.dna import decode_matrix, reverse_complement
from repro.genomics.kmer import fingerprint_matrix
from repro.genomics.reads import DEFAULT_QUAL_THRESHOLD
from repro.hashing.murmur import murmur2_batch
from repro.kernels.engine.construct import ConstructPhase
from repro.kernels.engine.events import (
    BarrierSync,
    EventBus,
    SlotAccess,
    SlotRead,
    SlotWrite,
)
from repro.kernels.engine.prepare import (
    Batch,
    BatchPreparer,
    segmented_arange,
)
from repro.kernels.engine.schedule import KSchedule
from repro.kernels.engine.tally import LOOKUP_ITER, WALK_STEP, insert_row
from repro.kernels.engine.walk import WalkOutput, WalkPhase
from repro.kernels.vectortable import WarpHashTables


class ScalarOracleWalkPhase(WalkPhase):
    """The pre-refactor walk: per-warp ``visited`` sets and base lists.

    ``run`` is the pre-refactor implementation byte-for-byte, modulo the
    final packing of its Python-level results through
    :meth:`~repro.kernels.engine.walk.WalkOutput.from_scalar` (so the
    refactored driver can consume either phase interchangeably).
    """

    def run(self, batch: Batch, tables: WarpHashTables,
            bus: EventBus) -> WalkOutput:
        n_warps = batch.n_warps
        cur = batch.seeds.copy()
        alive = batch.seed_valid.copy()
        bases: list[list[str]] = [[] for _ in range(n_warps)]
        states = [WalkState.MISSING] * n_warps
        visited: list[set] = [set() for _ in range(n_warps)]
        first_step = np.ones(n_warps, dtype=bool)
        live = np.nonzero(alive)[0]
        if live.size:
            for w, fp in zip(live, fingerprint_matrix(cur[live])):
                visited[w].add(int(fp))
        chain = 0
        steps_run = 0
        overflowed: list[int] = []
        rows: list = []
        emit_slots = bus.wants(SlotAccess)
        emit_reads = bus.wants(SlotRead)
        for _step in range(self.max_walk_len + 1):
            if not alive.any():
                break
            steps_run += 1
            a = np.nonzero(alive)[0]
            if _step == self.max_walk_len:
                for w in a:
                    states[w] = WalkState.MAX_LEN
                break
            homes = murmur2_batch(cur[a], self.seed)
            fps = fingerprint_matrix(cur[a])

            # probe for the key (or an empty slot = not present)
            found_slot = np.full(a.size, -1, dtype=np.int64)
            missing = np.zeros(a.size, dtype=bool)
            probe = np.zeros(a.size, dtype=np.int64)
            unresolved = np.ones(a.size, dtype=bool)
            while unresolved.any():
                u = np.nonzero(unresolved)[0]
                over = probe[u] >= tables.capacities[a[u]]
                if over.any():
                    # A wrapped probe means the table is completely full
                    # and the key absent; the open-addressing loop would
                    # never terminate.
                    bad = u[over]
                    overflowed.extend(int(w) for w in a[bad])
                    missing[bad] = True
                    unresolved[bad] = False
                    if not unresolved.any():
                        break
                    u = np.nonzero(unresolved)[0]
                chain += 1
                slots = tables.slot_of(a[u], homes[u], probe[u])
                if emit_slots:
                    bus.emit(SlotAccess(slots=slots))
                occupied, slot_fp = tables.inspect(slots)
                rows.append((LOOKUP_ITER, u.size, u.size, int(
                    np.count_nonzero(occupied)), 0, 0, 0, 0, 0, 0))
                hit = occupied & (slot_fp == fps[u])
                found_slot[u[hit]] = slots[hit]
                miss = ~occupied
                self._on_probe_miss(found_slot, missing, u, miss, slots)
                probe[u[occupied & ~hit]] += 1
                unresolved[u[hit | miss]] = False

            # resolve extensions for found keys
            res_states = np.full(a.size, -2, dtype=np.int8)
            res_bases = np.full(a.size, -1, dtype=np.int8)
            f = found_slot >= 0
            vote_reads = int(f.sum())
            if f.any():
                if emit_reads:
                    bus.emit(SlotRead(phase="walk", kind="vote_read",
                                      slots=found_slot[f], warps=a[f]))
                hi_rows, lo_rows = tables.votes_at(found_slot[f])
                s, b = resolve_extension_batch(hi_rows, lo_rows, self.policy)
                res_states[f] = s
                res_bases[f] = b

            bases_committed = 0
            next_alive = alive.copy()
            advancing = ~missing & (res_states == WALK_STATE_CODES[WalkState.EXTEND])
            # terminal warps leave the walk; each warp terminates at most
            # once per launch, so these loops are O(n_warps) overall
            for w in a[missing]:
                states[w] = WalkState.MISSING if first_step[w] else WalkState.END
                next_alive[w] = False
            for j in np.nonzero(~missing & ~advancing)[0]:
                w = a[j]
                states[w] = CODE_TO_WALK_STATE[int(res_states[j])]
                next_alive[w] = False
            if advancing.any():
                adv = np.nonzero(advancing)[0]
                aw = a[adv]
                cur[aw, :-1] = cur[aw, 1:]
                cur[aw, -1] = res_bases[adv]
                fps_next = fingerprint_matrix(cur[aw])
                for j, w, fp in zip(adv, aw, fps_next):
                    fp_next = int(fp)
                    if fp_next in visited[w]:
                        states[w] = WalkState.LOOP
                        next_alive[w] = False
                        continue
                    visited[w].add(fp_next)
                    bases[w].append("ACGT"[int(res_bases[j])])
                    bases_committed += 1
            rows.append((WALK_STEP, a.size, a.size, 0, 0, 0, 0, 0,
                         vote_reads, bases_committed))
            first_step[a] = False
            alive = next_alive
        return WalkOutput.from_scalar(
            ["".join(b) for b in bases], states, steps_run, chain,
            tuple(overflowed), self.max_walk_len, rows)


class ScalarOracleConstructPhase(ConstructPhase):
    """The pre-compaction insert wave: full-mask ``nonzero`` per round."""

    def _insert_wave(self, batch: Batch, tables: WarpHashTables,
                     idx: np.ndarray, bus: EventBus, rows: list,
                     lanes: np.ndarray | None = None) -> tuple[int, list[int]]:
        proto = self.protocol
        tables.probes = None    # this loop keeps no claim's rounds
        warps = batch.ins_warp[idx]
        homes = batch.ins_home[idx]
        fps = batch.ins_fp[idx]
        n = idx.size
        probe = np.zeros(n, dtype=np.int64)
        pending = np.ones(n, dtype=bool)
        iterations = 0
        overflowed: list[int] = []
        emit_slots = bus.wants(SlotAccess)
        emit_writes = bus.wants(SlotWrite)
        emit_sync = bus.wants(BarrierSync)

        def lane_of(sel: np.ndarray) -> np.ndarray | None:
            return lanes[sel] if lanes is not None else None

        while pending.any():
            p = np.nonzero(pending)[0]
            over = probe[p] >= tables.capacities[warps[p]]
            if over.any():
                bad = np.unique(warps[p[over]])
                overflowed.extend(int(w) for w in bad)
                pending &= ~np.isin(warps, bad)
                if not pending.any():
                    break
                p = np.nonzero(pending)[0]
            iterations += 1
            uniq_warps, uniq_counts = np.unique(warps[p], return_counts=True)
            active_warps = int(uniq_warps.size)

            slots = tables.slot_of(warps[p], homes[p], probe[p])
            if emit_slots:
                bus.emit(SlotAccess(slots=slots))
            occupied, slot_fp = tables.inspect(slots)
            key_compares = int(np.count_nonzero(occupied))

            done = np.zeros(p.size, dtype=bool)
            votes_matched = 0
            match = occupied & (slot_fp == fps[p])
            if match.any():
                sel = p[match]
                self._vote(tables, slots[match], idx[sel],
                           warps[sel], lane_of(sel), bus, emit_writes)
                votes_matched = int(match.sum())
                done |= match

            cas_attempts = 0
            votes_claimed = 0
            votes_merged = 0
            empty = ~occupied
            if empty.any():
                e = np.nonzero(empty)[0]
                sel = p[e]
                winners_local = self._claim(tables, slots[e], fps[sel],
                                            warps[sel], lane_of(sel), bus,
                                            emit_writes)
                cas_attempts = e.size  # every empty observer issues a CAS
                win = e[winners_local]
                sel = p[win]
                self._vote(tables, slots[win], idx[sel],
                           warps[sel], lane_of(sel), bus, emit_writes)
                votes_claimed = win.size
                done_claim = np.zeros(p.size, dtype=bool)
                done_claim[win] = True
                done |= done_claim
                losers = e[~winners_local]
                if proto.merges_in_iteration and losers.size:
                    # __match_any_sync: losers whose key equals the fresh
                    # winner's key merge their vote in this same iteration.
                    now_fp = tables.fp[slots[losers]]
                    same = now_fp == fps[p[losers]]
                    m = losers[same]
                    if m.size:
                        sel = p[m]
                        self._vote(tables, slots[m], idx[sel],
                                   warps[sel], lane_of(sel), bus, emit_writes)
                        votes_merged = m.size
                        d = np.zeros(p.size, dtype=bool)
                        d[m] = True
                        done |= d
                # HIP/SYCL losers retry next iteration at the same probe.

            if emit_sync and proto.iteration_syncs:
                self._barrier(uniq_warps, uniq_counts, bus)
            rows.append(insert_row(p.size, active_warps, key_compares,
                                   cas_attempts, votes_matched,
                                   votes_claimed, votes_merged))
            mismatch = occupied & ~match
            probe[p[mismatch]] += 1
            pending[p[done]] = False
        return iterations, overflowed


class ScalarKSchedule(KSchedule):
    """:class:`~repro.kernels.engine.schedule.KSchedule` with the
    pre-refactor per-contig settle/merge decisions: one contig at a
    time over the k-run's ``(bases, WalkState)`` lists instead of NumPy
    masks over its arrays."""

    def _merge(self, end: End, res) -> None:
        best, settled = self.best[end], self.settled[end]
        for i, (bases, state) in enumerate(
                res.right if end is End.RIGHT else res.left):
            if settled[i]:
                continue
            if len(bases) >= best.lens[i] or state is not WalkState.FORK:
                best.put(i, bases, state)
            if state is not WalkState.FORK:
                settled[i] = True


def iterate_k_schedule_scalar(
    run_one: Callable[[int, dict], "object"],
    n_contigs: int,
    k_schedule: tuple[int, ...],
) -> KSchedule:
    """The pre-refactor k-schedule loop over :class:`ScalarKSchedule`.

    Drop-in for :func:`~repro.kernels.engine.schedule.iterate_k_schedule`
    with the settle/merge decisions taken one contig at a time; ``run_one``
    gets the same pending set.
    """
    schedule = ScalarKSchedule(n_contigs, k_schedule)
    for k in k_schedule:
        if schedule.done:
            break
        schedule.add(k, run_one(k, schedule.pending()))
    return schedule


#: Chunk size of the pre-refactor hashing pass (pinned HEAD value).
_HASH_CHUNK = 1 << 18


@dataclass
class OracleFlattenedBin:
    """The pre-refactor k-independent flatten result (pinned verbatim).

    No oriented-contig code stream: the pre-refactor ``finish`` extracted
    seed k-mers with a per-contig ``end_kmer`` / ``reverse_complement``
    loop instead of a vectorized gather.
    """

    contig_ids: list[int]
    codes: np.ndarray           # all reads' codes, concatenated
    quals: np.ndarray           # matching qualities
    read_warps: np.ndarray      # warp id per read
    read_lens: np.ndarray       # length per read
    offsets: np.ndarray         # per-read start offsets into codes (n+1)
    read_bytes_per_warp: np.ndarray
    upper_capacities: np.ndarray  # k-independent table-size upper bound

    @property
    def n_warps(self) -> int:
        return len(self.contig_ids)


class OracleBatchPreparer(BatchPreparer):
    """The pre-refactor batch preparer, pinned verbatim.

    Per-read Python orientation in ``flatten`` and the chunked
    ``(n, k)``-window ``murmur2_batch`` / ``fingerprint_matrix`` hashing
    pass in ``finish`` — the exact code the refactored preparer's
    stream-addressed ``murmur2_stream`` / ``rolling_fingerprints`` path
    replaced, preserved so oracle kernels measure (and validate against)
    the genuine pre-refactor preparation cost. Produces bit-identical
    :class:`~repro.kernels.engine.prepare.Batch` arrays.
    """

    def flatten(self, contigs: list[Contig], bin_, end: End) -> OracleFlattenedBin:
        contig_ids = bin_.contig_indices
        code_parts: list[np.ndarray] = []
        qual_parts: list[np.ndarray] = []
        read_warps: list[int] = []
        read_lens: list[int] = []
        read_bytes = np.zeros(len(contig_ids), dtype=np.int64)
        upper = np.empty(len(contig_ids), dtype=np.int64)
        for w, ci in enumerate(contig_ids):
            contig = contigs[ci]
            end_reads = contig.reads_for_end(end)
            for r in end_reads:
                codes = r.codes if end is End.RIGHT else reverse_complement(r.codes)
                quals = r.quals if end is End.RIGHT else r.quals[::-1]
                code_parts.append(codes)
                qual_parts.append(np.ascontiguousarray(quals))
                read_warps.append(w)
                read_lens.append(len(codes))
            upper[w] = estimate_table_slots_upper_bound(end_reads,
                                                        self.load_factor)
            read_bytes[w] = 2 * end_reads.total_bases
        codes = np.concatenate(code_parts) if code_parts else np.empty(0, np.uint8)
        quals = np.concatenate(qual_parts) if qual_parts else np.empty(0, np.uint8)
        lens = np.asarray(read_lens, dtype=np.int64)
        offsets = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        return OracleFlattenedBin(
            contig_ids=list(contig_ids), codes=codes, quals=quals,
            read_warps=np.asarray(read_warps, dtype=np.int64),
            read_lens=lens, offsets=offsets, read_bytes_per_warp=read_bytes,
            upper_capacities=upper,
        )

    def finish(self, flat: OracleFlattenedBin, contigs: list[Contig],
               end: End, k: int) -> Batch:
        n_warps = flat.n_warps
        n_ins_per_read = np.maximum(flat.read_lens - k, 0)
        starts = np.repeat(flat.offsets[:-1], n_ins_per_read) + segmented_arange(
            n_ins_per_read
        )
        ins_warp = np.repeat(flat.read_warps, n_ins_per_read)

        if self.table_sizing == "upper_bound":
            capacities = flat.upper_capacities.copy()
        else:
            ins_per_warp = np.zeros(n_warps, dtype=np.int64)
            np.add.at(ins_per_warp, flat.read_warps, n_ins_per_read)
            capacities = np.asarray(
                [estimate_table_slots(int(n), self.load_factor)
                 for n in ins_per_warp], dtype=np.int64)

        seeds = np.zeros((n_warps, k), dtype=np.uint8)
        seed_valid = np.zeros(n_warps, dtype=bool)
        for w, ci in enumerate(flat.contig_ids):
            contig = contigs[ci]
            if len(contig) >= k:
                seed_valid[w] = True
                seeds[w] = (
                    contig.end_kmer(k, End.RIGHT)
                    if end is End.RIGHT
                    else reverse_complement(contig.end_kmer(k, End.LEFT))
                )

        codes, quals = flat.codes, flat.quals
        n = starts.size
        ins_home = np.empty(n, dtype=np.uint32)
        ins_fp = np.empty(n, dtype=np.uint64)
        ins_ext = np.empty(n, dtype=np.uint8)
        ins_hi = np.empty(n, dtype=bool)
        col = np.arange(k, dtype=np.int64)
        for lo in range(0, n, _HASH_CHUNK):
            hi = min(lo + _HASH_CHUNK, n)
            win = codes[starts[lo:hi, None] + col]
            ins_home[lo:hi] = murmur2_batch(win, self.seed)
            ins_fp[lo:hi] = fingerprint_matrix(win)
            ext_pos = starts[lo:hi] + k
            ins_ext[lo:hi] = codes[ext_pos]
            ins_hi[lo:hi] = quals[ext_pos] >= DEFAULT_QUAL_THRESHOLD
        return Batch(
            contig_ids=list(flat.contig_ids), codes=codes, quals=quals,
            ins_warp=ins_warp, ins_home=ins_home, ins_fp=ins_fp,
            ins_ext=ins_ext, ins_hi=ins_hi,
            ins_end=np.cumsum(n_ins_per_read)[n_ins_per_read > 0] - 1,
            seeds=seeds, seed_valid=seed_valid,
            capacities=capacities, read_bytes_per_warp=flat.read_bytes_per_warp,
        )


class OracleWarpHashTables(WarpHashTables):
    """Per-warp tables with the pre-refactor vote store (pinned): one
    ``hi_q`` / ``low_q`` / ``count`` entry per *slot*, ``np.add.at``
    scatter — the independent reference for the dense per-key store."""

    def __init__(self, capacities: np.ndarray, k: int) -> None:
        super().__init__(capacities, k)
        self.hi_q = np.zeros((self.total_slots, 4), dtype=np.int32)
        self.low_q = np.zeros((self.total_slots, 4), dtype=np.int32)
        self._count = np.zeros(self.total_slots, dtype=np.int32)

    count = property(lambda self: self._count)

    def vote(self, slots: np.ndarray, exts: np.ndarray,
             hi_mask: np.ndarray) -> None:
        hi_rows = slots[hi_mask]
        lo_rows = slots[~hi_mask]
        np.add.at(self.hi_q, (hi_rows, exts[hi_mask].astype(np.int64)), 1)
        np.add.at(self.low_q, (lo_rows, exts[~hi_mask].astype(np.int64)), 1)
        np.add.at(self._count, slots, 1)

    def votes_at(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.hi_q[slots], self.low_q[slots]


def oracle_kernel_cls(kernel_cls):
    """A kernel subclass running the entire pre-refactor scalar path.

    ``oracle_kernel_cls(CudaLocalAssemblyKernel)(device)`` behaves like
    the pre-megabatch engine end to end: scalar construct/walk phases,
    the per-contig result scatter with per-string
    :func:`~repro.genomics.dna.reverse_complement`, and the per-contig
    k-schedule merge -- with identical outputs, profiles, and event
    streams. This is the baseline every megabatch parity test and
    ``bench_engine_megabatch`` measures against. Only the references
    are swapped in: the launch loop, its accept / grow-retry / drop
    bookkeeping and everything a k schedule holds beside its merge are
    ``kernel_cls``'s own (DESIGN.md decisions 21 and 29).
    """

    class OracleKernel(kernel_cls):
        construct_cls = ScalarOracleConstructPhase
        walk_cls = ScalarOracleWalkPhase
        preparer_cls = OracleBatchPreparer
        tables_cls = OracleWarpHashTables
        #: One walk per launch, as the pre-refactor engine ran them — the
        #: reference the grouped walks of ``kernel_cls`` are held against.
        walk_group_slots = 0

        def _scatter(self, arr, end: End, sub: Batch, walk,
                     ok: np.ndarray) -> None:
            """The pre-refactor scatter: one contig, one string at a time."""
            bases = decode_matrix(walk.base_codes, walk.base_lens)
            for w, ci in enumerate(sub.contig_ids):
                if not ok[w]:
                    continue
                text = bases[w]
                if end is not End.RIGHT:
                    text = reverse_complement(text)
                    assert isinstance(text, str)
                arr.text[ci] = text
                arr.lens[ci] = len(text)
                arr.state_codes[ci] = walk.state_codes[w]

        def _iterate_k_schedule(self, run_one, n_contigs, k_schedule):
            return iterate_k_schedule_scalar(run_one, n_contigs, k_schedule)

    OracleKernel.__name__ = f"Oracle{kernel_cls.__name__}"
    OracleKernel.__qualname__ = OracleKernel.__name__
    return OracleKernel


__all__ = [
    "OracleBatchPreparer",
    "OracleWarpHashTables",
    "ScalarOracleWalkPhase",
    "ScalarOracleConstructPhase",
    "iterate_k_schedule_scalar",
    "oracle_kernel_cls",
]
