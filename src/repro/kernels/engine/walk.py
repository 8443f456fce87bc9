"""The walk phase: one lane per warp mer-walks from the contig-end seed.

Algorithm 2, whose scalar telling is
:func:`repro.core.reference.reference_walk`. The other lanes are
predicated off while one lane walks; the terminal state is broadcast
with a shuffle. Everything is one lockstep array program across warps
(DESIGN.md decision #14): loop detection is one matrix of the walkers'
paths (:class:`VisitedFingerprintSet`), committed bases land in a
preallocated ``(n_warps, max_walk_len)`` matrix decoded once, and the
Python-level loops are over walk steps and probe rounds, never lanes or
warps (lint rule REP006). The pre-refactor per-warp path survives as the
parity oracle (:class:`repro.kernels.engine.oracle.ScalarOracleWalkPhase`).

Counts leave the phase as tally rows (:mod:`repro.kernels.engine.tally`)
in :attr:`WalkOutput.rows`, or logged as arrays when a driver fuses
launches. Evidence goes to the event bus only where ``bus.wants`` it:
the :class:`~repro.kernels.engine.events.SlotAccess` of every probe and
the :class:`~repro.kernels.engine.events.SlotRead` of every vote read
(the buggy demo backend overrides :meth:`WalkPhase._on_probe_miss` to
read empty slots, the bug initcheck must catch). A walk's path is
port-invariant, so one port's walk can be taped and the other ports'
walks follow it (:class:`WalkTape`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.extension import (
    CODE_TO_WALK_STATE,
    DEFAULT_MAX_WALK_LEN,
    DEFAULT_POLICY,
    WALK_STATE_CODES,
    WalkPolicy,
    WalkState,
    resolve_extension_batch,
)
from repro.errors import KernelError
from repro.genomics.dna import decode_matrix, encode
from repro.genomics.kmer import fingerprint_matrix, shift_fingerprints
from repro.hashing.murmur import murmur2_batch
from repro.kernels.engine.events import EventBus, SlotAccess, SlotRead
from repro.kernels.engine.prepare import Batch
from repro.kernels.engine.tally import (
    lookup_entry,
    lookup_row,
    step_row,
    walk_entry,
)
from repro.kernels.vectortable import WarpHashTables

_EXTEND = WALK_STATE_CODES[WalkState.EXTEND]
_END = WALK_STATE_CODES[WalkState.END]
_LOOP = WALK_STATE_CODES[WalkState.LOOP]
_MAX_LEN = WALK_STATE_CODES[WalkState.MAX_LEN]
_MISSING = WALK_STATE_CODES[WalkState.MISSING]
_DISAGREE = "this port's table disagrees with the lead's walk"


class VisitedFingerprintSet:
    """Per-warp sets of visited k-mer fingerprints — compared, not hashed.

    A walking warp visits one new k-mer a step, so its set is its path:
    row ``r`` of ``_path`` holds one warp's fingerprints in visiting
    order, padded with its first one (a padding cell can only match what
    the row holds anyway), and a membership test is *one* comparison of
    the callers' rows against their queries, where an open-addressed
    table costs a lockstep round per collision depth of its slowest lane.
    The width doubles when the longest path fills it; once fewer than
    half of the rows take part in a call the others are *shelved* (one
    small array per warp) until their warp calls again, so a stopped
    walker stops costing width. A step costs ``callers x width``
    compares. Within one call every warp appears at most once.
    """

    def __init__(self, n_warps: int) -> None:
        self._row = np.full(n_warps, -1, dtype=np.int64)    # warp -> row
        self._warp = np.empty(0, dtype=np.int64)            # row -> warp
        self._len = np.empty(0, dtype=np.int64)             # row -> keys held
        self._path = np.empty((0, 8), dtype=np.uint64)
        self._shelved: dict[int, np.ndarray] = {}

    def _admit(self, warps: np.ndarray, fps: np.ndarray) -> np.ndarray:
        """Append a row per warp, holding its fingerprint — or, for a warp
        off the shelf, what it held. Returns the mask of the former."""
        block = np.repeat(fps[:, None], self._path.shape[1], axis=1)
        lens = np.ones(warps.size, dtype=np.int64)
        fresh = np.ones(warps.size, dtype=bool)
        if self._shelved:
            for i, warp in enumerate(warps.tolist()):
                held = self._shelved.pop(warp, None)
                if held is not None:
                    block[i] = held[0]
                    block[i, :held.size] = held
                    lens[i] = held.size
                    fresh[i] = False
        rows = self._warp.size
        self._row[warps] = np.arange(rows, rows + warps.size)
        self._warp = np.concatenate([self._warp, warps])
        self._len = np.concatenate([self._len, lens])
        self._path = np.concatenate([self._path, block])
        return fresh

    def _shelve_all_but(self, keep: np.ndarray) -> None:
        """Shrink the matrix to rows ``keep``, in that order."""
        gone = np.ones(self._warp.size, dtype=bool)
        gone[keep] = False
        lens = self._len[gone]
        held = self._path[gone]
        held = held[np.arange(held.shape[1]) < lens[:, None]]
        self._shelved.update(zip(self._warp[gone].tolist(),
                                 np.split(held, np.cumsum(lens)[:-1])))
        self._row[self._warp[gone]] = -1
        self._warp, self._len, self._path = (
            self._warp[keep], self._len[keep], self._path[keep])
        self._row[self._warp] = np.arange(keep.size)

    def add(self, warps: np.ndarray, fps: np.ndarray) -> None:
        """Insert fingerprints (duplicates are ignored)."""
        self.seen_or_add(warps, fps)

    def seen_or_add(self, warps: np.ndarray, fps: np.ndarray) -> np.ndarray:
        """Membership mask; fingerprints not yet present are inserted.

        Mirrors the oracle's ``if fp in visited[w]: ... else visited[w].add``
        pair as a single lockstep operation: keys already present return
        True and are left unchanged.
        """
        warps = np.asarray(warps, dtype=np.int64)
        fps = np.asarray(fps, dtype=np.uint64)
        rows = self._row[warps]
        fresh = None
        new = np.flatnonzero(rows < 0)
        if new.size:
            fresh = new[self._admit(warps[new], fps[new])]
            rows = self._row[warps]
        elif 2 * rows.size < self._warp.size:
            self._shelve_all_but(rows)
            rows = np.arange(rows.size)
        seen = (self._path[rows] == fps[:, None]).any(axis=1)
        add = np.flatnonzero(~seen)
        if fresh is not None:
            seen[fresh] = False     # it matched the row it was given
        if add.size:
            rows = rows[add]
            at = self._len[rows]
            width = self._path.shape[1]
            if int(at.max()) == width:
                self._path = np.concatenate(
                    [self._path, np.repeat(self._path[:, :1], width, axis=1)],
                    axis=1)
            self._path[rows, at] = fps[add]
            self._len[rows] = at + 1
        return seen


@dataclass
class WalkOutput:
    """Functional + serial-chain output of one launch's walk phase:
    left-aligned ``base_codes`` rows of ``base_lens`` bases and int8
    ``state_codes`` (:data:`~repro.core.extension.WALK_STATE_CODES`);
    the string / enum views are derived on demand."""

    base_codes: np.ndarray      #: (n_warps, max_walk_len) committed bases
    base_lens: np.ndarray       #: valid base count per warp
    state_codes: np.ndarray     #: terminal WALK_STATE_CODES per warp
    steps: int                  #: lockstep walk steps executed
    iterations: int             #: lockstep lookup-probe iterations
    #: Warps whose lookup wrapped a full table, in the order they did.
    overflowed: tuple[int, ...] = ()
    #: The launch's tally rows, in order (empty when the phase logged).
    rows: list = field(default_factory=list)
    _bases: list[str] | None = field(default=None, repr=False)

    @property
    def bases(self) -> list[str]:
        """Extension string per warp (decoded once, then cached)."""
        if self._bases is None:
            self._bases = decode_matrix(self.base_codes, self.base_lens)
        return self._bases

    @property
    def states(self) -> list[WalkState]:
        """Terminal :class:`WalkState` per warp (derived view)."""
        return [CODE_TO_WALK_STATE[int(c)] for c in self.state_codes]

    @classmethod
    def from_scalar(cls, bases: list[str], states: list[WalkState],
                    steps: int, iterations: int,
                    overflowed: tuple[int, ...],
                    max_walk_len: int, rows: list) -> "WalkOutput":
        """Pack per-warp Python results (the oracle's) into lockstep form."""
        n = len(bases)
        codes = np.zeros((n, max_walk_len), dtype=np.uint8)
        lens = np.zeros(n, dtype=np.int64)
        for w, b in enumerate(bases):
            lens[w] = len(b)
            if b:
                codes[w, :len(b)] = encode(b)
        state_codes = np.asarray([WALK_STATE_CODES[s] for s in states],
                                 dtype=np.int8)
        return cls(base_codes=codes, base_lens=lens, state_codes=state_codes,
                   steps=steps, iterations=iterations,
                   overflowed=tuple(overflowed), rows=rows)


@dataclass
class WalkTape:
    """One port's walk, for the other ports of its input to follow: per
    step its :func:`~repro.kernels.engine.tally.walk_entry` (walkers,
    found mask, committed), the walkers' homes and fingerprints and the
    ``votes_at`` rows read (``None``: none); :attr:`out` is its output.
    """

    steps: list = field(default_factory=list)
    out: WalkOutput | None = None


class WalkPhase:
    """Mer-walks every warp's seed in lockstep, tallying its rounds.

    As in :class:`ConstructPhase`, a full table never raises here: a
    lookup that wraps one (possible when construction exactly filled
    it) ends that warp's walk and :attr:`WalkOutput.overflowed` reports
    it.
    """

    def __init__(self, policy: WalkPolicy = DEFAULT_POLICY,
                 max_walk_len: int = DEFAULT_MAX_WALK_LEN,
                 seed: int = 0) -> None:
        self.policy = policy
        self.max_walk_len = max_walk_len
        self.seed = seed
        #: The program's attribution log (``None`` = off; see
        #: :class:`ConstructPhase`): an entry per lookup round and walk
        #: step *instead of* a tally row.
        self.log: list | None = None
        #: A :class:`WalkTape` the next :meth:`run` takes: an empty one
        #: records that walk, a lead's is followed (:meth:`_follow`).
        self.tape: WalkTape | None = None

    def _on_probe_miss(self, found_slot: np.ndarray, missing: np.ndarray,
                       u: np.ndarray, miss: np.ndarray,
                       slots: np.ndarray) -> None:
        """An empty slot ends the lookup: the key is absent (the buggy
        demo backend reads the empty slot's votes instead)."""
        missing[u[miss]] = True

    def _lookup(self, a: np.ndarray, homes: np.ndarray, fps: np.ndarray,
                tables: WarpHashTables, bus: EventBus, emit_slots: bool,
                overflowed: list[int],
                tally) -> tuple[np.ndarray, np.ndarray, int]:
        """Probe all walking warps for their current key, in lockstep;
        ``tally(u, au, occupied)`` counts each round's pending lanes
        ``u`` (their warps ``au``) and the slots they found occupied.

        Returns ``(found_slot, missing, iterations)`` over ``a``-aligned
        arrays. The pending set is kept *compacted*: ``u`` shrinks as
        lanes resolve instead of being re-derived from a full-size mask
        every round, so late probe rounds touch only the stragglers.
        """
        found_slot = np.full(a.size, -1, dtype=np.int64)
        missing = np.zeros(a.size, dtype=bool)
        u = np.arange(a.size, dtype=np.int64)
        probe_u = np.zeros(a.size, dtype=np.int64)
        iterations = 0
        while u.size:
            au = a[u]
            over = probe_u >= tables.capacities[au]
            if over.any():
                # A wrapped probe means the table is completely full
                # and the key absent; the open-addressing loop would
                # never terminate.
                bad = u[over]
                overflowed.extend(np.asarray(a[bad]).tolist())
                missing[bad] = True
                keep = ~over
                u = u[keep]
                probe_u = probe_u[keep]
                if not u.size:
                    break
                au = a[u]
            iterations += 1
            slots = tables.slot_of(au, homes[u], probe_u)
            if emit_slots:
                bus.emit(SlotAccess(slots=slots))
            occupied, slot_fp = tables.inspect(slots)
            tally(u, au, occupied)
            hit = occupied & (slot_fp == fps[u])
            found_slot[u[hit]] = slots[hit]
            miss = ~occupied
            self._on_probe_miss(found_slot, missing, u, miss, slots)
            cont = occupied & ~hit
            probe_u = probe_u[cont] + 1
            u = u[cont]
        return found_slot, missing, iterations

    def _follow(self, tape: WalkTape, tables: WarpHashTables) -> WalkOutput:
        """Walk a lead's path in ``tables``, this port's own (the bases,
        states and step count are the lead's). Only lookups run: a walk
        never writes its tables, so all taped steps' lookups run as one
        lockstep lookup, and each probe round is cut by step into the
        rows (or log entries) this port's own walk writes, beside the
        lead's step entries. Raises :class:`~repro.errors.KernelError`
        if a lookup wraps, or the found lanes or the vote rows read
        differ from the lead's.
        """
        lead, rows, log = tape.out, [], self.log
        if not tape.steps:
            return replace(lead, iterations=0, rows=rows)
        entries, homes, fps, reads = zip(*tape.steps)
        a, found, homes, fps = (np.concatenate(part) for part in (
            [entry[1] for entry in entries], [entry[2] for entry in entries],
            homes, fps))
        cuts = np.cumsum([0, *(entry[1].size for entry in entries)])
        # per probe round: the pending lanes' warps, which of them read an
        # occupied slot, and where each step's lanes start
        rounds, overflowed = [], []
        slot, missing, _ = self._lookup(
            a, homes, fps, tables, EventBus(), False, overflowed,
            lambda u, au, occupied: rounds.append(
                (au, occupied, np.searchsorted(u, cuts).tolist())))
        read = [r for r in reads if r is not None]
        if overflowed or not np.array_equal(slot >= 0, found) \
                or not np.array_equal(missing, ~found) or read and not all(
                    np.array_equal(got, np.concatenate(want)) for got, want
                    in zip(tables.votes_at(slot[found]), zip(*read))):
            raise KernelError(_DISAGREE)
        chain = 0
        for s, entry in enumerate(entries):
            for au, occupied, cut in rounds:
                lo, hi = cut[s], cut[s + 1]
                if lo == hi:    # a step's pending lanes only shrink
                    break
                chain += 1
                if log is None:
                    rows.append(lookup_row(
                        hi - lo, int(np.count_nonzero(occupied[lo:hi]))))
                else:
                    log.append(lookup_entry(au[lo:hi], occupied[lo:hi]))
            if log is None:
                _, walkers, f, _, _, committed = entry
                rows.append(step_row(walkers.size, int(np.count_nonzero(f)),
                                     0 if committed is None
                                     else committed.size))
            else:
                log.append(entry)
        return replace(lead, iterations=chain, rows=rows)

    def run(self, batch: Batch, tables: WarpHashTables,
            bus: EventBus) -> WalkOutput:
        tape, self.tape = self.tape, None
        if tape is not None and tape.out is not None:
            return self._follow(tape, tables)
        n_warps = batch.n_warps
        max_len = self.max_walk_len
        cur = batch.seeds.copy()
        alive = batch.seed_valid.copy()
        base_codes = np.zeros((n_warps, max_len), dtype=np.uint8)
        base_lens = np.zeros(n_warps, dtype=np.int64)
        state_codes = np.full(n_warps, _MISSING, dtype=np.int8)
        visited = VisitedFingerprintSet(n_warps)
        first_step = np.ones(n_warps, dtype=bool)
        live = np.nonzero(alive)[0]
        # Current-k-mer fingerprints roll along with ``cur`` (one
        # shift_fingerprints update per advance) instead of re-evaluating
        # the k-wide polynomial every step.
        k = int(cur.shape[1])
        cur_fp = np.zeros(n_warps, dtype=np.uint64)
        if live.size:
            cur_fp[live] = fingerprint_matrix(cur[live])
            visited.add(live, cur_fp[live])
        chain = 0
        steps_run = 0
        overflowed: list[int] = []
        rows: list = []
        emit_slots = bus.wants(SlotAccess)
        emit_reads = bus.wants(SlotRead)
        log = self.log
        if log is None:
            def tally(u, au, occupied):
                rows.append(lookup_row(u.size, int(np.count_nonzero(occupied))))
        else:
            def tally(u, au, occupied):
                log.append(lookup_entry(au, occupied))
        for _step in range(max_len + 1):
            if not alive.any():
                break
            steps_run += 1
            a = np.nonzero(alive)[0]
            if _step == max_len:
                state_codes[a] = _MAX_LEN
                break
            homes = murmur2_batch(cur[a], self.seed)
            fps = cur_fp[a]

            # probe for the key (or an empty slot = not present)
            found_slot, missing, iters = self._lookup(
                a, homes, fps, tables, bus, emit_slots, overflowed, tally)
            chain += iters

            # resolve extensions for found keys
            res_states = np.full(a.size, -2, dtype=np.int8)
            res_bases = np.full(a.size, -1, dtype=np.int8)
            f = found_slot >= 0
            read = None
            if f.any():
                if emit_reads:
                    bus.emit(SlotRead(phase="walk", kind="vote_read",
                                      slots=found_slot[f], warps=a[f]))
                read = hi_rows, lo_rows = tables.votes_at(found_slot[f])
                s, b = resolve_extension_batch(hi_rows, lo_rows, self.policy)
                res_states[f] = s
                res_bases[f] = b

            bases_committed = 0
            committed = None
            next_alive = alive.copy()
            advancing = ~missing & (res_states == _EXTEND)
            # terminal warps leave the walk as one mask assignment: a
            # missing key is MISSING on the first step and END after it,
            # any other non-advancing resolution keeps its resolver code
            terminal = a[missing]
            state_codes[terminal] = np.where(first_step[terminal],
                                             _MISSING, _END).astype(np.int8)
            resolved = ~missing & ~advancing
            state_codes[a[resolved]] = res_states[resolved]
            next_alive[a[missing | resolved]] = False
            if advancing.any():
                adv = np.nonzero(advancing)[0]
                aw = a[adv]
                dropped = cur[aw, 0]
                cur[aw, :-1] = cur[aw, 1:]
                cur[aw, -1] = res_bases[adv]
                cur_fp[aw] = shift_fingerprints(cur_fp[aw], dropped,
                                                res_bases[adv], k)
                seen = visited.seen_or_add(aw, cur_fp[aw])
                looped = aw[seen]
                state_codes[looped] = _LOOP
                next_alive[looped] = False
                committed = adv[~seen]
                ok = a[committed]
                base_codes[ok, base_lens[ok]] = res_bases[committed].astype(
                    np.uint8)
                base_lens[ok] += 1
                bases_committed = int(ok.size)
            entry = walk_entry(a, f, committed)
            if log is None:
                rows.append(step_row(a.size, int(f.sum()), bases_committed))
            else:
                log.append(entry)
            if tape is not None:
                tape.steps.append((entry, homes, fps, read))
            first_step[a] = False
            alive = next_alive
        out = WalkOutput(base_codes=base_codes, base_lens=base_lens,
                         state_codes=state_codes, steps=steps_run,
                         iterations=chain, overflowed=tuple(overflowed),
                         rows=rows)
        if tape is not None:
            tape.out = out
        return out
