"""The walk phase: one lane per warp mer-walks from the contig-end seed.

The other lanes are predicated off while one lane walks; the terminal
state is broadcast with a shuffle. Everything is vectorized across
warps as one lockstep array program (DESIGN.md decision #14): per-warp
loop-detection state lives in one matrix of the walkers' paths
(:class:`VisitedFingerprintSet`), committed bases land in a
preallocated ``(n_warps, max_walk_len)`` int8 matrix decoded once at
the end, and terminal/advance bookkeeping is mask assignments — the
Python-level loops are over walk steps and probe iterations, never
over lanes or warps (lint rule REP006 enforces this). The pre-refactor
per-warp code path survives verbatim as the parity oracle
(:class:`repro.kernels.engine.oracle.ScalarOracleWalkPhase`).

What the phase counts leaves it as tally rows — one per lookup round and
per walk step (:mod:`repro.kernels.engine.tally`), returned in
:attr:`WalkOutput.rows`, or logged as arrays when a driver fuses
launches; the phase never mutates a profile or traffic ledger. Evidence
goes to the event bus, gated on ``bus.wants`` so a run nobody observes
pays nothing: the :class:`~repro.kernels.engine.events.SlotAccess` of
every probe, and :class:`~repro.kernels.engine.events.SlotRead` records
where it resolves votes, so the initcheck sanitizer can flag reads of
never-written slot value regions. The probe-miss bookkeeping is an
overridable method — the deliberately-buggy demo backend
(:mod:`repro.sanitize.demo`) overrides it to read votes from empty
slots, the bug initcheck must catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.extension import (
    CODE_TO_WALK_STATE,
    DEFAULT_POLICY,
    WALK_STATE_CODES,
    WalkPolicy,
    WalkState,
    resolve_extension_batch,
)
from repro.core.merwalk import DEFAULT_MAX_WALK_LEN
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


class VisitedFingerprintSet:
    """Per-warp sets of visited k-mer fingerprints — compared, not hashed.

    A walking warp visits one new k-mer a step, so its set is its path:
    row ``r`` of ``_path`` holds one warp's fingerprints in visiting
    order, padded with its first one (a padding cell can only match what
    the row holds anyway), and a membership test is *one* comparison of
    the callers' rows against their queries — whatever the paths hold,
    where an open-addressed table costs one lockstep round per collision
    depth of its slowest lane. The matrix is sized by what is inserted,
    not by the worst walk: its width doubles when the longest path fills
    it, and as soon as fewer than half of its rows take part in a call
    the others are *shelved* — their fingerprints leave the matrix for
    one small array per warp — so a walker that has stopped stops
    costing width. A shelved warp that calls again gets its row back.
    A step costs ``callers x width`` compares: 45 k per warp over a
    300-step walk, a few hundred over the 15-30 steps of a mean one.

    Within one call every warp appears at most once (a walking warp
    queries exactly one next-k-mer fingerprint per step).
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
    """Functional + serial-chain output of one launch's walk phase.

    The lockstep representation is primary: committed bases live in the
    preallocated ``(n_warps, max_walk_len)`` ``base_codes`` matrix
    (left-aligned, ``base_lens`` valid columns per row) and terminal
    states in the int8 ``state_codes`` array
    (:data:`~repro.core.extension.WALK_STATE_CODES`). The string/enum
    views the pre-refactor engine returned are derived on demand.
    """

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
        #: The launch's attribution log (``None`` = off; see
        #: :class:`ConstructPhase`): one entry per lookup round and per
        #: walk step, *instead of* a tally row — a logged walk covers
        #: several launches, and its driver attributes each launch's
        #: rows from the log.
        self.log: list | None = None

    def _on_probe_miss(self, found_slot: np.ndarray, missing: np.ndarray,
                       u: np.ndarray, miss: np.ndarray,
                       slots: np.ndarray) -> None:
        """An empty slot ends the lookup: the key is absent.

        Overridable so the buggy demo backend can instead treat the empty
        slot as found and read its (never-written) votes.
        """
        missing[u[miss]] = True

    def _lookup(self, a: np.ndarray, homes: np.ndarray, fps: np.ndarray,
                tables: WarpHashTables, bus: EventBus, emit_slots: bool,
                overflowed: list[int],
                rows: list) -> tuple[np.ndarray, np.ndarray, int]:
        """Probe all walking warps for their current key, in lockstep.

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
        log = self.log
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
                bus.emit(SlotAccess(slots=slots, kind="probe"))
            occupied, slot_fp = tables.inspect(slots)
            if log is None:
                rows.append(lookup_row(u.size,
                                       int(np.count_nonzero(occupied))))
            else:
                log.append(lookup_entry(au, occupied))
            hit = occupied & (slot_fp == fps[u])
            found_slot[u[hit]] = slots[hit]
            miss = ~occupied
            self._on_probe_miss(found_slot, missing, u, miss, slots)
            cont = occupied & ~hit
            probe_u = probe_u[cont] + 1
            u = u[cont]
        return found_slot, missing, iterations

    def run(self, batch: Batch, tables: WarpHashTables,
            bus: EventBus) -> WalkOutput:
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
                a, homes, fps, tables, bus, emit_slots, overflowed, rows)
            chain += iters

            # resolve extensions for found keys
            res_states = np.full(a.size, -2, dtype=np.int8)
            res_bases = np.full(a.size, -1, dtype=np.int8)
            f = found_slot >= 0
            if f.any():
                if emit_reads:
                    bus.emit(SlotRead(phase="walk", kind="vote_read",
                                      slots=found_slot[f], warps=a[f]))
                hi_rows, lo_rows = tables.votes_at(found_slot[f])
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
            if log is None:
                rows.append(step_row(a.size, int(f.sum()), bases_committed))
            else:
                log.append(walk_entry(a, f, committed))
            first_step[a] = False
            alive = next_alive
        return WalkOutput(base_codes=base_codes, base_lens=base_lens,
                          state_codes=state_codes, steps=steps_run,
                          iterations=chain, overflowed=tuple(overflowed),
                          rows=rows)
