"""The walk phase: one lane per warp mer-walks from the contig-end seed.

Algorithm 2 (scalar telling: :func:`repro.core.reference.reference_walk`)
as one lockstep array program across warps, in two passes (DESIGN.md
decision 35). **Discovery** follows each walker's read along the vote-row
links construct draws, resolving up to :data:`FOLLOW_BLOCK` rows a
round; only a walker that starts or leaves its read hashes and looks up.
**Counting** looks every step's key up as the walk would and writes its
tally rows or log entries (:mod:`repro.kernels.engine.tally`), overflow
order and the evidence ``bus.wants`` — ``SlotAccess`` per probe,
``SlotRead`` per vote read (the sanitizer's test mutants override
:meth:`WalkPhase._on_probe_miss` to read empty slots). A walk is
port-invariant, so counting is also how the other ports of an input
follow a lead's (:class:`WalkTape`). The pre-refactor per-warp walk is
the parity oracle (:class:`repro.kernels.engine.oracle.\
ScalarOracleWalkPhase`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
from repro.genomics.kmer import fingerprint_matrix
from repro.hashing.murmur import murmur2_batch
from repro.kernels.engine.events import EventBus, SlotAccess, SlotRead
from repro.kernels.engine.prepare import Batch, run_length_sorted
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
_DISAGREE = "this port's table disagrees with the walk's lookups"

#: Linked rows a walker resolves per discovery round. The walks of 35
#: ``serve_steady`` jobs (1,839 steps; min of 3, 2-core host) took
#: 0.132 / 0.149 / 0.093 / 0.104 s in 189 / 138 / 116 / 116 rounds at
#: 16 / 32 / 64 / 128: past 64 the rounds are the walkers' departures.
FOLLOW_BLOCK = 64

#: Rows one discovery round resolves, and lanes one counting stretch
#: looks up, at most: each holds ~200 B while it runs. One walk over
#: the 878 warps of the k = 33 grid dataset at scale 0.1 peaks at 1,646
#: B per warp at ``1 << 12`` and 2,820 at ``1 << 13`` (2,048 allowed).
WALK_STRETCH = 1 << 12


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
    #: Host lockstep rounds that found the path (0: it was followed).
    rounds: int = 0
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
                    steps: int, iterations: int, overflowed: tuple[int, ...],
                    max_walk_len: int, rows: list) -> "WalkOutput":
        """Pack per-warp Python results (the oracle's) into lockstep form."""
        codes = np.zeros((len(bases), max_walk_len), dtype=np.uint8)
        for w, b in enumerate(bases):
            codes[w, :len(b)] = encode(b)
        return cls(codes, np.array([len(b) for b in bases], dtype=np.int64),
                   np.array([WALK_STATE_CODES[s] for s in states],
                            dtype=np.int8),
                   steps, iterations, tuple(overflowed), rows)


@dataclass
class WalkTape:
    """One walk (:attr:`out`) as its lookups, step-major: lanes
    ``cuts[s]:cuts[s + 1]`` are the ``warps`` looking up their step-``s``
    keys, ``found`` those in the table. Discovery's tape holds the walks'
    seed-and-bases ``codes``; a recorded one, which the other ports
    follow, the keys' ``homes``, ``fps`` and the ``votes_at`` rows read
    (hi, low). An empty tape given to :meth:`WalkPhase.run` records."""

    warps: np.ndarray | None = None
    cuts: np.ndarray | None = None
    found: np.ndarray | None = None
    codes: np.ndarray | None = None
    homes: np.ndarray | None = None
    fps: np.ndarray | None = None
    votes: np.ndarray | None = None
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
        #: records that walk, a lead's is followed.
        self.tape: WalkTape | None = None

    def _on_probe_miss(self, found_slot: np.ndarray, missing: np.ndarray,
                       u: np.ndarray, miss: np.ndarray,
                       slots: np.ndarray) -> None:
        """An empty slot ends the lookup: the key is absent (the
        sanitizer's test mutants read the empty slot's votes instead)."""
        missing[u[miss]] = True

    def _lookup(self, a: np.ndarray, homes: np.ndarray, fps: np.ndarray,
                tables: WarpHashTables, on_round=None,
                ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Probe lanes ``a`` (warp ids) for their keys in lockstep (the
        pending set compacted: late rounds touch only the stragglers);
        ``on_round(u, au, occupied, slots)`` sees each round. Returns
        ``a``-aligned ``(found_slot, missing)`` and, by round, the lanes
        whose probe wrapped a full table (the key is absent)."""
        found_slot = np.full(a.size, -1, dtype=np.int64)
        missing = np.zeros(a.size, dtype=bool)
        u = np.arange(a.size, dtype=np.int64)
        probe_u = np.zeros(a.size, dtype=np.int64)
        wrapped = []
        while u.size:
            au = a[u]
            over = probe_u >= tables.capacities[au]
            if over.any():
                wrapped.append(u[over])
                missing[u[over]] = True
                u, probe_u, au = u[~over], probe_u[~over], au[~over]
                if not u.size:
                    break
            slots = tables.slot_of(au, homes[u], probe_u)
            occupied, slot_fp = tables.inspect(slots)
            if on_round is not None:
                on_round(u, au, occupied, slots)
            hit = occupied & (slot_fp == fps[u])
            found_slot[u[hit]] = slots[hit]
            self._on_probe_miss(found_slot, missing, u, ~occupied, slots)
            cont = occupied & ~hit
            u, probe_u = u[cont], probe_u[cont] + 1
        return found_slot, missing, wrapped

    # ------------------------------------------------------------------
    # discovery

    def _arrive(self, look: np.ndarray, walk: dict,
                tables: WarpHashTables) -> np.ndarray:
        """One batched real lookup of each ``look`` walker's seed, or the
        key its tentative base leads to (``pending``): settles those that
        end on it, returns those now on a found key's row (``row``)."""
        lens, state = walk["lens"], walk["state"]
        pending = walk["pending"][look]
        keys = walk["keys"][look, lens[look] + pending]
        slot, _, _ = self._lookup(look, murmur2_batch(keys, self.seed),
                                  fingerprint_matrix(keys), tables)
        found = slot >= 0
        row = np.where(found, tables.row[slot], 0)
        visited = walk["visited"]
        looped = pending & visited[row]
        state[look[looped]] = _LOOP
        go = ~looped
        lens[look[go & pending]] += 1       # the tentative base stands
        full = go & (lens[look] == self.max_walk_len)
        state[look[full]] = _MAX_LEN
        ended = go & ~full & ~found
        state[look[ended]] = np.where(pending[ended], _END, _MISSING)
        walk["missed"][look[ended]] = True
        arrive = go & ~full & found
        walk["pending"][look] = False
        visited[row[arrive]] = True
        visited[0] = False      # the sentinel row (a mutant's empty slot)
        walk["row"][look[arrive]] = row[arrive]
        return look[arrive]

    def _follow_reads(self, at: np.ndarray, walk: dict,
                      tables: WarpHashTables) -> tuple[np.ndarray,
                                                      np.ndarray]:
        """One block for the walkers ``at`` (each on a key's row): resolve
        the linked rows ahead in one batch and accept the prefix that
        takes the links' bases, loops on no row and fits ``max_walk_len``.
        Returns ``(still on a link, leaving their read)``, the latter with
        their next base tentative (``pending``)."""
        codes, lens, state = walk["codes"], walk["lens"], walk["state"]
        link, visited = tables.link, walk["visited"]
        block = max(1, min(FOLLOW_BLOCK, WALK_STRETCH // max(at.size, 1)))
        ahead = np.empty((at.size, block + 1), dtype=link.dtype)
        ahead[:, 0] = walk["row"][at]
        for j in range(block):
            np.right_shift(link[ahead[:, j]], 2, out=ahead[:, j + 1])
        rows, nxt = ahead[:, :-1], ahead[:, 1:]
        cells = rows > 0
        cells[:, 0] = True      # a walker's own row (a mutant's may be 0)
        votes = tables.votes[rows[cells]]
        res_states = np.full(rows.shape, _END, dtype=np.int8)
        res_bases = np.full(rows.shape, -1, dtype=np.int8)
        res_states[cells], res_bases[cells] = resolve_extension_batch(
            votes[:, 4:], votes[:, :4], self.policy)
        along = ((res_states == _EXTEND) & (nxt > 0)
                 & (res_bases == link[rows] & 3))
        # a row met again — earlier in this block, or on an earlier
        # round — is a loop
        order = np.argsort(ahead, axis=1, kind="stable")
        again = np.zeros(ahead.shape, dtype=bool)
        srt = np.take_along_axis(ahead, order, axis=1)
        np.put_along_axis(again, order[:, 1:], srt[:, 1:] == srt[:, :-1],
                          axis=1)
        loops = again[:, 1:] | visited[nxt]
        room = self.max_walk_len - lens[at]
        fits = np.arange(1, block + 1) < room[:, None]
        go = along & ~loops & fits
        stop = np.where(go.all(axis=1), block, np.argmin(go, axis=1))
        ends = np.flatnonzero(stop < block)
        j = stop[ends]
        res = res_states[ends, j]
        resolved = res != _EXTEND
        followed = ~resolved & along[ends, j]
        looped = followed & loops[ends, j]
        full = followed & ~looped
        leave = ~resolved & ~followed
        w = at[ends]
        state[w[resolved]] = res[resolved]
        state[w[looped]] = _LOOP
        state[w[full]] = _MAX_LEN
        taken = stop.copy()
        taken[ends[full]] += 1
        wi, ji = np.nonzero(np.arange(block) < taken[:, None])
        codes[at[wi], tables.k + lens[at[wi]] + ji] = res_bases[wi, ji]
        lens[at] += taken
        seen = (np.arange(1, block + 1) <= stop[:, None]) & (nxt > 0)
        visited[nxt[seen]] = True
        out = w[leave]
        codes[out, tables.k + lens[out]] = res_bases[ends[leave], j[leave]]
        walk["pending"][out] = True
        stay = stop == block
        walk["row"][at[stay]] = ahead[stay, -1]
        return at[stay], out

    def _discover(self, batch: Batch,
                  tables: WarpHashTables) -> WalkTape:
        """Every walker's bases and terminal state, and its lookups."""
        n, k, max_len = batch.n_warps, batch.seeds.shape[1], self.max_walk_len
        codes = np.zeros((n, k + max_len), dtype=np.uint8)
        codes[:, :k] = batch.seeds
        walk = {name: np.zeros(n, dtype=dtype) for name, dtype in (
            ("lens", np.int64), ("missed", bool), ("pending", bool),
            ("row", np.int64))}
        walk.update(codes=codes, keys=sliding_window_view(codes, k, 1),
                    state=np.full(n, _MISSING, dtype=np.int8),
                    visited=np.zeros(tables.votes.shape[0], dtype=bool))
        lens, state = walk["lens"], walk["state"]
        look = np.flatnonzero(batch.seed_valid)
        at = look[:0]
        rounds = 0
        while look.size or at.size:
            rounds += 1
            at = np.concatenate([at, self._arrive(look, walk, tables)])
            at, look = self._follow_reads(at, walk, tables)
        # a walker looks a key up on every step but the MAX_LEN cutoff,
        # and only its last lookup can miss
        valid = batch.seed_valid
        cutoff = valid & (state == _MAX_LEN)
        n_look = np.where(valid, lens + ~cutoff, 0)
        depth = int(n_look.max(initial=0))
        steps, warps = np.divmod(np.flatnonzero(
            np.arange(depth)[:, None] < n_look), n)
        return WalkTape(
            warps=warps, cuts=np.searchsorted(steps, np.arange(depth + 1)),
            found=~(walk["missed"][warps] & (steps == n_look[warps] - 1)),
            codes=codes, out=WalkOutput(
                base_codes=codes[:, k:], base_lens=lens, state_codes=state,
                steps=int((n_look + cutoff).max(initial=0)), iterations=0,
                rounds=rounds))

    # ------------------------------------------------------------------
    # counting

    def _count(self, path: WalkTape, tables: WarpHashTables, bus: EventBus,
               record: WalkTape | None) -> WalkOutput:
        """Look ``path``'s keys up in ``tables`` and count the walk as it
        runs step by step: per step a lookup row (or log entry) and a
        ``SlotAccess`` (if wanted) per probe round, a ``SlotRead`` (if
        wanted) and a step row; overflowed warps in step order. Lookups
        run a stretch of whole steps at a time (a discovered path's keys
        are hashed here: :data:`WALK_STRETCH` lanes, a taped path's all),
        each probe round cut by step in one reduction. A taped path's
        wraps, found lanes and vote rows are checked (``KernelError``);
        ``record``, a lead's empty tape, receives it in recorded form."""
        log, cuts, k, out = self.log, path.cuts, tables.k, path.out
        emit_slots, emit_reads = bus.wants(SlotAccess), bus.wants(SlotRead)
        taped = path.codes is None
        stretch = max(int(cuts[-1]), 1) if taped else WALK_STRETCH
        starts = run_length_sorted(np.searchsorted(cuts[:-1], np.arange(
            0, cuts[-1], stretch), side="right") - 1)[0].tolist()
        windows = None if taped else sliding_window_view(path.codes, k, 1)
        rows, overflowed, kept = [], [], []
        chain = read_at = 0
        for s0, s1 in zip(starts, [*starts[1:], cuts.size - 1]):
            lo, hi = int(cuts[s0]), int(cuts[s1])
            a, local = path.warps[lo:hi], cuts[s0:s1 + 1] - lo
            steps = np.repeat(np.arange(s0, s1), np.diff(local))
            if taped:
                homes, fps = path.homes[lo:hi], path.fps[lo:hi]
            else:   # ``[w, t]``: warp ``w``'s key ``t`` bases on
                keys = windows[a, steps]
                homes, fps = (murmur2_batch(keys, self.seed),
                              fingerprint_matrix(keys))
            # per probe round, cut by step at once: where each step's
            # pending lanes start, and the occupied slots before them
            rounds = []
            slot, missing, wrapped = self._lookup(
                a, homes, fps, tables,
                lambda u, au, occupied, slots, local=local: rounds.append((
                    np.searchsorted(u, local).tolist(), None if log is not None
                    else np.concatenate(([0], np.cumsum(occupied))),
                    au, occupied, slots)))
            found, committed = path.found[lo:hi], steps < out.base_lens[a]
            hit = slot >= 0
            overflowed += [int(a[lane]) for _, _, lane in sorted(
                (steps[lane], r, lane) for r, lanes in enumerate(wrapped)
                for lane in lanes.tolist())]   # by step, then wrap round
            read = np.concatenate(tables.votes_at(slot[hit]), axis=1) \
                if taped or record is not None else None
            if taped:
                want = path.votes[read_at:read_at + read.shape[0]]
                read_at += read.shape[0]
            if taped and (overflowed or not np.array_equal(read, want)) \
                    or not np.array_equal(hit, found) \
                    or not np.array_equal(missing, ~found):
                raise KernelError(_DISAGREE)
            if record is not None:
                kept.append((homes, fps, read))
            for s in range(s1 - s0):
                for at, occ, au, occupied, slots in rounds:
                    u0, u1 = at[s], at[s + 1]
                    if u0 == u1:
                        break   # a step's pending lanes only shrink
                    chain += 1
                    if log is None:
                        rows.append(lookup_row(u1 - u0,
                                               int(occ[u1] - occ[u0])))
                    else:
                        log.append(lookup_entry(au[u0:u1], occupied[u0:u1]))
                    if emit_slots:
                        bus.emit(SlotAccess(slots=slots[u0:u1]))
                a0, a1 = int(local[s]), int(local[s + 1])
                f, c = found[a0:a1], np.flatnonzero(committed[a0:a1])
                if emit_reads and f.any():
                    bus.emit(SlotRead(phase="walk", kind="vote_read",
                                      slots=slot[a0:a1][f],
                                      warps=a[a0:a1][f]))
                if log is None:
                    rows.append(step_row(a1 - a0, int(np.count_nonzero(f)),
                                         c.size))
                else:
                    log.append(walk_entry(a[a0:a1], f, c if c.size else None))
        out = replace(out, iterations=chain, overflowed=tuple(overflowed),
                      rows=rows)
        if record is not None:
            vars(record).update(vars(path), codes=None, out=out, **dict(zip(
                ("homes", "fps", "votes"), map(np.concatenate, zip(*kept)))))
        return out

    def run(self, batch: Batch, tables: WarpHashTables,
            bus: EventBus) -> WalkOutput:
        tape, self.tape = self.tape, None
        if tape is not None and tape.out is not None:
            return replace(self._count(tape, tables, bus, None), rounds=0)
        return self._count(self._discover(batch, tables), tables, bus, tape)

