"""The walk phase: one lane per warp mer-walks from the contig-end seed.

Algorithm 2 (scalar telling: :func:`repro.core.reference.reference_walk`)
as one lockstep program across warps, in two passes (DESIGN.md decisions
35 and 36). **Discovery** follows each walker's read along the vote-row
links construct draws, :data:`FOLLOW_BLOCK` rows a round; only a walker
that starts or leaves its read hashes and looks up. **Counting** writes
the tally rows (:mod:`repro.kernels.engine.tally`) from slot geometry:
linear probing never deletes, so a found key costs its row's
:attr:`~repro.kernels.vectortable.WarpHashTables.probes` rounds. A walk
is port-invariant, so the other ports of an input follow a lead's
(:class:`WalkTape`). Evidence (``SlotAccess``, ``SlotRead``; the
sanitizer's test mutants override :meth:`WalkPhase._on_probe_miss`)
comes from the real probe loop. Outputs are held to the scalar telling;
counts and events to ``tests/kernels/walk_pinned.json``.
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
from repro.genomics.dna import decode_matrix
from repro.genomics.kmer import fingerprint_matrix
from repro.hashing.murmur import murmur2_batch
from repro.kernels.engine.events import EventBus, SlotAccess, SlotRead
from repro.kernels.engine.prepare import Batch
from repro.kernels.engine.tally import walk_rows
from repro.kernels.vectortable import FAR_PROBES, WarpHashTables

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

#: Rows one discovery round resolves at most: each holds ~200 B while
#: it runs. Discovery over the 878 warps of the k = 33 grid dataset at
#: scale 0.1 peaks at 1,683 B per warp at ``1 << 12``, counting its 26k
#: lookups at 1,877 (2,048 allowed).
WALK_STRETCH = 1 << 12

#: splitmix64's first four states: the offset of each vote-row word.
_WORD_KEYS = np.arange(1, 5, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def _vote_check(votes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One uint64 per vote row read: its cells in pairs, as four uint64
    words, each offset by its own key and put through splitmix64's
    finaliser (a bijection), xored. Rows that differ anywhere differ
    here but by a 2**-64 chance: no linear relation cancels."""
    z = np.take(votes, rows, axis=0).view(np.uint64) + _WORD_KEYS
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return np.bitwise_xor.reduce(z ^ (z >> np.uint64(31)), axis=1)


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
    #: The tally rows of its launches, in order, launch ``i``'s from
    #: ``ptr[i]`` (:attr:`WalkPhase.warp_base`; ``None``: one launch).
    rows: np.ndarray | list = field(default_factory=list)
    ptr: np.ndarray | None = None
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


@dataclass
class WalkTape:
    """One walk (:attr:`out`) as its lookups, every key found but a
    ``missed`` walker's last. Discovery's tape holds the vote ``rows`` it
    met, as ``(walker * (max_walk_len + 1) + step, row)`` pairs a round
    at a time; a recorded one, which the other ports follow, per found
    lookup the insertion that claimed its key (``ins``: a port finds its
    own row by it) and a ``check`` of the vote row read
    (:func:`_vote_check`). An empty tape given to :meth:`WalkPhase.run`
    records."""

    missed: np.ndarray | None = None
    rows: np.ndarray | None = None
    ins: np.ndarray | None = None
    check: np.ndarray | None = None
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
        #: The next :meth:`run`'s launches, by first fused warp (and their
        #: count; ``None``: one launch), which it takes to cut its rows.
        self.warp_base: np.ndarray | None = None
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
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Probe lanes ``a`` (warp ids) for their keys in lockstep (the
        pending set compacted: late rounds touch only the stragglers);
        ``on_round(slots)`` sees each round's. Returns ``a``-aligned
        ``(found_slot, missing, rounds, ended)``: ``rounds`` probes read,
        the last of them an empty slot where ``ended`` — a missing lane
        that did not end so wrapped a full table."""
        found_slot = np.full(a.size, -1, dtype=np.int64)
        missing = np.zeros(a.size, dtype=bool)
        rounds = np.zeros(a.size, dtype=np.int64)
        ended = np.zeros(a.size, dtype=bool)
        u = np.arange(a.size, dtype=np.int64)
        probe_u = np.zeros(a.size, dtype=np.int64)
        while u.size:
            au = a[u]
            over = probe_u >= tables.capacities[au]
            if over.any():
                missing[u[over]] = True
                u, probe_u, au = u[~over], probe_u[~over], au[~over]
                if not u.size:
                    break
            slots = tables.slot_of(au, homes[u], probe_u)
            occupied, slot_fp = tables.inspect(slots)
            if on_round is not None:
                on_round(slots)
            hit = occupied & (slot_fp == fps[u])
            found_slot[u[hit]] = slots[hit]
            self._on_probe_miss(found_slot, missing, u, ~occupied, slots)
            ended[u[~occupied]] = True
            rounds[u] += 1
            cont = occupied & ~hit
            u, probe_u = u[cont], probe_u[cont] + 1
        return found_slot, missing, rounds, ended

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
        slot = self._lookup(look, murmur2_batch(keys, self.seed),
                            fingerprint_matrix(keys), tables)[0]
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
        walk["trail"].append((look[arrive] * (self.max_walk_len + 1)
                              + lens[look[arrive]], row[arrive]))
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
        # whole rows: ``np.take`` gathers them several times faster
        votes = np.take(tables.votes, rows[cells], axis=0)
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
        seen = (np.arange(1, block + 1) <= stop[:, None]) & (nxt > 0)
        si, sj = np.nonzero(seen)   # the rows moved onto, a step each
        walk["trail"].append((
            (at * (self.max_walk_len + 1) + lens[at])[si] + sj + 1,
            nxt[si, sj]))
        lens[at] += taken
        visited[nxt[seen]] = True
        out = w[leave]
        codes[out, tables.k + lens[out]] = res_bases[ends[leave], j[leave]]
        walk["pending"][out] = True
        stay = stop == block
        walk["row"][at[stay]] = ahead[stay, -1]
        return at[stay], out

    def _discover(self, batch: Batch,
                  tables: WarpHashTables) -> WalkTape:
        """Every walker's bases and terminal state, and the row of each
        key it looked up (``trail``: the tape's ``rows``)."""
        n, k, max_len = batch.n_warps, batch.seeds.shape[1], self.max_walk_len
        codes = np.zeros((n, k + max_len), dtype=np.uint8)
        codes[:, :k] = batch.seeds
        walk = {name: np.zeros(n, dtype=dtype) for name, dtype in (
            ("lens", np.int64), ("missed", bool), ("pending", bool),
            ("row", np.int64))}
        walk.update(codes=codes, keys=sliding_window_view(codes, k, 1),
                    state=np.full(n, _MISSING, dtype=np.int8),
                    visited=np.zeros(tables.votes.shape[0], dtype=bool),
                    trail=[])
        lens, state = walk["lens"], walk["state"]
        look = np.flatnonzero(batch.seed_valid)
        at = look[:0]
        rounds = 0
        while look.size or at.size:
            rounds += 1
            at = np.concatenate([at, self._arrive(look, walk, tables)])
            at, look = self._follow_reads(at, walk, tables)
        # a walker takes a step past its last base: a lookup, or the cutoff
        return WalkTape(walk["missed"], walk["trail"], out=WalkOutput(
            base_codes=codes[:, k:], base_lens=lens, state_codes=state,
            steps=int((lens + 1)[batch.seed_valid].max(initial=0)),
            iterations=0, rounds=rounds))

    # ------------------------------------------------------------------
    # counting

    def _probe(self, batch: Batch, out: WalkOutput, lanes: np.ndarray,
               lane_s: np.ndarray, walker: np.ndarray,
               tables: WarpHashTables, bus: EventBus, rounds: np.ndarray,
               ended: np.ndarray) -> np.ndarray:
        """Real lookups of ``lanes``, filling their ``rounds`` / ``ended``:
        their found slots (-1: missing). A step at a time where
        ``SlotAccess`` (each probe round's) or ``SlotRead`` (the found
        slots) is wanted, as the walk made them."""
        slot = np.empty(lanes.size, dtype=np.int64)
        access, read = bus.wants(SlotAccess), bus.wants(SlotRead)
        on_round = (lambda at: bus.emit(SlotAccess(slots=at))) if access \
            else None
        steps, a = lane_s[lanes], walker[lanes]
        keys = sliding_window_view(np.concatenate(  # ``[w, s]``: step s's
            [batch.seeds, out.base_codes], axis=1), tables.k, 1)
        for at in (np.flatnonzero(steps == s) for s in range(
                int(steps.max(initial=-1)) + 1)) if access or read \
                else [slice(None)]:
            key = keys[a[at], steps[at]]
            slot[at], _, rounds[lanes[at]], ended[lanes[at]] = self._lookup(
                a[at], murmur2_batch(key, self.seed), fingerprint_matrix(key),
                tables, on_round)
            hit = slot[at] >= 0
            if read and hit.any():
                bus.emit(SlotRead(phase="walk", kind="vote_read",
                                  slots=slot[at][hit], warps=a[at][hit]))
        return slot

    def _count(self, batch: Batch, path: WalkTape, tables: WarpHashTables,
               bus: EventBus, record: WalkTape | None) -> WalkOutput:
        """Count ``path``'s lookups in ``tables``, lane ``start[w] + s``
        warp ``w``'s step ``s``: a found key by its row's ``probes``; a
        missing or too far one — every one, where evidence is wanted or
        rounds went unrecorded — by :meth:`_probe`. A follower finds its
        rows by the lead's ``ins`` and raises ``KernelError`` on any
        disagreement. ``record``, a lead's empty tape, receives the path
        in recorded form."""
        out, n = path.out, batch.n_warps
        base, self.warp_base = self.warp_base, None
        # a walker looks a key up on every step but the length cap's
        n_look = np.where(batch.seed_valid,
                          out.base_lens + (out.state_codes != _MAX_LEN), 0)
        start = np.concatenate(([0], np.cumsum(n_look)))
        # lane arrays in 32 bits: a walk holds them all at once
        lane_w = np.repeat(np.arange(n, dtype=np.int32), n_look)
        lane_s = np.arange(start[-1], dtype=np.int32) - np.repeat(
            start[:-1].astype(np.int32), n_look)
        # every lookup finds its key and commits a base, but a walker's
        # last (that missed, or ended it short of the length cap)
        last = start[1:] - 1
        found, committed = np.ones((2, lane_w.size), dtype=bool)
        found[last[path.missed]] = False
        committed[last[(n_look > 0) & (out.state_codes != _MAX_LEN)]] = False
        rounds = np.zeros(lane_w.size, dtype=np.int32)
        ended = np.zeros(lane_w.size, dtype=bool)
        follower = path.rows is None
        real = (bus.wants(SlotAccess) or bus.wants(SlotRead)
                or tables.probes is None)
        if not real and follower:   # the rows of the taped insertions
            owner = np.zeros(tables.inserted + 1, dtype=np.int32)
            owner[tables.first] = np.arange(1, tables.first.size + 1,
                                            dtype=np.int32)
            rows = owner[np.minimum(path.ins, tables.inserted)]
            if (rows == 0).any():
                raise KernelError(_DISAGREE)
        elif not real:      # discovery's: (walker * stride + step, row)s
            rows, trail = np.zeros(lane_w.size, tables.row.dtype), path.rows
            while trail:
                at, row = trail.pop()
                rows[start[at // (self.max_walk_len + 1)]
                     + at % (self.max_walk_len + 1)] = row
            rows = rows[found]
        if not real:
            rounds[found] = tables.probes[rows - 1]
        # the missing keys, and found ones too far to have kept their
        # rounds, probe for real
        lanes = np.flatnonzero(real | ~found | (rounds == FAR_PROBES))
        slot = self._probe(batch, out, lanes, lane_s, lane_w, tables, bus,
                           rounds, ended)
        if real:
            rows = tables.row[slot[found]]
        wrapped = np.flatnonzero(~found & ~ended)
        if not np.array_equal(slot >= 0, found[lanes]) or follower and (
                wrapped.size or not np.array_equal(
                    _vote_check(tables.votes, rows), path.check)):
            raise KernelError(_DISAGREE)
        w = lane_w[wrapped]     # by step, then wrap round, then warp
        overflowed = w[np.lexsort((w, tables.capacities[w],
                                   lane_s[wrapped]))].tolist()
        depth = int(n_look.max(initial=0))
        group = lane_s if base is None else lane_s + (depth * (np.searchsorted(
            base, np.arange(n), side="right") - 1)).astype(np.int32)[lane_w]
        rows_out, ptr, chain = walk_rows(
            group, 1 if base is None else base.size - 1, depth, rounds,
            ended, found, committed)
        out = replace(out, iterations=chain, overflowed=tuple(overflowed),
                      rows=rows_out, ptr=ptr)
        if record is not None:
            vars(record).update(missed=path.missed, ins=tables.first[rows - 1],
                                out=out, check=_vote_check(tables.votes, rows))
        return out

    def run(self, batch: Batch, tables: WarpHashTables,
            bus: EventBus) -> WalkOutput:
        tape, self.tape = self.tape, None
        if tape is not None and tape.out is not None:
            return replace(self._count(batch, tape, tables, bus, None),
                           rounds=0)
        return self._count(batch, self._discover(batch, tables), tables,
                           bus, tape)
