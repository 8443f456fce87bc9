"""Vectorized per-warp hash tables (the device-memory ``loc_ht`` arrays).

Every warp of a launch owns one open-addressing table; all tables live in
flat structure-of-arrays storage so that one NumPy operation services a
probe iteration across *every* pending lane of *every* warp (DESIGN.md
decision #1: the hot loop is over probe iterations, never over lanes).

Keys are identified by 64-bit fingerprints (see
:mod:`repro.genomics.kmer`); byte-level key comparison cost is still
charged by the memory model, the fingerprint only replaces *storage* of
the key bytes, like the GPU struct's ``start_ptr`` indirection.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HashTableFullError, KernelError
from repro.genomics.kmer import is_shift

#: Bytes of the slot struct read by a probe (key tag: ptr + length).
SLOT_TAG_BYTES = 16

#: Bytes of the vote/value region written by an insertion
#: (hi_q_exts + low_q_exts + ext + count, as in the GPU struct).
SLOT_VALUE_BYTES = 16

#: Full slot footprint in device memory.
SLOT_BYTES = SLOT_TAG_BYTES + SLOT_VALUE_BYTES


#: Targets :meth:`WarpHashTables.vote` counts per ``bincount``. Counting
#: a whole flush at once holds the int64 cast of every cell index and
#: 64 B of counts per claimed key. Measured on ``deep_multik``'s k = 21
#: flush (seed 7: 1,188,864 targets, 287,783 keys, 2,094,592 slots),
#: min of 5, time / bytes held beyond the vote matrix: whole 23.7 ms /
#: 35.0 MB; ``1 << 19`` 18.6 / 24.9; ``1 << 17`` 17.3 / 8.2; ``1 << 15``
#: 16.7 / 4.0; ``1 << 14`` 17.6 / 3.2 (what is left is the fresh rows'
#: slot list); ``np.add.at`` over the whole flush 77.8 ms / 8.3 MB.
VOTE_STRETCH = 1 << 15


#: Probe rounds a row keeps at most (a byte): the walk probes for real.
FAR_PROBES = 255


def _row_dtype(total_slots: int) -> type:
    """int32 while every vote cell index ``row * 8 + column`` fits."""
    narrow = (total_slots + 1) * 8 <= np.iinfo(np.int32).max
    return np.int32 if narrow else np.int64


class WarpHashTables:
    """All per-warp tables of one launch, in two forms (DESIGN.md decision 40).

    While construct claims, a slot holds the index, into ``keys`` (the
    launch's insertion fingerprints), of the insertion that claimed it
    (``claimer``; -1: empty). The first :meth:`vote` flushes them: each
    key gets a row of the ``votes`` matrix (column = tier * 4 + ext, tier
    1 = high quality), named by ``row[slot]``, and its tag ``tag[row]``.
    Row 0, all-zero, is every slot's without a key (all, till the flush).

    Args:
        capacities: per-warp slot counts (int array, one per warp).
        k: key length in bases.
    """

    #: Row ``r``'s key, at ``r - 1``, as the flush numbers it: its
    #: lookup's probe rounds, at most :data:`FAR_PROBES` (``None``: no
    #: construct recorded them) and the insertion, of ``inserted``, that
    #: claimed it (empty where construct did not record claims).
    probes: np.ndarray | None = None
    first: np.ndarray | None = None
    inserted = 0

    def __init__(self, capacities: np.ndarray, k: int) -> None:
        capacities = np.asarray(capacities, dtype=np.int64)
        if capacities.ndim != 1 or capacities.size == 0:
            raise KernelError("capacities must be a non-empty 1-D array")
        if (capacities <= 0).any():
            raise KernelError("all table capacities must be positive")
        self.capacities = capacities
        self.k = int(k)
        self.offsets = np.zeros(capacities.size + 1, dtype=np.int64)
        np.cumsum(capacities, out=self.offsets[1:])
        total = int(self.offsets[-1])
        self.keys = np.empty(0, np.uint64)     # construct binds its batch's
        # renumbered in place into ``row`` by the flush
        self.claimer = np.full(total, -1, dtype=_row_dtype(total))
        self._rows(np.broadcast_to(_row_dtype(total)(0), total),  # no bytes
                   np.zeros(1, dtype=np.uint64))

    @classmethod
    def reserve(cls, slots: int, k: int) -> "WarpHashTables":
        """Flushed tables of no warp yet, with room for ``slots`` slots.

        Finished launches move in one behind the other (:meth:`absorb`)
        so that one walk can cover them all. Deliberately not an
        ``__init__``: every slot is allocated, and counted, by the launch
        that constructs it. ``row`` views the slots moved in.
        """
        self = cls.__new__(cls)
        self.k = int(k)
        self.capacities = np.empty(0, dtype=np.int64)
        self.offsets = np.zeros(1, dtype=np.int64)
        self._room = np.empty(slots, dtype=_row_dtype(slots))
        self.claimer = self.keys = None
        self._rows(self._room[:0], np.zeros(1, dtype=np.uint64))
        self.probes, self.first = np.empty(0, np.uint8), np.empty(0, np.int32)
        return self

    def absorb(self, other: "WarpHashTables") -> None:
        """Append flushed ``other``'s warps, copying its slots into the
        room; its rows and insertions are renumbered behind the ones held
        (row 0 stays the shared sentinel). ``other`` is left as it was:
        once the caller drops it, no slot is stored twice."""
        lo, hi = self.total_slots, self.total_slots + other.total_slots
        if hi > self._room.size:
            raise KernelError(
                f"{other.total_slots} slots do not fit the "
                f"{self._room.size - lo} left of the reserved room")
        self.row = self._room[:hi]
        row = self.row[lo:]
        np.add(other.row, self.votes.shape[0] - 1, out=row, casting="unsafe")
        row *= other.row > 0    # a slot without a row keeps the sentinel
        link = other.link[1:].astype(self.link.dtype)
        link[link > 0] += (self.votes.shape[0] - 1) << 2
        self.link = np.concatenate([self.link, link])
        self.tag = np.concatenate([self.tag, other.tag[1:]])
        self.votes = np.concatenate([self.votes, other.votes[1:]])
        self.probes = np.concatenate([self.probes, other.probes])
        self.first = np.concatenate([self.first, other.first + self.inserted])
        self.inserted += other.inserted
        self.capacities = np.concatenate([self.capacities, other.capacities])
        self.offsets = np.concatenate([self.offsets, other.offsets[1:] + lo])

    def _rows(self, row: np.ndarray, tag: np.ndarray) -> None:
        """``row`` per slot, ``tag`` per row; zeroed votes and links."""
        self.row, self.tag = row, tag
        self.votes = np.zeros((tag.size, 8), dtype=np.int32)
        self.link = np.zeros(tag.size, dtype=row.dtype)

    @property
    def n_warps(self) -> int:
        return self.capacities.size

    @property
    def total_slots(self) -> int:
        return int(self.offsets[-1])

    @property
    def total_bytes(self) -> int:
        """Device-memory footprint of all tables (cold-miss floor)."""
        return self.total_slots * SLOT_BYTES

    def slot_of(self, warps: np.ndarray, homes: np.ndarray,
                probes: np.ndarray) -> np.ndarray:
        """Global slot index for (warp, home hash, probe offset) triples."""
        caps = self.capacities[warps]
        wrapped = np.asarray(probes) >= caps
        if wrapped.any():
            j = int(np.argmax(wrapped))
            raise HashTableFullError(
                "probe offset wrapped a full table",
                capacity=int(np.ravel(caps)[j]),
                probes=int(np.ravel(probes)[j]),
            )
        return self.offsets[warps] + (homes.astype(np.int64) + probes) % caps

    @property
    def occupied(self) -> np.ndarray:
        """Whether each slot holds a key (read-only)."""
        out = self.row > 0 if self.claimer is None else self.claimer >= 0
        out.flags.writeable = False
        return out

    def inspect(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Read (occupied, fingerprint) for each slot — one probe load."""
        if self.claimer is None:    # flushed: a key's tag is its row's
            row = self.row[slots]
            return row > 0, self.tag[row]
        # ``take`` reads an empty slot's -1 as the last key: meaningless
        claimer = self.claimer[slots]
        return claimer >= 0, self.keys.take(claimer)

    def claim(self, slots: np.ndarray, ins: np.ndarray) -> np.ndarray:
        """atomicCAS claim of empty slots by insertions ``ins`` (indices
        into ``keys``); returns the winner mask.

        Callers pass only slots observed empty this iteration, ``ins``
        ascending in lane order. The slot word referees, as on the
        device: the slots take a sentinel above every insertion, each
        lane scatters its insertion with ``minimum.at``, and a lane won
        if the slot holds its own — per distinct slot, the first lane.
        Claims end at the flush.
        """
        if self.claimer is None:
            raise KernelError("a claim after the vote flush")
        claimer = self.claimer
        # in the table's dtype: a wider ``ins`` drops ``at``'s fast path
        ins = ins.astype(claimer.dtype, copy=False)
        claimer[slots] = np.iinfo(claimer.dtype).max
        np.minimum.at(claimer, slots, ins)
        return claimer[slots] == ins

    def vote(self, slots: np.ndarray, exts: np.ndarray, hi_mask: np.ndarray) -> None:
        """Atomic vote accumulation (atomicAdd on the value region). The
        first call, even of nothing, flushes: keys get rows in slot order,
        their claimers as ``first`` and the claimers' fingerprints as tags,
        ``keys`` is dropped, and ``claimer`` is renumbered in place into
        ``row``.

        The targets are counted a stretch (:data:`VOTE_STRETCH`) at a
        time: one ``bincount`` over the stretch's cell indices ``row * 8
        + tier * 4 + ext``, taken from the lowest, counts duplicate
        targets and is added into the window of ``votes`` the stretch
        spans (integer addition is order-free). Whatever the order of
        the targets the totals are the same; grouped by warp, as
        construct's flush arrives, a window is a sliver of the matrix. A
        vote on an unclaimed slot raises with the earlier stretches
        already counted.
        """
        if self.claimer is not None:
            row, self.claimer = self.claimer, None
            at = np.flatnonzero(row >= 0)
            self.first = row[at]
            tag = np.zeros(at.size + 1, dtype=np.uint64)
            # "clip" writes ``out`` unbuffered; every index is a key's
            self.keys.take(self.first, out=tag[1:], mode="clip")
            self.keys = None
            row[at] = np.arange(1, at.size + 1, dtype=row.dtype)
            del at
            np.maximum(row, 0, out=row)
            self._rows(row, tag)
        cells = self.votes.reshape(-1)
        for lo in range(0, slots.size, VOTE_STRETCH):
            hi = lo + VOTE_STRETCH
            cell = self.row[slots[lo:hi]]
            cell <<= 3
            cell += hi_mask[lo:hi] * np.uint8(4) + exts[lo:hi]
            base = int(cell.min())
            if base < 8:
                raise KernelError("vote on a slot no lane has claimed")
            cell -= base
            add = np.bincount(cell)
            window = cells[base:base + add.size]
            np.add(window, add, out=window, casting="unsafe")

    def link_reads(self, slots: np.ndarray, exts: np.ndarray,
                   ends: np.ndarray) -> None:
        """Set each row's :attr:`link`: of consecutive insertions (``slots``,
        ``exts``; ``ends``: positions ending their reads) the last on it,
        ``i``, not ending its read links it to ``row(i + 1) << 2 |
        exts[i]`` if the two rows' keys slide that way (so whichever read
        a walk came by); else 0."""
        link = np.zeros(len(self.votes), dtype=self.link.dtype)
        for lo in range(0, slots.size, VOTE_STRETCH):
            rows = self.row[slots[lo:lo + VOTE_STRETCH + 1]]
            src = rows[:-1].copy()
            at = np.searchsorted(ends, [lo, lo + src.size])
            src[ends[at[0]:at[1]] - lo] = 0     # row 0 links nowhere
            nxt = rows[1:].astype(link.dtype)
            nxt <<= 2
            nxt |= exts[lo:lo + src.size]
            link[src] = nxt     # the last insertion on a row wins
        link[0] = 0
        for lo in range(0, link.size, VOTE_STRETCH):
            part = link[lo:lo + VOTE_STRETCH]
            part *= is_shift(self.tag[lo:lo + part.size], self.tag[part >> 2],
                             (part & 3).astype(np.uint8), self.k)
        self.link = link

    def votes_at(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather (hi_q, low_q) count rows for walk-step resolution."""
        rows = self.votes[self.row[slots]]
        return rows[:, 4:], rows[:, :4]

    @property
    def count(self) -> np.ndarray:
        """Votes received per slot: row sums mapped back (read-only)."""
        out = self.votes.sum(axis=1)[self.row]
        out.flags.writeable = False
        return out

    def occupancy(self) -> float:
        """Fraction of slots holding a key (post-construction check)."""
        return float(self.occupied.mean()) if self.total_slots else 0.0

    def keys_per_warp(self) -> np.ndarray:
        """Distinct keys stored per warp (for invariant tests)."""
        return np.add.reduceat(self.occupied, self.offsets[:-1], dtype=np.int64)
