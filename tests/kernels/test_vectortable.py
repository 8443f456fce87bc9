"""Tests for the vectorized per-warp hash tables."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import HashTableFullError, KernelError
from repro.kernels.vectortable import (SLOT_BYTES, WarpHashTables,
                                       elect_one_per_slot)


def _tables(caps=(8, 16), k=4):
    return WarpHashTables(np.array(caps, dtype=np.int64), k)


class TestElect:
    def test_one_winner_per_slot(self):
        winners = elect_one_per_slot(np.array([5, 5, 5, 9]))
        np.testing.assert_array_equal(winners, [True, False, False, True])

    def test_all_distinct_all_win(self):
        assert elect_one_per_slot(np.array([1, 2, 3])).all()

    def test_empty(self):
        assert elect_one_per_slot(np.array([], dtype=int)).size == 0

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=60))
    def test_property_exactly_one_winner_per_distinct_slot(self, slots):
        arr = np.array(slots)
        winners = elect_one_per_slot(arr)
        assert winners.sum() == len(set(slots))
        for s in set(slots):
            idx = np.nonzero(arr == s)[0]
            assert winners[idx].sum() == 1
            assert winners[idx[0]]  # deterministic: the first lane wins


class TestElectProperty:
    """Against the scalar loop, with the corner cases pinned: empty input,
    one lane, all lanes on one slot, and warps interleaved."""

    @settings(max_examples=60)
    @example([])
    @example([7])
    @example([4, 4, 4, 4])
    @example([1, 1001, 2001, 1, 3001, 1001])
    @given(st.lists(st.integers(0, 3005), max_size=48))
    def test_matches_scalar_reference(self, slots):
        seen = set()
        want = [s not in seen and not seen.add(s) for s in slots]
        np.testing.assert_array_equal(
            elect_one_per_slot(np.array(slots, dtype=np.int64)), want)


class TestLayout:
    def test_offsets(self):
        t = _tables((8, 16, 4))
        np.testing.assert_array_equal(t.offsets, [0, 8, 24, 28])
        assert t.total_slots == 28
        assert t.n_warps == 3

    def test_total_bytes(self):
        assert _tables((10,)).total_bytes == 10 * SLOT_BYTES

    def test_rejects_empty(self):
        with pytest.raises(KernelError):
            WarpHashTables(np.array([], dtype=np.int64), 4)

    def test_rejects_zero_capacity(self):
        with pytest.raises(KernelError):
            _tables((8, 0))

    def test_slot_of_wraps_modulo(self):
        t = _tables((8, 16))
        slots = t.slot_of(np.array([0, 1]), np.array([9, 17]), np.array([0, 0]))
        np.testing.assert_array_equal(slots, [1, 8 + 1])

    def test_slot_of_full_probe_raises(self):
        t = _tables((8,))
        with pytest.raises(HashTableFullError):
            t.slot_of(np.array([0]), np.array([0]), np.array([8]))


class TestOperations:
    def test_claim_and_inspect(self):
        t = _tables((8,))
        winners = t.claim(np.array([3, 3, 5]), np.array([11, 12, 13], dtype=np.uint64))
        np.testing.assert_array_equal(winners, [True, False, True])
        occ, fp = t.inspect(np.array([3, 5, 0]))
        np.testing.assert_array_equal(occ, [True, True, False])
        assert fp[0] == 11 and fp[1] == 13

    def test_vote_accumulates(self):
        t = _tables((8,))
        t.claim(np.array([2]), np.array([9], dtype=np.uint64))
        t.vote(np.array([2, 2, 2]), np.array([0, 0, 3], dtype=np.uint8),
               np.array([True, False, True]))
        hi, lo = t.votes_at(np.array([2]))
        assert hi[0, 0] == 1 and lo[0, 0] == 1 and hi[0, 3] == 1
        assert t.count[2] == 3

    def test_count_is_read_only(self):
        t = _tables((8,))
        with pytest.raises(ValueError, match="read-only"):
            t.count[2] += 1

    def test_never_claimed_slot_reads_zero(self):
        """An empty slot has no vote row of its own: it reads as zeros —
        before any flush, beside voted keys, and when keys claimed after
        the last flush have not been voted on yet."""
        t = _tables((8,))
        everything = np.arange(8)
        assert not np.any(t.votes_at(everything))
        t.claim(np.array([2, 5]), np.array([9, 10], dtype=np.uint64))
        t.vote(np.array([2, 5, 5]), np.array([1, 3, 3], dtype=np.uint8),
               np.array([True, False, False]))
        t.claim(np.array([7]), np.array([11], dtype=np.uint64))
        hi, lo = t.votes_at(everything)
        assert hi[2, 1] == 1 and lo[5, 3] == 2
        assert hi.sum() + lo.sum() == 3  # slots 0, 1, 3, 4, 6 and 7: zeros
        np.testing.assert_array_equal(t.count, [0, 0, 1, 0, 0, 2, 0, 0])

    def test_vote_on_unclaimed_slot_rejected(self):
        """It would land in the row every empty slot reads."""
        t = _tables((8,))
        t.claim(np.array([2]), np.array([9], dtype=np.uint64))
        with pytest.raises(KernelError, match="no lane has claimed"):
            t.vote(np.array([2, 3]), np.array([0, 0], dtype=np.uint8),
                   np.array([True, True]))

    def test_occupancy(self):
        t = _tables((4,))
        assert t.occupancy() == 0.0
        t.claim(np.array([0, 1]), np.array([1, 2], dtype=np.uint64))
        assert t.occupancy() == pytest.approx(0.5)

    def test_keys_per_warp(self):
        t = _tables((4, 4))
        t.claim(np.array([0, 1, 5]), np.array([1, 2, 3], dtype=np.uint64))
        np.testing.assert_array_equal(t.keys_per_warp(), [2, 1])

    @settings(max_examples=20)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=30))
    def test_claims_are_exclusive(self, slots):
        """Property: a slot is claimed exactly once, first claimer wins."""
        t = _tables((8,))
        arr = np.array(slots)
        fps = np.arange(1, len(slots) + 1, dtype=np.uint64)
        winners = t.claim(arr, fps)
        for s in set(slots):
            first = slots.index(s)
            assert winners[first]
            assert t.fp[s] == fps[first]

    @settings(max_examples=60)
    @given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_ascending_claims_skip_the_election(self, n_warps, per_warp,
                                                seed):
        """Warp-grouped claims as construct issues them (warps ascending,
        up to ``per_warp`` lanes each, slots in the warp's range): the
        winners and installed tags equal the stable-sort election's,
        whether every lane is its warp's only claim (no sort) or not."""
        rng = np.random.default_rng(seed)
        caps = rng.integers(1, 6, size=n_warps)
        t = WarpHashTables(caps, 4)
        lanes = rng.integers(1, per_warp + 1, size=n_warps)
        warps = np.repeat(np.arange(n_warps), lanes)
        slots = t.offsets[warps] + rng.integers(0, caps[warps])
        fps = rng.integers(1, 2**63, size=slots.size).astype(np.uint64)
        want = elect_one_per_slot(slots)
        np.testing.assert_array_equal(t.claim(slots, fps), want)
        np.testing.assert_array_equal(t.fp[slots[want]], fps[want])
        if (lanes == 1).all():
            assert want.all()


class PerSlotVotes(WarpHashTables):
    """The vote store the dense per-key one replaced (DESIGN.md decision
    23), kept as its reference: one ``hi_q`` / ``low_q`` / ``count``
    entry per *slot*, filled by ``np.add.at``."""

    def __init__(self, capacities: np.ndarray, k: int) -> None:
        super().__init__(capacities, k)
        self.hi_q = np.zeros((self.total_slots, 4), dtype=np.int32)
        self.low_q = np.zeros((self.total_slots, 4), dtype=np.int32)
        self._count = np.zeros(self.total_slots, dtype=np.int32)

    count = property(lambda self: self._count)

    def vote(self, slots, exts, hi_mask) -> None:
        exts = exts.astype(np.int64)
        np.add.at(self.hi_q, (slots[hi_mask], exts[hi_mask]), 1)
        np.add.at(self.low_q, (slots[~hi_mask], exts[~hi_mask]), 1)
        np.add.at(self._count, slots, 1)

    def votes_at(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.hi_q[slots], self.low_q[slots]


#: One claim or vote call: (is_claim, [(slot, ext, high-quality tier)]).
_CALLS = st.lists(
    st.tuples(st.booleans(),
              st.lists(st.tuples(st.integers(0, 23), st.integers(0, 3),
                                 st.booleans()), max_size=12)),
    min_size=1, max_size=10)


class TestAgainstPerSlotOracle:
    @settings(max_examples=60, deadline=None)
    @given(_CALLS)
    def test_interleaved_claims_and_votes(self, calls):
        """Property: any interleaving of ``claim`` and ``vote`` — duplicate
        (slot, ext, tier) targets, several flushes with claims between
        them, empty votes, a warp (the third) that never claims — reads
        back, slot by slot, like :class:`PerSlotVotes` fed the same
        calls."""
        caps = np.array([8, 16, 4])
        dense, per_slot = WarpHashTables(caps, 4), PerSlotVotes(caps, 4)
        everything = np.arange(caps.sum())
        next_fp = 1
        for is_claim, targets in [(False, [])] + calls:
            slots = np.array([t[0] for t in targets], dtype=np.int64)
            # callers claim slots they saw empty and vote on claimed ones
            keep = dense.occupied[slots] != is_claim
            slots = slots[keep]
            for t in (dense, per_slot):
                if is_claim:
                    t.claim(slots, np.arange(next_fp, next_fp + slots.size,
                                             dtype=np.uint64))
                else:
                    t.vote(slots,
                           np.array([x[1] for x in targets], np.uint8)[keep],
                           np.array([x[2] for x in targets], bool)[keep])
            next_fp += slots.size
            for got, want in zip(dense.votes_at(everything),
                                 per_slot.votes_at(everything)):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(dense.count, per_slot.count)
        np.testing.assert_array_equal(dense.tag[dense.row], per_slot.fp)
        assert dense.keys_per_warp()[2] == 0
        assert dense.votes.shape[0] <= 1 + dense.occupied.sum()

    def test_repeated_flushes_keep_one_row_index_a_slot(self):
        """The first vote, even of nothing, flushes: ``fp`` and ``taken``
        (9 B a slot) go and a slot keeps its 4 B row index, its key's
        tag moving to the row. Later votes count into the same rows, and
        a key claimed between them takes its row and tag at once."""
        t = _tables((8, 4))
        t.claim(np.array([2, 9]), np.array([5, 6], dtype=np.uint64))
        assert t.fp.nbytes + t.taken.nbytes == 12 * 9
        nothing = (np.empty(0, np.int64), np.empty(0, np.uint8),
                   np.empty(0, bool))
        for _ in range(2):
            t.vote(*nothing)
            assert t.fp is None and t.taken is None
            assert t.row.nbytes == 12 * 4 and t.tag.tolist() == [0, 5, 6]
        t.vote(np.array([9, 2, 9]), np.array([1, 0, 1], np.uint8),
               np.array([True, False, True]))
        t.claim(np.array([4]), np.array([7], dtype=np.uint64))
        t.vote(np.array([4, 9]), np.array([3, 1], np.uint8),
               np.array([False, True]))
        t.vote(*nothing)
        np.testing.assert_array_equal(t.count,
                                      [0, 0, 1, 0, 1, 0, 0, 0, 0, 3, 0, 0])
        hi, lo = t.votes_at(np.array([9, 2, 4]))
        assert hi[0, 1] == 3 and lo[1, 0] == 1 and lo[2, 3] == 1
        occupied, fp = t.inspect(np.array([2, 4, 9, 3]))
        assert occupied.tolist() == [True, True, True, False]
        assert fp.tolist() == [5, 7, 6, 0]
        np.testing.assert_array_equal(t.keys_per_warp(), [2, 1])
