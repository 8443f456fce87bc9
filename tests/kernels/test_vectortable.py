"""Tests for the vectorized per-warp hash tables."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import HashTableFullError, KernelError
from repro.kernels.vectortable import SLOT_BYTES, WarpHashTables


def elect_one_per_slot(slot_ids: np.ndarray) -> np.ndarray:
    """The ``atomicCAS`` election :meth:`WarpHashTables.claim` must hold
    to, by a stable sort: of the lanes claiming one slot id, the first in
    lane order wins. Returns a boolean winner mask."""
    slot_ids = np.asarray(slot_ids)
    order = np.argsort(slot_ids, kind="stable")
    sorted_slots = slot_ids[order]
    first = np.ones(slot_ids.size, dtype=bool)
    first[1:] = sorted_slots[1:] != sorted_slots[:-1]
    winners = np.empty(slot_ids.size, dtype=bool)
    winners[order] = first
    return winners


def _tables(caps=(8, 16), k=4, keys=()):
    """Tables whose claims index ``keys`` (fingerprints), bound as
    construct binds its batch's."""
    t = WarpHashTables(np.array(caps, dtype=np.int64), k)
    t.keys = np.array(keys, dtype=np.uint64)
    return t


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


class TestClaimAgainstReference:
    """``claim``'s scatter-min election against the stable-sort one."""

    @settings(max_examples=80, deadline=None)
    @example([], np.int64)
    @example([5] * 32, np.int64)        # every lane on one slot
    @example(list(range(31, -1, -1)), np.int64)     # all distinct
    @example([3, 9, 3, 0, 9, 3], np.int64)
    @example([3, 9, 3, 0, 9, 3], np.int32)
    @given(st.lists(st.integers(0, 39), max_size=64),
           st.sampled_from([np.int64, np.int32]))
    def test_winners_and_claimers_match_the_sort(self, slots, ins_dtype):
        """Property: for a multiset of slots claimed by ascending
        insertions (int64 ones too, into the int32 table), the winner
        mask is the reference's, each winner's slot holds its insertion
        and every other slot stays empty."""
        slots = np.array(slots, dtype=np.int64)
        t = _tables((8, 32), keys=np.arange(1, slots.size + 1))
        assert t.claimer.dtype == np.int32
        ins = np.arange(slots.size, dtype=ins_dtype)
        want = elect_one_per_slot(slots)
        np.testing.assert_array_equal(t.claim(slots, ins), want)
        claimer = np.full(t.total_slots, -1)
        claimer[slots[want]] = ins[want]
        np.testing.assert_array_equal(t.claimer, claimer)


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
        """A slot holds its claimer; ``inspect`` reads the key through it."""
        t = _tables((8,), keys=[11, 12, 13])
        winners = t.claim(np.array([3, 3, 5]), np.arange(3))
        np.testing.assert_array_equal(winners, [True, False, True])
        assert t.claimer[[3, 5, 0]].tolist() == [0, 2, -1]
        occ, fp = t.inspect(np.array([3, 5, 0]))
        np.testing.assert_array_equal(occ, [True, True, False])
        assert fp[0] == 11 and fp[1] == 13

    def test_vote_accumulates(self):
        t = _tables((8,), keys=[9])
        t.claim(np.array([2]), np.array([0]))
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
        before any flush, and beside voted keys; so does a key claimed
        but never voted on."""
        t = _tables((8,), keys=[9, 10, 11])
        everything = np.arange(8)
        assert not np.any(t.votes_at(everything))
        t.claim(np.array([2, 5, 7]), np.arange(3))
        assert not np.any(t.votes_at(everything))
        t.vote(np.array([2, 5, 5]), np.array([1, 3, 3], dtype=np.uint8),
               np.array([True, False, False]))
        hi, lo = t.votes_at(everything)
        assert hi[2, 1] == 1 and lo[5, 3] == 2
        assert hi.sum() + lo.sum() == 3  # slots 0, 1, 3, 4, 6 and 7: zeros
        np.testing.assert_array_equal(t.count, [0, 0, 1, 0, 0, 2, 0, 0])

    def test_vote_on_unclaimed_slot_rejected(self):
        """It would land in the row every empty slot reads."""
        t = _tables((8,), keys=[9])
        t.claim(np.array([2]), np.array([0]))
        with pytest.raises(KernelError, match="no lane has claimed"):
            t.vote(np.array([2, 3]), np.array([0, 0], dtype=np.uint8),
                   np.array([True, True]))

    def test_occupancy(self):
        t = _tables((4,), keys=[1, 2])
        assert t.occupancy() == 0.0
        t.claim(np.array([0, 1]), np.arange(2))
        assert t.occupancy() == pytest.approx(0.5)

    def test_keys_per_warp(self):
        t = _tables((4, 4), keys=[1, 2, 3])
        t.claim(np.array([0, 1, 5]), np.arange(3))
        np.testing.assert_array_equal(t.keys_per_warp(), [2, 1])

    @settings(max_examples=20)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=30))
    def test_claims_are_exclusive(self, slots):
        """Property: a slot is claimed exactly once, first claimer wins."""
        fps = np.arange(1, len(slots) + 1, dtype=np.uint64)
        t = _tables((8,), keys=fps)
        winners = t.claim(np.array(slots), np.arange(len(slots)))
        for s in set(slots):
            first = slots.index(s)
            assert winners[first]
            assert t.claimer[s] == first
            assert t.inspect(np.array([s]))[1][0] == fps[first]

    @settings(max_examples=60)
    @given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_ascending_claims_skip_the_election(self, n_warps, per_warp,
                                                seed):
        """Warp-grouped claims as construct issues them (warps ascending,
        up to ``per_warp`` lanes each, slots in the warp's range): the
        winners and installed tags equal the stable-sort election's,
        whether every lane is its warp's only claim or not."""
        rng = np.random.default_rng(seed)
        caps = rng.integers(1, 6, size=n_warps)
        lanes = rng.integers(1, per_warp + 1, size=n_warps)
        warps = np.repeat(np.arange(n_warps), lanes)
        fps = rng.integers(1, 2**63, size=warps.size).astype(np.uint64)
        t = _tables(caps, keys=fps)
        slots = t.offsets[warps] + rng.integers(0, caps[warps])
        want = elect_one_per_slot(slots)
        np.testing.assert_array_equal(t.claim(slots, np.arange(slots.size)),
                                      want)
        np.testing.assert_array_equal(t.inspect(slots[want])[1], fps[want])
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
    def test_claims_then_votes(self, calls):
        """Property: the drawn ``claim`` calls, then a flush, then the
        ``vote`` calls — duplicate (slot, ext, tier) targets, several
        votes after the flush, empty votes, a warp (the third) that never
        claims — read back, slot by slot, like :class:`PerSlotVotes` fed
        the same calls; a claim after the flush raises."""
        caps = np.array([8, 16, 4])
        keys = np.arange(1, 2 + sum(len(t) for _, t in calls),
                         dtype=np.uint64)
        dense, per_slot = WarpHashTables(caps, 4), PerSlotVotes(caps, 4)
        dense.keys = per_slot.keys = keys
        everything = np.arange(caps.sum())
        next_ins = 0
        claims = [call for call in calls if call[0]]
        votes = [call for call in calls if not call[0]]
        for is_claim, targets in claims + [(False, [])] + votes:
            slots = np.array([t[0] for t in targets], dtype=np.int64)
            # callers claim slots they saw empty and vote on claimed ones
            keep = dense.occupied[slots] != is_claim
            slots = slots[keep]
            for t in (dense, per_slot):
                if is_claim:
                    t.claim(slots, np.arange(next_ins, next_ins + slots.size))
                else:
                    t.vote(slots,
                           np.array([x[1] for x in targets], np.uint8)[keep],
                           np.array([x[2] for x in targets], bool)[keep])
            next_ins += slots.size
            for got, want in zip(dense.votes_at(everything),
                                 per_slot.votes_at(everything)):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(dense.count, per_slot.count)
        occupied, fp = per_slot.inspect(everything)
        np.testing.assert_array_equal(dense.tag[dense.row],
                                      np.where(occupied, fp, 0))
        assert dense.keys_per_warp()[2] == 0
        assert dense.votes.shape[0] <= 1 + dense.occupied.sum()
        with pytest.raises(KernelError, match="after the vote flush"):
            dense.claim(np.array([3]), np.array([0]))

    def test_repeated_flushes_keep_one_row_index_a_slot(self):
        """The first vote, even of nothing, flushes: the claimers (4 B a
        slot) are renumbered in place into rows in slot order, the keys'
        fingerprints move to the rows' tags and ``keys`` is dropped. Later
        votes count into the same rows; a claim after the flush raises."""
        t = _tables((8, 4), keys=[5, 6, 7])
        t.claim(np.array([2, 9, 4]), np.arange(3))
        claimer = t.claimer
        assert claimer.nbytes == 12 * 4
        nothing = (np.empty(0, np.int64), np.empty(0, np.uint8),
                   np.empty(0, bool))
        for _ in range(2):
            t.vote(*nothing)
            assert t.claimer is None and t.keys is None
            assert t.row is claimer and t.tag.tolist() == [0, 5, 7, 6]
        assert t.row.tolist() == [0, 0, 1, 0, 2, 0, 0, 0, 0, 3, 0, 0]
        assert t.first.tolist() == [0, 2, 1]
        with pytest.raises(KernelError, match="after the vote flush"):
            t.claim(np.array([6]), np.array([0]))
        t.vote(np.array([9, 2, 9]), np.array([1, 0, 1], np.uint8),
               np.array([True, False, True]))
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


#: Claim rounds: per round, its lanes' (slot, key) with keys from a small
#: set, so lanes of one round collide on slots and on keys.
_ROUNDS = st.lists(st.lists(st.tuples(st.integers(0, 27), st.integers(0, 4)),
                            max_size=16), min_size=1, max_size=8)


class TestClaimerAgainstDict:
    @settings(max_examples=80, deadline=None)
    @example([[]])
    @example([[(3, 1), (3, 2), (3, 1)], [(3, 2), (0, 0)]])
    @given(_ROUNDS)
    def test_claimers_read_through_to_their_keys(self, rounds):
        """Property: claim rounds into claiming-form tables, each lane an
        insertion and its slot observed empty, against a dict reference
        ``slot -> claiming insertion``. After every round ``inspect``
        reads each claimed slot's claimer's fingerprint, and a round's
        losers read their winner's key (what CUDA's merge compares). The
        flush numbers rows in slot order with those fingerprints as tags,
        and ``first[row - 1]`` is the claiming insertion."""
        lanes = [lane for lanes in rounds for lane in lanes]
        keys = np.array([1 + 10 * key for _, key in lanes] + [0], np.uint64)
        t = _tables((8, 16, 4), keys=keys)
        everything = np.arange(t.total_slots)
        claimed: dict[int, int] = {}
        ins = 0
        for lanes in rounds:
            at = np.arange(ins, ins + len(lanes))
            ins += len(lanes)
            slots = np.array([slot for slot, _ in lanes], dtype=np.int64)
            empty = np.array([slot not in claimed for slot in slots.tolist()],
                             dtype=bool)
            slots, at = slots[empty], at[empty]
            winners = t.claim(slots, at)
            for slot, i, won in zip(slots.tolist(), at.tolist(), winners):
                assert won == (slot not in claimed)
                claimed.setdefault(slot, i)
            losers = slots[~winners]
            np.testing.assert_array_equal(
                t.inspect(losers)[1],
                keys[[claimed[slot] for slot in losers.tolist()]])
            occupied, fp = t.inspect(everything)
            assert np.flatnonzero(occupied).tolist() == sorted(claimed)
            assert fp[occupied].tolist() == [
                int(keys[claimed[slot]]) for slot in sorted(claimed)]
        t.vote(np.empty(0, np.int64), np.empty(0, np.uint8),
               np.empty(0, bool))
        order = sorted(claimed)
        assert t.row[order].tolist() == list(range(1, len(order) + 1))
        assert t.tag[1:].tolist() == [int(keys[claimed[s]]) for s in order]
        assert t.first[t.row[order] - 1].tolist() == [
            claimed[s] for s in order]
        assert t.row.sum() == sum(range(len(order) + 1))
