"""Tests for the vectorized warp-intrinsic emulations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt.intrinsics import (
    all_sync,
    any_sync,
    ballot_count_sync,
    elect_one_per_slot,
    match_any_sync,
    shfl_sync,
)


class TestMatchAny:
    def test_groups_by_warp_and_value(self):
        warps = np.array([0, 0, 0, 1, 1])
        vals = np.array([7, 7, 8, 7, 7])
        leaders = match_any_sync(warps, vals)
        np.testing.assert_array_equal(leaders, [0, 0, 2, 3, 3])

    def test_same_value_different_warp_not_grouped(self):
        leaders = match_any_sync(np.array([0, 1]), np.array([5, 5]))
        np.testing.assert_array_equal(leaders, [0, 1])

    def test_leader_is_lowest_index(self):
        leaders = match_any_sync(np.array([0, 0, 0]), np.array([3, 9, 3]))
        assert leaders[2] == 0  # lane 2 groups with lane 0, not itself

    def test_empty(self):
        assert match_any_sync(np.array([]), np.array([])).size == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            match_any_sync(np.array([0]), np.array([1, 2]))

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)),
                    min_size=1, max_size=40))
    def test_property_leader_consistency(self, pairs):
        warps = np.array([p[0] for p in pairs])
        vals = np.array([p[1] for p in pairs])
        leaders = match_any_sync(warps, vals)
        for i in range(len(pairs)):
            li = leaders[i]
            # leader shares warp and value, and is the first such lane
            assert warps[li] == warps[i] and vals[li] == vals[i]
            firsts = [j for j in range(len(pairs))
                      if warps[j] == warps[i] and vals[j] == vals[i]]
            assert li == firsts[0]


class TestBallotAll:
    def test_ballot_counts(self):
        counts = ballot_count_sync(np.array([0, 0, 1]),
                                   np.array([True, False, True]), 2)
        np.testing.assert_array_equal(counts, [1, 1])

    def test_all_sync(self):
        ok = all_sync(np.array([0, 0, 1]), np.array([True, True, False]), 2)
        np.testing.assert_array_equal(ok, [True, False])

    def test_all_sync_vacuous_true(self):
        """Warps with no listed lanes report True (hardware: inactive warp)."""
        ok = all_sync(np.array([0]), np.array([True]), 3)
        np.testing.assert_array_equal(ok, [True, True, True])

    def test_any_sync(self):
        hit = any_sync(np.array([0, 0, 1]), np.array([False, True, False]), 3)
        np.testing.assert_array_equal(hit, [True, False, False])

    @pytest.mark.parametrize("fn", [ballot_count_sync, all_sync, any_sync])
    def test_out_of_range_warp_id_names_the_lane(self, fn):
        with pytest.raises(ValueError, match=r"lane 1 names warp 7"):
            fn(np.array([0, 7]), np.array([True, True]), 2)

    @pytest.mark.parametrize("fn", [ballot_count_sync, all_sync, any_sync])
    def test_negative_warp_id_rejected(self, fn):
        with pytest.raises(ValueError, match=r"lane 0 names warp -1"):
            fn(np.array([-1]), np.array([True]), 2)


class TestShuffle:
    def test_broadcast(self):
        got = shfl_sync(np.array([10, 20]), None, np.array([0, 0, 1, 1, 1]))
        np.testing.assert_array_equal(got, [10, 10, 20, 20, 20])


class TestElect:
    def test_one_winner_per_slot(self):
        winners = elect_one_per_slot(np.array([5, 5, 5, 9]))
        assert winners.sum() == 2
        assert winners[0] and winners[3]
        assert not winners[1] and not winners[2]

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
            assert winners[idx[0]]  # deterministic: first wins
