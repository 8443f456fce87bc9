"""Vectorized emulations of the warp intrinsics the kernels use.

The paper's Appendix A shows three atomic-insert protocols built from
``atomicCAS``, ``__match_any_sync`` + ``__syncwarp(mask)`` (CUDA),
``__all`` + a done flag (HIP), and a sub-group barrier (SYCL). The
functions here provide those primitives over *flat lane arrays*: each
element of the input arrays is one active lane, identified by its warp id
— the layout all the SIMT kernels use, so one NumPy call emulates the
intrinsic across every warp of the launch simultaneously.

Per-warp reductions (:func:`ballot_count_sync`, :func:`all_sync`,
:func:`any_sync`) validate their ``warp_ids`` against ``n_warps`` and
raise a :class:`ValueError` naming the offending lane, instead of the
opaque NumPy ``IndexError`` an out-of-range id used to produce.
"""

from __future__ import annotations

import numpy as np


def _checked_warp_ids(warp_ids: np.ndarray, n_warps: int,
                      intrinsic: str) -> np.ndarray:
    """Validate per-lane warp ids against the warp count of the launch."""
    if n_warps < 0:
        raise ValueError(f"{intrinsic}: n_warps must be >= 0, got {n_warps}")
    ids = np.asarray(warp_ids)
    if ids.size:
        bad = (ids < 0) | (ids >= n_warps)
        if bad.any():
            lane = int(np.argmax(bad))
            raise ValueError(
                f"{intrinsic}: lane {lane} names warp {int(ids[lane])}, "
                f"outside the launch's [0, {n_warps}) warp range"
            )
    return ids


def match_any_sync(warp_ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``__match_any_sync``: group active lanes of a warp by equal value.

    Returns, for every lane, the index (into the input arrays) of the
    *leader* of its (warp, value) group — the lowest-indexed lane with the
    same value in the same warp. Lanes whose returned leader is their own
    index are group leaders.
    """
    warp_ids = np.asarray(warp_ids)
    values = np.asarray(values)
    if warp_ids.shape != values.shape:
        raise ValueError("warp_ids and values must have identical shapes")
    n = warp_ids.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((np.arange(n), values, warp_ids))
    sw, sv = warp_ids[order], values[order]
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = (sw[1:] != sw[:-1]) | (sv[1:] != sv[:-1])
    # leader (original index) of each sorted group, propagated along the run
    group_idx = np.cumsum(new_group) - 1
    leaders_by_group = order[new_group]
    leaders = np.empty(n, dtype=np.int64)
    leaders[order] = leaders_by_group[group_idx]
    return leaders


def ballot_count_sync(warp_ids: np.ndarray, predicate: np.ndarray,
                      n_warps: int) -> np.ndarray:
    """Per-warp count of lanes with a true predicate.

    This is ``__popc(__ballot_sync(...))`` — the count of set ballot
    bits, not the lane-bit mask itself. (The flat-lane layout has no
    fixed lane positions, so a bitmask would be meaningless here; every
    kernel use of the ballot is a popcount anyway.)
    """
    ids = _checked_warp_ids(warp_ids, n_warps, "ballot_count_sync")
    counts = np.zeros(n_warps, dtype=np.int64)
    np.add.at(counts, ids[np.asarray(predicate, dtype=bool)], 1)
    return counts


def all_sync(warp_ids: np.ndarray, predicate: np.ndarray,
             n_warps: int) -> np.ndarray:
    """``__all``: per-warp AND of the predicate over the listed lanes."""
    ids = _checked_warp_ids(warp_ids, n_warps, "all_sync")
    ok = np.ones(n_warps, dtype=bool)
    np.logical_and.at(ok, ids, np.asarray(predicate, dtype=bool))
    return ok


def any_sync(warp_ids: np.ndarray, predicate: np.ndarray,
             n_warps: int) -> np.ndarray:
    """``__any_sync``: per-warp OR of the predicate over the listed lanes.

    Warps with no listed lanes report False (the vacuous OR), mirroring
    :func:`all_sync`'s vacuous True.
    """
    ids = _checked_warp_ids(warp_ids, n_warps, "any_sync")
    hit = np.zeros(n_warps, dtype=bool)
    np.logical_or.at(hit, ids, np.asarray(predicate, dtype=bool))
    return hit


def shfl_sync(warp_values: np.ndarray, lane_values: np.ndarray,
              warp_ids: np.ndarray) -> np.ndarray:
    """``__shfl_sync`` broadcast: every lane receives its warp's value.

    ``warp_values`` holds one value per warp (the walking lane's result);
    the return value redistributes it to each lane in ``warp_ids`` —
    register-to-register, no memory model involvement, exactly like the
    hardware shuffle the walk uses to broadcast its terminal state.
    """
    return np.asarray(warp_values)[np.asarray(warp_ids)]


def elect_one_per_slot(slot_ids: np.ndarray) -> np.ndarray:
    """``atomicCAS`` winner election: one winner per distinct slot.

    Among lanes attempting to claim the same (globally unique) slot id,
    exactly one wins — the first in lane order, matching the determinism
    the tests need while preserving one-winner semantics. Returns a
    boolean winner mask.
    """
    slot_ids = np.asarray(slot_ids)
    n = slot_ids.size
    if n == 0:
        return np.empty(0, dtype=bool)
    # Stable sort on the slot ids alone == lexsort((lane order, slots)):
    # ties keep lane order, so the first lane per slot still wins.
    order = np.argsort(slot_ids, kind="stable")
    sorted_slots = slot_ids[order]
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_slots[1:] != sorted_slots[:-1]
    winners = np.empty(n, dtype=bool)
    winners[order] = first
    return winners
