"""The count channel: one tally per launch attempt, one fold that charges it.

The paper's metrics (INTOPs, architectural and algorithm efficiency,
Tables IV-VII) are functions of per-iteration counts. Every launch
attempt ends in one :class:`LaunchTally` — one *row* per construction
wave, insert-probe round, lookup round and walk step, in the order the
launch ran them — filled one of two ways:

* construct running one launch (or a walk-group member) appends a
  scalar row per iteration (``*_row``) to the list its result carries;
  fused, it logs the arrays behind each iteration instead (``*_entry``,
  below), and :func:`~repro.kernels.engine.attribution.attribute`
  writes every segment's rows from the log in one vectorized pass;
* the walk writes every launch's rows at once, from each lookup's probe
  rounds (:func:`walk_rows`).

:func:`charge` folds a tally into a
:class:`~repro.simt.counters.KernelProfile` (counters, analytic cache
traffic, chain cycles), once per launch in solo launch order.
:func:`render` is the one place count events are built — at launch end,
from the tally, and only for a subscriber that asks for them.
"""

from __future__ import annotations

import numpy as np

from repro.core.extension import WALK_STATE_CODES, WalkState
from repro.kernels.engine.events import (
    LaunchDone,
    LaunchStarted,
    MemoryTrafficResolved,
    ProbeIteration,
    WalkStep,
    WaveExecuted,
)
from repro.kernels.vectortable import SLOT_TAG_BYTES, SLOT_VALUE_BYTES
from repro.simt.memory import AccessCategory, AnalyticCacheModel

#: Warp instructions charged per probe iteration (loop bookkeeping).
ITERATION_BASE_INSTRS = 10

#: Thread-level integer ops per walk step outside the hash (state updates).
WALK_STEP_INTOPS = 24

#: Row kinds — also the kinds of attribution-log entries.
WAVE, INSERT_ITER, LOOKUP_ITER, WALK_STEP = range(4)

#: Columns of a tally row: its kind, then what its event reports — lanes
#: (k-mers hashed, lanes pending, walkers), issuing warps, key compares,
#: CAS attempts, votes matched / claimed / merged, vote rows read, bases
#: committed. A column a kind has no use for holds 0.
(KIND, LANES, WARPS, COMPARES, CAS, MATCHED, CLAIMED, MERGED, READS,
 COMMITTED) = range(10)
N_COLUMNS = 10

_MAX_LEN_CODE = np.int8(WALK_STATE_CODES[WalkState.MAX_LEN])


def wave_row(lanes: int, warps: int) -> tuple:
    """Row of one construction wave."""
    return (WAVE, lanes, warps, 0, 0, 0, 0, 0, 0, 0)


def insert_row(lanes: int, warps: int, compares: int, cas: int,
               matched: int, claimed: int, merged: int) -> tuple:
    """Row of one insert-probe iteration."""
    return (INSERT_ITER, lanes, warps, compares, cas, matched, claimed,
            merged, 0, 0)


#: An attribution-log entry is ``(kind, warps, m0, m1, m2, idx)``:
#: ``warps`` the issuing warp of every counted lane (sorted), ``m0..m2``
#: boolean masks and ``idx`` an index array aligned with it (``None``
#: where a kind has none) — references to the arrays the loop already
#: holds, so logging costs one ``list.append``. The log holds O(sum of
#: pending lanes) array references for one program.


def wave_entry(lane_warps: np.ndarray) -> tuple:
    """Log entry of one construction wave."""
    return (WAVE, lane_warps, None, None, None, None)


def insert_entry(pending_warps: np.ndarray, mismatched: np.ndarray,
                 matched: np.ndarray, retired: np.ndarray,
                 cas_winners: np.ndarray | None) -> tuple:
    """Log entry of one insert-probe iteration.

    ``mismatched`` / ``matched`` split the occupied slots by key compare
    outcome, ``retired`` marks lanes that voted this iteration (matched,
    claimed or merged) and ``cas_winners`` indexes the fresh CAS winners
    (``None``: no slot was observed empty).
    """
    return (INSERT_ITER, pending_warps, mismatched, matched, retired,
            cas_winners)


def walk_rows(group: np.ndarray, n_seg: int, depth: int,
              rounds: np.ndarray, ended: np.ndarray, found: np.ndarray,
              committed: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """A walk's rows from its lanes' probe ``rounds``, ``(rows, ptr,
    iterations)``: per ``group`` (``segment * depth + step``) with lanes,
    a lookup row per round — lanes still probing, each comparing a key
    but on an empty slot (``ended``) — then its step row, as a segment's
    solo run writes them. ``iterations``: the (step, round) pairs run."""
    top = np.zeros(n_seg * depth, dtype=np.int32)
    np.maximum.at(top, group, rounds)
    cut = np.concatenate(([0], np.cumsum(np.where(top > 0, top + 1, 0))))
    n_rows = int(cut[-1])
    first = cut.astype(np.int32)[group]     # a lane's first round's row
    # lane ``i`` probes on rows ``first[i]`` to ``first[i] + rounds[i] - 1``
    looked = np.cumsum(np.bincount(first, minlength=n_rows + 1) - np.bincount(
        first + rounds, minlength=n_rows + 1))[:n_rows]
    step = first + top[group]
    rows = np.zeros((n_rows, N_COLUMNS), dtype=np.int64)
    rows[:, KIND] = LOOKUP_ITER
    rows[step, KIND] = WALK_STEP
    rows[:, LANES] = rows[:, WARPS] = looked + np.bincount(
        step, minlength=n_rows)
    rows[:, COMPARES] = looked - np.bincount(
        first[ended] + rounds[ended] - 1, minlength=n_rows)
    rows[:, READS] = np.bincount(step[found], minlength=n_rows)
    rows[:, COMMITTED] = np.bincount(step[committed], minlength=n_rows)
    chain = int(top.reshape(n_seg, depth).max(axis=0, initial=0).sum())
    return rows, cut[np.arange(n_seg + 1) * depth], chain


class LaunchTally:
    """One launch attempt's counts: its rows, and the four ``LaunchDone``
    scalars they imply.

    ``LaunchTally(state_codes, *parts)`` stacks ``parts`` — lists of
    ``*_row`` tuples or row arrays — in order. ``state_codes`` (the
    walk's terminal states) settle the one step without a row: the
    ``max_walk_len`` cutoff, which counts as a walk step and leaves
    every walker it stops ``MAX_LEN``.
    """

    __slots__ = ("rows", "waves", "construct_iterations", "walk_steps",
                 "walk_iterations")

    def __init__(self, state_codes: np.ndarray, *parts) -> None:
        self.rows = np.concatenate([
            np.asarray(part, dtype=np.int64).reshape(-1, N_COLUMNS)
            for part in parts])
        per_kind = np.bincount(self.rows[:, KIND], minlength=4).tolist()
        self.waves = per_kind[WAVE]
        self.construct_iterations = per_kind[INSERT_ITER]
        self.walk_iterations = per_kind[LOOKUP_ITER]
        self.walk_steps = (per_kind[WALK_STEP]
                           + bool((state_codes == _MAX_LEN_CODE).any()))


def charge(profile, ctx: LaunchStarted, tally: LaunchTally, kernel,
           parallel_scale: float) -> tuple[float, float, float, float]:
    """Fold one launch attempt's tally into ``profile``.

    ``kernel`` supplies the port's costs — protocol, warp size, walk
    issue mode, device, ``l2_churn`` — so the same tally charges
    differently per port, exactly how the paper's three ports differ.
    Integer counters sum over the rows, a per-row floor or ceiling
    staying per row. The analytic cache model runs once per launch over
    its access categories, so called in solo launch order the float
    sums are a one-at-a-time run's. ``parallel_scale`` is the fraction
    of the paper-size dataset the run holds: the model applies the L2
    pressure of the full-size batch. Returns the launch's HBM / L1 / L2
    bytes and cache-weighted access latency (what
    :class:`MemoryTrafficResolved` reports).
    """
    p, h, W, proto = profile, ctx.hash_ops, kernel.warp_size, kernel.protocol
    kind = tally.rows[:, KIND]
    wave, ins, look, step = (tally.rows[kind == k] for k in range(4))

    def total(rows: np.ndarray, column: int) -> int:
        return int(rows[:, column].sum())

    hashed, probing = total(wave, LANES), total(ins, LANES)
    looking, walkers = total(look, LANES), total(step, LANES)
    committed = total(step, COMMITTED)

    # every lane hashes its k-mer (the warp runs the hash code once),
    # then probes its table
    ops = ITERATION_BASE_INSTRS + proto.iteration_intops
    p.intops += hashed * h + probing * ops
    p.construct_intops += hashed * h + probing * ops
    p.warp_instructions += total(wave, WARPS) * h + total(ins, WARPS) * ops
    p.lane_instructions += hashed * h + probing * ops
    p.inserts += hashed
    p.insert_probe_iterations += probing
    p.sync_ops += total(ins, WARPS) * proto.iteration_syncs
    p.atomics += (total(ins, MATCHED) + total(ins, CAS)
                  + total(ins, MERGED))

    walk_ops = h + WALK_STEP_INTOPS
    p.intops += looking * ITERATION_BASE_INSTRS + walkers * walk_ops
    p.walk_intops += looking * ITERATION_BASE_INSTRS + walkers * walk_ops
    p.warp_instructions += looking * ITERATION_BASE_INSTRS
    p.lane_instructions += int(
        (look[:, LANES] * ITERATION_BASE_INSTRS // W).sum())
    if kernel.lane_parallel_walks:
        # independent thread scheduling: one walk per lane, so
        # ceil(walkers / warp_size) warps execute each instruction
        p.warp_instructions += int((-(-step[:, LANES] // W)).sum()) * walk_ops
        p.lane_instructions += walkers * walk_ops
    else:
        # one lane walks; the warp still issues every instruction
        p.warp_instructions += walkers * walk_ops
        p.lane_instructions += int((step[:, LANES] * walk_ops // W).sum())
    p.lookup_probe_iterations += looking
    p.lookups += walkers
    p.sync_ops += walkers  # terminal-state shuffle broadcast
    p.walk_steps += committed
    p.extension_bases += committed
    p.serial_depth += len(ins) + len(look)
    p.kernels_launched += 1

    cats = [
        # probes are atomicCAS attempts and walk reads of CAS-owned
        # tags; votes are atomicAdds — all execute at the L2
        AccessCategory("table_probe", probing + looking, SLOT_TAG_BYTES,
                       ctx.mean_table_bytes, "random", atomic=True),
        AccessCategory("table_vote", total(ins, MATCHED)
                       + total(ins, CLAIMED) + total(ins, MERGED),
                       SLOT_VALUE_BYTES, ctx.mean_table_bytes, "random",
                       writes=True, atomic=True),
        AccessCategory("table_vote_read", total(step, READS),
                       SLOT_VALUE_BYTES, ctx.mean_table_bytes, "random",
                       atomic=True),
        AccessCategory("key_compare",
                       total(ins, COMPARES) + total(look, COMPARES),
                       float(ctx.k), ctx.mean_read_bytes, "random"),
        AccessCategory("read_stream", hashed, 2.0, ctx.mean_read_bytes,
                       "stream"),
    ]
    dev = kernel.device
    model = AnalyticCacheModel(
        dev, max(1, round(ctx.n_warps / parallel_scale)),
        l2_churn=kernel.l2_churn)
    traffic = model.traffic(cats, cold_footprint_bytes=ctx.cold_footprint_bytes)
    # latency of one dependent table access, for the chain-cycle terms
    h1, h2 = model.hit_rates(cats[0])
    latency = (h1 * dev.l1.latency_cycles
               + (1 - h1) * (h2 * dev.l2.latency_cycles
                             + (1 - h2) * dev.hbm_latency_cycles))
    p.hbm_bytes += traffic.hbm_bytes
    p.l1_hit_bytes += traffic.l1_bytes
    p.l2_hit_bytes += traffic.l2_bytes
    # serial chain of the launch: dependent instruction cycles plus one
    # cache-weighted access latency per probe iteration
    cpi = dev.dependent_cpi
    p.construct_chain_cycles += (tally.waves * h * cpi
                                 + tally.construct_iterations * latency)
    p.walk_chain_cycles += (tally.walk_steps * walk_ops * cpi
                            + tally.walk_iterations * latency)
    return traffic.hbm_bytes, traffic.l1_bytes, traffic.l2_bytes, latency


def render(bus, tally: LaunchTally,
           traffic: tuple[float, float, float, float]) -> None:
    """Emit one launch attempt's count events onto ``bus``, built from its
    tally and :func:`charge`'s ``traffic`` — only the types a subscriber
    asks for (:meth:`~repro.kernels.engine.events.EventBus.wants`). The
    traffic resolves before ``LaunchDone``, the order subscribers have
    always seen."""
    waves, probes, steps = map(bus.wants, (WaveExecuted, ProbeIteration,
                                           WalkStep))
    if waves or probes or steps:
        for (kind, lanes, warps, compares, cas, matched, claimed, merged,
             reads, committed) in tally.rows.tolist():
            if kind == WAVE:
                if waves:
                    bus.emit(WaveExecuted(lanes=lanes, warps=warps))
            elif kind == WALK_STEP:
                if steps:
                    bus.emit(WalkStep(walkers=lanes, vote_reads=reads,
                                      bases_committed=committed))
            elif probes:
                bus.emit(ProbeIteration(
                    phase="construct" if kind == INSERT_ITER else "walk",
                    lanes=lanes, warps=warps, key_compares=compares,
                    cas_attempts=cas, votes_matched=matched,
                    votes_claimed=claimed, votes_merged=merged))
    if bus.wants(MemoryTrafficResolved):
        bus.emit(MemoryTrafficResolved(*traffic))
    if bus.wants(LaunchDone):
        bus.emit(LaunchDone(
            waves=tally.waves, construct_iterations=tally.construct_iterations,
            walk_steps=tally.walk_steps, walk_iterations=tally.walk_iterations))
