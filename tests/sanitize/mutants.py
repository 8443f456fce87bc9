"""Seeded warp-protocol bugs: the sanitizer's mutation-style self-test.

A sanitizer you have never seen catch a bug is a sanitizer you cannot
trust. These phase subclasses each seed one classic warp-protocol bug
into the real staged engine — the mutations every checker must catch:

* ``"race"`` — the atomicCAS claim is replaced by a plain batched store
  (every colliding lane believes it won and installs its tag), and the
  atomicAdd vote accumulation by a plain read-modify-write (of the lanes
  hitting one slot in a step only one increment lands — the other votes
  are genuinely lost). **racecheck** must fire.
* ``"sync"`` — the per-iteration ``__syncwarp(mask)`` is issued with a
  stale full-warp mask even after lanes have retired — the classic
  ``__activemask()``-captured-too-early bug. **synccheck** must fire.
* ``"init"`` — the walk treats an empty probe slot as the key's slot and
  resolves votes from its never-written value region. **initcheck**
  must fire.

The bugs are *real* (the race genuinely drops votes; the init read
genuinely feeds zeros into vote resolution), so functional output may
deviate from the production ports — that deviation is the point. The
phases default to all three bugs, so installing them as a kernel's
``construct_cls`` / ``walk_cls`` seeds everything; :class:`MutantKernel`
picks a subset.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.kernels import CudaLocalAssemblyKernel
from repro.kernels.engine import ConstructPhase, EventBus, WalkPhase
from repro.kernels.engine.events import BarrierSync, SlotWrite
from repro.kernels.vectortable import WarpHashTables
from repro.simt.device import A100
from tests.kernels.test_vectortable import elect_one_per_slot

#: The seeded bugs, and the checker that must catch each.
BUG_TO_CHECKER = {"race": "racecheck", "sync": "synccheck",
                  "init": "initcheck"}
BUGS = tuple(BUG_TO_CHECKER)


class MutantConstructPhase(ConstructPhase):
    """Construction with a non-atomic insert protocol and stale sync masks."""

    def __init__(self, protocol, warp_size: int,
                 bugs: frozenset = frozenset(BUGS)) -> None:
        super().__init__(protocol, warp_size)
        self.bugs = bugs

    def _claim(self, tables: WarpHashTables, slots: np.ndarray,
               ins: np.ndarray, warps: np.ndarray, lanes, bus: EventBus,
               emit_writes: bool) -> np.ndarray:
        if "race" not in self.bugs:
            return super()._claim(tables, slots, ins, warps, lanes, bus,
                                  emit_writes)
        if emit_writes:
            bus.emit(SlotWrite(phase="construct", kind="claim", slots=slots,
                               warps=warps, lanes=lanes, atomic=False))
        # BUG: plain store instead of atomicCAS — no winner election.
        # Every colliding lane overwrites the claimer and believes it won.
        tables.claimer[slots] = ins
        return np.ones(slots.size, dtype=bool)

    def _vote(self, tables: WarpHashTables, slots: np.ndarray,
              ins: np.ndarray, warps: np.ndarray, lanes, bus: EventBus,
              emit_writes: bool) -> None:
        if "race" not in self.bugs:
            super()._vote(tables, slots, ins, warps, lanes, bus, emit_writes)
            return
        if emit_writes:
            bus.emit(SlotWrite(phase="construct", kind="vote", slots=slots,
                               warps=warps, lanes=lanes, atomic=False))
        # BUG: plain read-modify-write instead of atomicAdd — of the lanes
        # that hit one slot in the same step only one increment lands;
        # the others' insertions never cast their vote.
        lands = elect_one_per_slot(slots)
        super()._vote(tables, slots[lands], ins[lands], None, None, bus,
                      False)

    def _barrier(self, warps: np.ndarray, active_counts: np.ndarray,
                 bus: EventBus) -> None:
        if "sync" not in self.bugs:
            super()._barrier(warps, active_counts, bus)
            return
        # BUG: the mask was captured before lanes retired — it still
        # names the full warp while only the pending lanes are active.
        stale = np.full(warps.size, self.warp_size, dtype=np.int64)
        bus.emit(BarrierSync(phase="construct", warps=warps,
                             mask_lanes=stale, active_lanes=active_counts))


class MutantWalkPhase(WalkPhase):
    """A walk that resolves votes from never-written empty slots."""

    def __init__(self, *args, bugs: frozenset = frozenset(BUGS), **kwargs):
        super().__init__(*args, **kwargs)
        self.bugs = bugs

    def _on_probe_miss(self, found_slot: np.ndarray, missing: np.ndarray,
                       u: np.ndarray, miss: np.ndarray,
                       slots: np.ndarray) -> None:
        if "init" not in self.bugs:
            super()._on_probe_miss(found_slot, missing, u, miss, slots)
            return
        # BUG: the empty slot is treated as the key's slot; its votes
        # (all zeros — never written) feed the extension resolution.
        found_slot[u[miss]] = slots[miss]


class MutantKernel(CudaLocalAssemblyKernel):
    """The CUDA port with ``bugs`` (a subset of :data:`BUGS`) seeded."""

    def __init__(self, device=A100, *, bugs=BUGS, **kwargs) -> None:
        super().__init__(device, **kwargs)
        self.construct_cls = partial(MutantConstructPhase,
                                     bugs=frozenset(bugs))
        self.walk_cls = partial(MutantWalkPhase, bugs=frozenset(bugs))
