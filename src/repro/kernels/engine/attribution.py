"""One lockstep program, many launches: attribute it, replay each.

The simulated GPU runs *launches* (one bin, one extension direction);
the host runs *lockstep programs*, and the two are not one to one. A
multi-tenant wave fuses every tenant's launches at a k into one
construct + walk (:mod:`repro.kernels.engine.coalesce`); a solo k-run
keeps construct per launch and lets neighbouring launches share one walk
(:meth:`LocalAssemblyKernel.run <repro.kernels.engine.simt.\
LocalAssemblyKernel.run>`). Warps are independent — each owns a disjoint
slot range and every phase decision is warp-local — so a fused program
behaves, warp for warp, exactly like its launches run one by one. Both
drivers therefore share what is below:

* the phases of a fused program *log* instead of counting (entry layout:
  :data:`~repro.kernels.engine.events.LOG_WAVE`);
  :meth:`LaunchRecord.attribute` reduces the finished log once to
  per-segment tallies (a *segment* is one launch attempt's contiguous
  warp range of the program);
* :func:`record_attempt` cuts the program's outcome into one
  :class:`AttemptRecord` per segment;
* :func:`replay_attempt` re-emits a segment's solo event stream from its
  record.

A fused program carries counts only — its log holds the four count
kinds and nothing else. The array-carrying
:data:`~repro.kernels.engine.events.EVIDENCE_EVENTS` are numbered by one
launch's slots and warps, so a kernel with a subscriber that wants them
never fuses (:meth:`LocalAssemblyKernel._fuses
<repro.kernels.engine.simt.LocalAssemblyKernel._fuses>`). And nothing
here answers a full table: a record only names the warps that
overflowed; every attempt — run alone or replayed from a record — is
settled by :meth:`LocalAssemblyKernel._settle
<repro.kernels.engine.simt.LocalAssemblyKernel._settle>`, the one place
that raises, drops or retries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.extension import WALK_STATE_CODES, WalkState
from repro.kernels.engine.events import (
    LOG_INSERT_ITER,
    LOG_LOOKUP_ITER,
    LOG_WALK_STEP,
    LOG_WAVE,
    EventBus,
    LaunchDone,
    ProbeIteration,
    WaveExecuted,
    counted_events,
)
from repro.kernels.engine.prepare import Batch
from repro.kernels.engine.schedule import LaunchPlan

_MAX_LEN_CODE = np.int8(WALK_STATE_CODES[WalkState.MAX_LEN])

_NO_LANES = np.empty(0, dtype=np.int64)


class LaunchRecord:
    """One fused program, attributed: what every segment's solo run emits.

    ``rows`` / ``counts`` are CSR-like over segments: segment ``s`` owns
    columns ``ptr[s]:ptr[s + 1]``, one per log entry in which it had
    lanes, in emission order. ``rows`` is the entry's log position,
    ``kinds[rows]`` its kind, and the six ``counts`` rows are the
    tallies :func:`~repro.kernels.engine.events.counted_events` takes:
    lanes, distinct warps, ``m0`` / ``m1`` / ``m2`` / ``idx``.
    """

    __slots__ = ("warp_base", "log", "kinds", "ptr", "rows", "counts")

    def __init__(self, warp_base: np.ndarray) -> None:
        self.warp_base = warp_base      # (n_segs + 1) fused warp offsets
        self.log: list = []             # the phases' attribution log
        # a program that logged nothing (no insertions, no valid seed)
        self.kinds = self.rows = np.empty(0, dtype=np.int64)
        self.ptr = np.zeros(warp_base.size, dtype=np.int64)
        self.counts = np.empty((6, 0), dtype=np.int64)

    def attribute(self) -> None:
        """Reduce the finished program's log to per-segment counts; clear it.

        One ``searchsorted`` places every logged lane in its segment;
        every count is then a ``bincount`` over ``segment * n_entries +
        entry`` keys, masked by the logged column. Distinct warps are
        run starts (every entry's ``warps`` is non-decreasing).
        """
        log = self.log
        if not log:
            return
        n_seg, n_tok = self.warp_base.size - 1, len(log)
        sizes = np.fromiter((e[1].size for e in log), dtype=np.int64,
                            count=n_tok)
        starts = np.cumsum(sizes) - sizes
        warps = np.concatenate([e[1] for e in log])
        key = np.searchsorted(self.warp_base, warps, side="right") - 1
        key *= n_tok
        key += np.repeat(np.arange(n_tok), sizes)
        first = np.ones(warps.size, dtype=bool)
        np.not_equal(warps[1:], warps[:-1], out=first[1:])
        first[starts[sizes > 0]] = True
        absent = np.zeros(int(sizes.max()), dtype=bool)
        lanes = np.bincount(key, minlength=n_seg * n_tok)
        picked = np.concatenate([_NO_LANES] + [
            e[5] + st for e, st in zip(log, starts.tolist())
            if e[5] is not None])
        present = np.nonzero(lanes)[0]

        def tally(select: np.ndarray) -> np.ndarray:
            return np.bincount(key[select],
                               minlength=n_seg * n_tok)[present]

        def column(j: int) -> np.ndarray:
            if all(e[j] is None for e in log):   # a walk-only log's m1, m2
                return np.zeros(present.size, dtype=np.int64)
            return tally(np.concatenate([
                e[j] if e[j] is not None else absent[:e[1].size]
                for e in log]))

        self.counts = np.stack([
            lanes[present], tally(first), column(2), column(3), column(4),
            tally(picked)])
        self.kinds = np.fromiter((e[0] for e in log), dtype=np.int64,
                                 count=n_tok)
        self.ptr = np.searchsorted(present, np.arange(n_seg + 1) * n_tok)
        self.rows = present % n_tok
        # in place: the phases hold the same list until the next launch
        log.clear()


@dataclass
class AttemptRecord:
    """One segment's share of one fused program (one overflow attempt)."""

    sub: Batch                      # the segment's batch for this attempt
    launch: LaunchRecord            # the attributed program (shared)
    pos: int                        # this segment's index in the program
    base_codes: np.ndarray          # wres slices for the solo scatter
    base_lens: np.ndarray
    state_codes: np.ndarray
    construct_failed: list[int]     # overflowed warps, segment-local, in
    walk_failed: list[int]          # the order they overflowed
    attempt: int                    # 0-based attempt index
    #: Events the segment's own construct emitted ahead of a shared walk
    #: (empty when construct was fused too and sits in the log).
    tape: list | tuple = ()
    #: Capacities the overflowed warps re-launch with (``None``: they do
    #: not), decided once by the driver that runs the attempts.
    grown: np.ndarray | None = None

    @property
    def failed(self) -> list[int]:
        """The overflowed warps, segment-local, sorted."""
        return sorted({*self.construct_failed, *self.walk_failed})


@dataclass
class Segment:
    """One launch plan's batch and the attempts it took to settle."""

    plan: LaunchPlan
    sub: Batch
    records: list[AttemptRecord] = field(default_factory=list)


def record_attempt(live: list[Segment], launch: LaunchRecord,
                   construct_failed, wres, attempt: int,
                   tapes: list | None = None) -> None:
    """Append each live segment's :class:`AttemptRecord` of one program.

    ``construct_failed`` / ``wres.overflowed`` name overflowed warps by
    fused id, in the order they overflowed.
    """
    warp_base = launch.warp_base
    for pos, seg in enumerate(live):
        lo, hi = int(warp_base[pos]), int(warp_base[pos + 1])
        seg.records.append(AttemptRecord(
            sub=seg.sub, launch=launch, pos=pos,
            base_codes=wres.base_codes[lo:hi],
            base_lens=wres.base_lens[lo:hi],
            state_codes=wres.state_codes[lo:hi],
            construct_failed=[w - lo for w in construct_failed
                              if lo <= w < hi],
            walk_failed=[w - lo for w in wres.overflowed if lo <= w < hi],
            attempt=attempt,
            tape=tapes[pos] if tapes is not None else (),
        ))


def replay_attempt(rec: AttemptRecord, bus: EventBus) -> LaunchDone:
    """Re-emit one segment's solo event stream from the attributed program.

    The taped construct events first, then one event per log entry in
    which the segment had lanes (exactly the condition under which the
    solo loops emit it); returns the per-segment ``LaunchDone`` for the
    caller to emit.
    """
    for event in rec.tape:
        bus.emit(event)
    launch, s = rec.launch, rec.pos
    mine = slice(launch.ptr[s], launch.ptr[s + 1])
    kinds = launch.kinds[launch.rows[mine]]
    for event in counted_events(kinds.tolist(),
                                *launch.counts[:, mine].tolist()):
        bus.emit(event)
    # The max_walk_len cutoff step runs without emitting a WalkStep
    # (the solo loop breaks first) but still counts as a walk step; any
    # MAX_LEN terminal in this attempt's slice proves the segment had
    # walkers alive at the cutoff.
    per_kind = np.bincount(kinds, minlength=LOG_WALK_STEP + 1).tolist()
    taped = Counter(map(type, rec.tape))
    cutoff = bool((rec.state_codes == _MAX_LEN_CODE).any())
    return LaunchDone(
        waves=per_kind[LOG_WAVE] + taped[WaveExecuted],
        construct_iterations=(per_kind[LOG_INSERT_ITER]
                              + taped[ProbeIteration]),
        walk_steps=per_kind[LOG_WALK_STEP] + cutoff,
        walk_iterations=per_kind[LOG_LOOKUP_ITER])
