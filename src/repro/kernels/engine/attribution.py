"""One lockstep program, many launches: attribute it, charge each launch.

The simulated GPU runs *launches* (one bin, one extension direction);
the host runs *lockstep programs*, and the two are not one to one: a
multi-tenant wave fuses every tenant's launches at a k
(:mod:`repro.kernels.engine.coalesce`), and a k-run's neighbouring
launches share one walk (:func:`repro.kernels.engine.simt.run_ports`).
Warps are independent — each owns a disjoint slot range and every phase
decision is warp-local — so a fused program behaves, warp for warp,
exactly like its launches run one by one. So:

* the phases of a fused program *log* instead of tallying (entry
  layout: :mod:`repro.kernels.engine.tally`), and
  :meth:`LaunchRecord.attribute` reduces the log once to every
  *segment*'s (one launch attempt's warp range) tally rows;
* :func:`record_attempt` cuts the outcome into one :class:`AttemptRecord`
  per segment, which the driver charges and settles in solo order.

A fused program carries counts only (a kernel whose subscribers want
slot-numbered evidence never fuses), and nothing here answers a full
table: a record names the warps that overflowed, and
:meth:`LocalAssemblyKernel._settle
<repro.kernels.engine.simt.LocalAssemblyKernel._settle>` alone raises,
drops or retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels.engine.prepare import Batch
from repro.kernels.engine.schedule import LaunchPlan
from repro.kernels.engine.tally import (
    INSERT_ITER,
    N_COLUMNS,
    WALK_STEP,
    LaunchTally,
)

_NO_LANES = np.empty(0, dtype=np.int64)


class LaunchRecord:
    """One fused program, attributed: every segment's tally rows.

    ``rows`` holds them segment by segment, each segment's in emission
    order — one row per log entry in which the segment had lanes, which
    is exactly when its solo run writes one; segment ``s`` owns
    ``rows[ptr[s]:ptr[s + 1]]``.
    """

    __slots__ = ("warp_base", "log", "ptr", "rows")

    def __init__(self, warp_base: np.ndarray) -> None:
        self.warp_base = warp_base      # (n_segs + 1) fused warp offsets
        self.log: list = []             # the phases' attribution log
        # a program that logged nothing (no insertions, no valid seed)
        self.ptr = np.zeros(warp_base.size, dtype=np.int64)
        self.rows = np.empty((0, N_COLUMNS), dtype=np.int64)

    def attribute(self) -> None:
        """Reduce the finished program's log to per-segment rows; clear it.

        One ``searchsorted`` places every logged lane in its segment;
        every count is then a ``bincount`` over ``segment * n_entries +
        entry`` keys, masked by the logged column. Distinct warps are
        run starts (every entry's ``warps`` is non-decreasing). The
        ``*_entry`` helpers say what each kind logs; the row columns
        follow from those counts.
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

        n, c0, c1, c2, ci = (lanes[present], column(2), column(3),
                             column(4), tally(picked))
        kind = np.fromiter((e[0] for e in log), dtype=np.int64,
                           count=n_tok)[present % n_tok]
        ins, step = kind == INSERT_ITER, kind == WALK_STEP
        # every pending insert lane either compared a key (m0 + m1) or
        # issued a CAS; retired (m2) = matched (m1) + claimed (the CAS
        # winners, idx) + merged. A walk step's m0 marks vote-row reads
        # and its idx the walkers that committed a base.
        self.rows = np.stack([      # the tally's columns, KIND..COMMITTED
            kind, n, tally(first), np.where(step, 0, c0 + c1),
            np.where(ins, n - c0 - c1, 0), c1, np.where(ins, ci, 0),
            np.where(ins, c2 - c1 - ci, 0), np.where(step, c0, 0),
            np.where(step, ci, 0)], axis=1)
        self.ptr = np.searchsorted(present, np.arange(n_seg + 1) * n_tok)
        # in place: the phases hold the same list until the next launch
        log.clear()


@dataclass
class AttemptRecord:
    """One segment's share of one fused program (one overflow attempt)."""

    sub: Batch                      # the segment's batch for this attempt
    tally: LaunchTally              # what its solo run counts
    base_codes: np.ndarray          # wres slices for the solo scatter
    base_lens: np.ndarray
    state_codes: np.ndarray
    construct_failed: list[int]     # overflowed warps, segment-local, in
    walk_failed: list[int]          # the order they overflowed
    attempt: int                    # 0-based attempt index
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
                   construct_rows: list | None = None) -> None:
    """Append each live segment's :class:`AttemptRecord` of one program.

    ``construct_failed`` / ``wres.overflowed`` name overflowed warps by
    fused id, in the order they overflowed. ``construct_rows`` holds,
    per segment, the rows of a construct that ran alone ahead of a
    shared walk (``None``: construct was fused too and sits in the log).
    """
    warp_base, ptr = launch.warp_base, launch.ptr
    for pos, seg in enumerate(live):
        lo, hi = int(warp_base[pos]), int(warp_base[pos + 1])
        state_codes = wres.state_codes[lo:hi]
        seg.records.append(AttemptRecord(
            sub=seg.sub,
            tally=LaunchTally(
                state_codes,
                construct_rows[pos] if construct_rows is not None else (),
                launch.rows[ptr[pos]:ptr[pos + 1]]),
            base_codes=wres.base_codes[lo:hi],
            base_lens=wres.base_lens[lo:hi],
            state_codes=state_codes,
            construct_failed=[w - lo for w in construct_failed
                              if lo <= w < hi],
            walk_failed=[w - lo for w in wres.overflowed if lo <= w < hi],
            attempt=attempt,
        ))
