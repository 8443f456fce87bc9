"""One lockstep program, many launches: attribute it, charge each launch.

The simulated GPU runs *launches* (one bin, one extension direction);
the host runs *lockstep programs*, and the two are not one to one: a
multi-tenant wave fuses every tenant's launches at a k
(:mod:`repro.kernels.engine.coalesce`), and a k-run's neighbouring
launches share one walk (:func:`repro.kernels.engine.simt.run_ports`).
Warps are independent, so a fused program behaves, warp for warp, like
its launches run one by one. A fused construct *logs* instead of
tallying (entry layout: :mod:`repro.kernels.engine.tally`) and
:func:`attribute` reduces the log to every *segment*'s (one launch
attempt's warp range) rows; a fused walk writes each segment's rows
itself (:attr:`WalkPhase.warp_base
<repro.kernels.engine.walk.WalkPhase.warp_base>`). :func:`record_attempt`
cuts the outcome into one :class:`AttemptRecord` per segment, which the
driver charges and settles in solo order. A fused program carries
counts only (a kernel whose subscribers want slot-numbered evidence
never fuses), and nothing here answers a full table:
:meth:`LocalAssemblyKernel._settle
<repro.kernels.engine.simt.LocalAssemblyKernel._settle>` alone does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels.engine.prepare import Batch
from repro.kernels.engine.schedule import LaunchPlan
from repro.kernels.engine.tally import INSERT_ITER, N_COLUMNS, LaunchTally

def attribute(log: list, warp_base: np.ndarray) -> list[np.ndarray]:
    """Each segment's tally rows of a fused construct's ``log``, which is
    cleared (in place: the phase holds the same list).

    A segment gets a row per log entry in which it had lanes, exactly
    when its solo run writes one. One ``searchsorted`` places every
    logged lane in its segment (``warp_base``: the segments' first fused
    warps, and their count); every count is then a ``bincount`` over
    ``segment * n_entries + entry`` keys, masked by the logged column.
    Distinct warps are run starts (every entry's ``warps`` is
    non-decreasing).
    """
    n_seg, n_tok = warp_base.size - 1, len(log)
    if not log:     # no insertions
        return [np.empty((0, N_COLUMNS), dtype=np.int64)] * n_seg
    sizes = np.fromiter((e[1].size for e in log), dtype=np.int64,
                        count=n_tok)
    starts = np.cumsum(sizes) - sizes
    warps = np.concatenate([e[1] for e in log])
    key = np.searchsorted(warp_base, warps, side="right") - 1
    key *= n_tok
    key += np.repeat(np.arange(n_tok), sizes)
    first = np.ones(warps.size, dtype=bool)
    np.not_equal(warps[1:], warps[:-1], out=first[1:])
    first[starts[sizes > 0]] = True
    absent = np.zeros(int(sizes.max()), dtype=bool)
    lanes = np.bincount(key, minlength=n_seg * n_tok)
    picked = np.concatenate([np.empty(0, dtype=np.int64)] + [
        e[5] + st for e, st in zip(log, starts.tolist())
        if e[5] is not None])
    present = np.nonzero(lanes)[0]

    def tally(select: np.ndarray) -> np.ndarray:
        return np.bincount(key[select], minlength=n_seg * n_tok)[present]

    def column(j: int) -> np.ndarray:   # a wave entry has no masks
        return tally(np.concatenate([
            e[j] if e[j] is not None else absent[:e[1].size] for e in log]))

    n, c0, c1, c2, ci = (lanes[present], column(2), column(3), column(4),
                         tally(picked))
    kind = np.fromiter((e[0] for e in log), dtype=np.int64,
                       count=n_tok)[present % n_tok]
    none = np.zeros_like(n)
    # every pending insert lane either compared a key (m0 + m1) or
    # issued a CAS; retired (m2) = matched (m1) + claimed (the CAS
    # winners, idx) + merged
    rows = np.stack([      # the tally's columns, KIND..COMMITTED
        kind, n, tally(first), c0 + c1,
        np.where(kind == INSERT_ITER, n - c0 - c1, 0), c1, ci, c2 - c1 - ci,
        none, none], axis=1)
    log.clear()
    return np.split(rows, np.searchsorted(
        present, np.arange(1, n_seg) * n_tok))


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


def record_attempt(live: list[Segment], warp_base: np.ndarray,
                   construct_rows: list, construct_failed, wres,
                   attempt: int) -> None:
    """Append each live segment's :class:`AttemptRecord` of one program.

    ``warp_base`` cuts the fused warps into the segments;
    ``construct_rows`` holds each segment's construct rows, and
    ``wres.rows`` from ``wres.ptr[pos]`` its walk rows.
    ``construct_failed`` / ``wres.overflowed`` name overflowed warps by
    fused id, in the order they overflowed.
    """
    for pos, seg in enumerate(live):
        lo, hi = int(warp_base[pos]), int(warp_base[pos + 1])
        state_codes = wres.state_codes[lo:hi]
        seg.records.append(AttemptRecord(
            sub=seg.sub,
            tally=LaunchTally(state_codes, construct_rows[pos],
                              wres.rows[wres.ptr[pos]:wres.ptr[pos + 1]]),
            base_codes=wres.base_codes[lo:hi],
            base_lens=wres.base_lens[lo:hi],
            state_codes=state_codes,
            construct_failed=[w - lo for w in construct_failed
                              if lo <= w < hi],
            walk_failed=[w - lo for w in wres.overflowed if lo <= w < hi],
            attempt=attempt,
        ))
