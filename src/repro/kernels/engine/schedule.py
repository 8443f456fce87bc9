"""Launch scheduling: bins -> :class:`LaunchPlan` s -> launches.

The engine turns a contig set into an ordered list of launch plans (one
per bin per extension direction) through :class:`BinnedLaunchPolicy`,
the paper's Figure 3 pre-processing: depth-similar bins, capped by
aggregate table memory, each launched once per end (right first,
matching the GPU's separate right-/left-extension kernels).

:func:`iterate_k_schedule` is the shared on-device k-schedule driver
(Figures 2 and 4) used by every backend: per contig end, the first
*accepted* walk (anything but a fork) at the smallest k wins, and forked
ends retry at the next k, keeping the longest extension if no k resolves
the fork. A settled end leaves the schedule — as the paper's warp leaves
its mer-size loop — so a later k launches only the ends that still fork:
every schedule driver plans a k through :func:`narrow_plans`. The
settle/merge decisions run as NumPy mask assignments over
:class:`SideArrays` (the lockstep per-contig result representation the
engine driver scatters into); backends that only produce the per-contig
``(bases, WalkState)`` lists fall back to a derivation at the boundary.
The pre-refactor per-contig merge loop survives as
:func:`repro.kernels.engine.oracle.iterate_k_schedule_scalar`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.core.binning import Bin, bin_contigs, narrow_bin
from repro.core.construct import DEFAULT_LOAD_FACTOR
from repro.core.extension import CODE_TO_WALK_STATE, WALK_STATE_CODES, WalkState
from repro.errors import KernelError
from repro.genomics.contig import Contig, End
from repro.simt.counters import KernelProfile

#: int8 codes the merge masks compare against.
MISSING_CODE = np.int8(WALK_STATE_CODES[WalkState.MISSING])
FORK_CODE = np.int8(WALK_STATE_CODES[WalkState.FORK])


@dataclass
class SideArrays:
    """One extension side (right or left) of a run, as lockstep arrays.

    The engine driver scatters every launch's accepted walks straight
    into these (text via one batched decode, lengths and terminal state
    codes as array assignments), and :func:`iterate_k_schedule` merges
    them with boolean masks — no per-contig Python in between. The
    ``(bases, WalkState)`` tuple list every caller consumes is derived
    once at the end through :meth:`to_side`.
    """

    text: np.ndarray         #: object array of per-contig extension strings
    lens: np.ndarray         #: int64 extension lengths (== len of text)
    state_codes: np.ndarray  #: int8 :data:`WALK_STATE_CODES` per contig

    @classmethod
    def empty(cls, n: int) -> "SideArrays":
        """All contigs unextended: ``("", MISSING)`` in array form."""
        return cls(text=np.full(n, "", dtype=object),
                   lens=np.zeros(n, dtype=np.int64),
                   state_codes=np.full(n, MISSING_CODE, dtype=np.int8))

    @classmethod
    def from_side(cls, side: list[tuple[str, WalkState]]) -> "SideArrays":
        """Boundary derivation for backends that only build the list."""
        n = len(side)
        text = np.empty(n, dtype=object)
        text[:] = [b for b, _ in side]
        lens = np.fromiter((len(b) for b, _ in side),
                           dtype=np.int64, count=n)
        codes = np.fromiter((WALK_STATE_CODES[s] for _, s in side),
                            dtype=np.int8, count=n)
        return cls(text=text, lens=lens, state_codes=codes)

    def to_side(self) -> list[tuple[str, WalkState]]:
        """The classic per-contig ``(bases, WalkState)`` list view."""
        states = [CODE_TO_WALK_STATE[c] for c in self.state_codes.tolist()]
        return list(zip(self.text.tolist(), states))


@dataclass(frozen=True)
class LaunchConfig:
    """Knobs a launch policy may consult when planning."""

    depth_ratio: float = 2.0
    max_batch_insertions: int | None = None
    load_factor: float = DEFAULT_LOAD_FACTOR


@dataclass(frozen=True)
class LaunchPlan:
    """One kernel launch: a bin of contigs extended in one direction."""

    bin: Bin
    end: End
    k: int


class BinnedLaunchPolicy:
    """Figure 3: depth-similar bins, one launch per bin per end."""

    def plan(self, contigs: list[Contig], k: int,
             config: LaunchConfig) -> list[LaunchPlan]:
        bins = bin_contigs(contigs, k, config.depth_ratio,
                           config.max_batch_insertions, config.load_factor)
        return [LaunchPlan(bin=b, end=end, k=k)
                for b in bins for end in (End.RIGHT, End.LEFT)]


def pending_ends(settled_r, settled_l) -> dict[End, np.ndarray]:
    """A schedule's *pending set* before a k: per end, a bool array over
    the contigs, set where the end has no accepted walk yet."""
    return {End.RIGHT: ~np.asarray(settled_r, dtype=bool),
            End.LEFT: ~np.asarray(settled_l, dtype=bool)}


def narrow_plans(plans: list[LaunchPlan], contigs: list[Contig],
                 pending: dict[End, np.ndarray]) -> list[LaunchPlan]:
    """The launches a k-schedule still makes of ``plans``: every plan
    narrowed to the contigs whose end is pending (:func:`pending_ends`),
    plans left empty dropped, order kept."""
    out: list[LaunchPlan] = []
    for plan in plans:
        keep = pending[plan.end][plan.bin.contig_indices]
        if keep.all():
            out.append(plan)
        elif keep.any():
            out.append(replace(plan, bin=narrow_bin(
                plan.bin, keep.tolist(), contigs, plan.k)))
    return out


def validate_k_schedule(k_schedule: tuple[int, ...]) -> None:
    if not k_schedule or list(k_schedule) != sorted(set(k_schedule)):
        raise KernelError(
            f"k_schedule must be strictly increasing, got {k_schedule}"
        )


def merge_k_side(cur: SideArrays, best: SideArrays,
                 settled: np.ndarray) -> None:
    """One side's settle/merge step of the iterative k schedule.

    Unsettled ends take the new walk if it is *accepted* (any non-fork
    state) or at least as long as the held fork; accepted ends settle.
    Mutates ``best`` and ``settled`` in place. Shared by
    :func:`iterate_k_schedule` and the coalescing driver
    (:mod:`repro.kernels.engine.coalesce`), whose per-job merges must
    carry identical semantics to stay byte-identical with solo runs.
    """
    accepted = cur.state_codes != FORK_CODE
    # unsettled ends take the new walk if it is accepted (any
    # non-fork state) or at least as long as the held fork
    upd = ~settled & (accepted | (cur.lens >= best.lens))
    best.text[upd] = cur.text[upd]
    best.lens[upd] = cur.lens[upd]
    best.state_codes[upd] = cur.state_codes[upd]
    settled |= accepted


def iterate_k_schedule(
    run_one: Callable[[int, dict], "object"],
    n_contigs: int,
    k_schedule: tuple[int, ...],
) -> tuple[int, KernelProfile, list, list]:
    """Drive the iterative k schedule over any backend's ``run``.

    ``run_one(k, pending)`` runs the k for the ends ``pending`` marks
    (:func:`pending_ends`: everything at the first k, afterwards only
    the ends whose walks have all forked — whatever else it returns is
    ignored) and must return a :class:`KernelRunResult`-shaped object
    (``right``/``left`` lists of ``(bases, WalkState)`` plus ``profile``).
    Returns ``(last_k, merged_profile, right, left)``. Every k runs as
    its own launch sequence (tables must be rebuilt per k — the GPU
    cannot resize them); profiles of all launches merge.
    """
    validate_k_schedule(k_schedule)
    merged: KernelProfile | None = None
    best_r = SideArrays.empty(n_contigs)
    best_l = SideArrays.empty(n_contigs)
    settled_r = np.zeros(n_contigs, dtype=bool)
    settled_l = np.zeros(n_contigs, dtype=bool)
    last_k = k_schedule[0]
    for k in k_schedule:
        if settled_r.all() and settled_l.all():
            break
        last_k = k
        res = run_one(k, pending_ends(settled_r, settled_l))
        if merged is None:
            merged = res.profile
        else:
            merged.merge(res.profile)
        for arrays, side, settled, best in (
            (getattr(res, "right_arrays", None), res.right, settled_r, best_r),
            (getattr(res, "left_arrays", None), res.left, settled_l, best_l),
        ):
            cur = arrays if arrays is not None else SideArrays.from_side(side)
            merge_k_side(cur, best, settled)
    assert merged is not None
    merged.contigs = n_contigs
    return last_k, merged, best_r.to_side(), best_l.to_side()
