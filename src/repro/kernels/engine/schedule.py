"""Launch scheduling: bins -> :class:`LaunchPlan` s -> launches.

The engine turns a contig set into an ordered list of launch plans (one
per bin per extension direction) through :class:`BinnedLaunchPolicy`,
the paper's Figure 3 pre-processing: depth-similar bins, capped by
aggregate table memory, each launched once per end (right first,
matching the GPU's separate right-/left-extension kernels).

:class:`KSchedule` is the on-device k schedule (Figures 2 and 4) every
backend shares: per contig end, the first *accepted* walk (anything but
a fork) at the smallest k wins, and forked ends retry at the next k,
keeping the longest extension if no k resolves the fork. A settled end
leaves the schedule — as the paper's warp leaves its mer-size loop — so
a later k launches only the ends that still fork: every schedule driver
plans a k through :func:`narrow_plans`. The settle/merge decisions run
as NumPy mask assignments over :class:`SideArrays`, the lockstep
per-contig result representation every backend's ``run`` fills.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.binning import Bin, bin_contigs, narrow_bin
from repro.core.construct import DEFAULT_LOAD_FACTOR
from repro.core.extension import CODE_TO_WALK_STATE, WALK_STATE_CODES, WalkState
from repro.errors import KernelError
from repro.genomics.contig import Contig, End
from repro.simt.counters import KernelProfile
from repro.simt.device import DeviceSpec

#: int8 codes the merge masks compare against.
MISSING_CODE = np.int8(WALK_STATE_CODES[WalkState.MISSING])
FORK_CODE = np.int8(WALK_STATE_CODES[WalkState.FORK])


@dataclass
class SideArrays:
    """One extension side (right or left) of a run, as lockstep arrays.

    Every backend's ``run`` writes its walks straight into these (the
    engine driver via one batched decode and array assignments, the
    scalar reference one contig end at a time), and :class:`KSchedule`
    merges them with boolean masks — no per-contig Python in between.
    The ``(bases, WalkState)`` tuple list every caller consumes is
    derived once at the end through :meth:`to_side`.
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

    def put(self, i: int, bases: str, state: WalkState) -> None:
        """Contig ``i``'s extension is ``bases``, ending in ``state``."""
        self.text[i] = bases
        self.lens[i] = len(bases)
        self.state_codes[i] = WALK_STATE_CODES[state]

    def to_side(self) -> list[tuple[str, WalkState]]:
        """The classic per-contig ``(bases, WalkState)`` list view."""
        states = [CODE_TO_WALK_STATE[c] for c in self.state_codes.tolist()]
        return list(zip(self.text.tolist(), states))


@dataclass
class KernelRunResult:
    """Functional + profiling output of a backend's ``run`` or
    ``run_schedule``.

    The diagnostics — ``replay``, ``trace``, ``sanitizer_report`` — are
    those of a kernel built to collect them, over every launch the call
    made (all k-runs of a schedule, in launch order). Like the array
    views they take no part in equality and no codec writes them.
    """

    device: DeviceSpec | None
    k: int
    profile: KernelProfile
    right: list[tuple[str, WalkState]] = field(default_factory=list)
    left: list[tuple[str, WalkState]] = field(default_factory=list)
    #: Contig indices whose extension was degraded (dropped on table
    #: overflow under ``OverflowPolicy.DROP_CONTIG``). Sorted, unique.
    degraded: list[int] = field(default_factory=list)
    #: Contig indices recovered by grow-retry re-launches. Sorted, unique.
    retried: list[int] = field(default_factory=list)
    #: Lockstep array view of ``right``/``left`` (same data), which
    #: :class:`KSchedule` merges with masks. ``None`` on a result restored
    #: from a checkpoint.
    right_arrays: SideArrays | None = field(default=None, compare=False,
                                            repr=False)
    left_arrays: SideArrays | None = field(default=None, compare=False,
                                           repr=False)
    #: Per-launch exact-replay measurements (``memory_model="trace"``).
    replay: list = field(default_factory=list, compare=False, repr=False)
    #: Slot-address traces, one array per launch that accessed a slot
    #: (``record_trace``).
    trace: list = field(default_factory=list, compare=False, repr=False)
    #: The :class:`~repro.sanitize.SanitizerReport` (``sanitize=``);
    #: ``None`` when not sanitizing.
    sanitizer_report: object | None = field(default=None, compare=False,
                                            repr=False)

    @classmethod
    def of_sides(cls, device: DeviceSpec | None, k: int,
                 profile: KernelProfile, right: SideArrays,
                 left: SideArrays, **rest) -> "KernelRunResult":
        """A result whose lists are derived from its two sides' arrays."""
        return cls(device, k, profile, right.to_side(), left.to_side(),
                   right_arrays=right, left_arrays=left, **rest)


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


class KSchedule:
    """Everything one running k schedule holds, and its outcome.

    Per contig end the best walk so far (:class:`SideArrays`) and
    whether it settled; the merged profile and the last k run; the
    ``degraded`` / ``retried`` sets; the diagnostics of every k-run.
    :meth:`pending` is what the next k launches, :attr:`done` whether
    there is one; :meth:`add` folds a k-run's :class:`KernelRunResult`
    in, :meth:`result` is the schedule's. A kernel's ``run_schedule``,
    the scalar backend's and each job of a coalesced wave accumulate
    through one, so their merges cannot drift apart.
    """

    def __init__(self, n_contigs: int, k_schedule: tuple[int, ...]) -> None:
        validate_k_schedule(k_schedule)
        self.k = k_schedule[0]
        self.profile: KernelProfile | None = None
        self.best = {end: SideArrays.empty(n_contigs)
                     for end in (End.RIGHT, End.LEFT)}
        self.settled = {end: np.zeros(n_contigs, dtype=bool)
                        for end in (End.RIGHT, End.LEFT)}
        self.degraded: set[int] = set()
        self.retried: set[int] = set()
        self.replay: list = []
        self.trace: list = []
        self.reports: list = []

    def pending(self) -> dict[End, np.ndarray]:
        """The next k's :func:`pending_ends`."""
        return pending_ends(self.settled[End.RIGHT], self.settled[End.LEFT])

    @property
    def done(self) -> bool:
        """Every end of every contig has an accepted walk."""
        return all(bool(s.all()) for s in self.settled.values())

    def add(self, k: int, res: KernelRunResult) -> None:
        """Fold the k-run ``res`` at ``k`` into the schedule."""
        self.k = k
        if self.profile is None:
            self.profile = res.profile
        else:
            self.profile.merge(res.profile)
        self._merge(End.RIGHT, res)
        self._merge(End.LEFT, res)
        self.degraded.update(res.degraded)
        self.retried.update(res.retried)
        self.replay.extend(res.replay)
        self.trace.extend(res.trace)
        if res.sanitizer_report is not None:
            self.reports.append(res.sanitizer_report)

    def _merge(self, end: End, res: KernelRunResult) -> None:
        """One side's settle step: unsettled ends take the new walk if it
        is *accepted* (any non-fork state) or at least as long as the
        held fork; accepted ends settle."""
        cur = res.right_arrays if end is End.RIGHT else res.left_arrays
        best, settled = self.best[end], self.settled[end]
        accepted = cur.state_codes != FORK_CODE
        upd = ~settled & (accepted | (cur.lens >= best.lens))
        best.text[upd] = cur.text[upd]
        best.lens[upd] = cur.lens[upd]
        best.state_codes[upd] = cur.state_codes[upd]
        settled |= accepted

    def result(self, device: DeviceSpec | None) -> KernelRunResult:
        """The schedule's outcome; ``k`` is the last k it ran."""
        assert self.profile is not None
        self.profile.contigs = len(self.settled[End.RIGHT])
        report = None
        if self.reports:
            # imported lazily: repro.sanitize imports the engine
            from repro.sanitize.report import SanitizerReport
            report = SanitizerReport(max_findings=self.reports[0].max_findings)
            for rep in self.reports:
                report.extend(rep)
        return KernelRunResult.of_sides(
            device, self.k, self.profile, self.best[End.RIGHT],
            self.best[End.LEFT], degraded=sorted(self.degraded),
            retried=sorted(self.retried), replay=self.replay,
            trace=self.trace, sanitizer_report=report)


def iterate_k_schedule(
    run_one: Callable[[int, dict], KernelRunResult],
    n_contigs: int,
    k_schedule: tuple[int, ...],
) -> KSchedule:
    """Drive the iterative k schedule over any backend's ``run``.

    ``run_one(k, pending)`` runs the k for the ends ``pending`` marks
    (:meth:`KSchedule.pending`: everything at the first k, afterwards
    only the ends whose walks have all forked) and returns the k-run's
    :class:`KernelRunResult`. Every k runs as its own launch sequence
    (tables must be rebuilt per k — the GPU cannot resize them). Returns
    the folded :class:`KSchedule`; its :meth:`~KSchedule.result` is the
    schedule's.
    """
    schedule = KSchedule(n_contigs, k_schedule)
    for k in k_schedule:
        if schedule.done:
            break
        schedule.add(k, run_one(k, schedule.pending()))
    return schedule
