"""A settled contig end leaves the k-schedule (DESIGN.md decision 25).

Warps are independent, so nothing a contig computes — and nothing the
simulated GPU is charged for it — may depend on who it was scheduled
with. The property below needs no oracle: a contig's extensions, states
and additive integer counters inside any ``run_schedule`` or coalesced
wave must be those of its own solo schedule. Before the pending set was
part of the schedule a co-scheduled contig was re-launched at every k
until the *last* end of the launch settled, so it was charged for k-runs
its solo schedule never makes — and a table overflow in one of those
runs degraded (or, under ``raise``, aborted) a result that was final.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import PRODUCTION_POLICY, WalkPolicy, WalkState
from repro.datasets.scenarios import get_scenario
from repro.genomics.contig import Contig, End
from repro.genomics.dna import decode, random_sequence
from repro.genomics.reads import Read, ReadSet
from repro.genomics.simulate import (PERFECT_READS, ErrorProfile,
                                     ScenarioSpec, simulate_batch)
from repro.kernels import CudaLocalAssemblyKernel
from repro.kernels.engine import (BatchPreparer, BinnedLaunchPolicy,
                                  LaunchConfig, LaunchStarted,
                                  narrow_plans, pending_ends,
                                  run_schedule_coalesced)
from repro.simt.device import A100

KS = (21, 33, 55)

#: Profile counters that are sums over warps of integer per-warp counts.
ADDITIVE = ("inserts", "insert_probe_iterations", "lookups",
            "lookup_probe_iterations", "extension_bases", "atomics")


def _repeat_contig(rng, name, core_len):
    """A contig ending in a ``core_len``-base repeat with two read
    families diverging after it: its right walk forks at every
    k <= ``core_len`` and resolves above, its left end settles at once."""
    core = decode(random_sequence(core_len, rng))
    pre = [decode(random_sequence(60, rng)) for _ in range(2)]
    post = [decode(random_sequence(60, rng)) for _ in range(2)]
    contig = Contig.from_string(name, pre[0] + core)
    contig.reads = ReadSet()
    for i in range(4):
        for fam in range(2):
            contig.reads.append(Read.from_strings(
                f"{name}.{fam}.{i}", pre[fam] + core + post[fam]))
    return contig


def _dataset(seed, n_plain, depth, error_rate, cores):
    """``n_plain`` simulated contigs (errors make some ends fork) plus
    one repeat contig per entry of ``cores``, shuffled."""
    rng = np.random.default_rng(seed)
    spec = ScenarioSpec(contig_length=160, flank_length=60, read_length=80,
                        depth=depth, seed_window=40)
    contigs = [sc.contig for sc in simulate_batch(
        n_plain, spec, rng, ErrorProfile(error_rate=error_rate,
                                         lo_quality_fraction=0.1))]
    contigs += [_repeat_contig(rng, f"rep{i}", core)
                for i, core in enumerate(cores)]
    return [contigs[i] for i in rng.permutation(len(contigs))]


def _kernel(cls=CudaLocalAssemblyKernel, **kw):
    return cls(A100, policy=PRODUCTION_POLICY, **kw)


def _counts(profile):
    return {name: getattr(profile, name) for name in ADDITIVE}


def _total(results):
    return {name: sum(getattr(r.profile, name) for r in results)
            for name in ADDITIVE}


class LaunchWarps:
    """Warps of every ``LaunchStarted``, summed per k."""

    handled_events = (LaunchStarted,)

    def __init__(self):
        self.by_k = {}

    def handle(self, event, bus):
        if isinstance(event, LaunchStarted):
            self.by_k[event.k] = self.by_k.get(event.k, 0) + event.n_warps


datasets = st.builds(
    _dataset,
    seed=st.integers(0, 2**16),
    n_plain=st.integers(1, 4),
    depth=st.sampled_from([4, 6, 9]),
    error_rate=st.sampled_from([0.0, 0.01, 0.03]),
    cores=st.lists(st.sampled_from([24, 36, 58]), min_size=0, max_size=2),
)


class TestCoSchedulingInvariance:
    @settings(max_examples=12, deadline=None)
    @given(contigs=datasets, data=st.data())
    def test_a_contig_runs_its_solo_schedule_wherever_it_is(self, contigs,
                                                            data):
        solo = [_kernel().run_schedule([c], KS) for c in contigs]

        kern = _kernel()
        launched = kern.add_subscriber(LaunchWarps())
        together = kern.run_schedule(contigs, KS)
        assert together.right == [s.right[0] for s in solo]
        assert together.left == [s.left[0] for s in solo]
        assert _counts(together.profile) == _total(solo)

        # no launch of a k carries an end that had settled before it:
        # an end is unsettled exactly while its merged state is FORK
        unsettled = 2 * len(contigs)
        for i, k in enumerate(KS):
            assert launched.by_k.get(k, 0) == unsettled
            prefix = _kernel().run_schedule(contigs, KS[:i + 1])
            unsettled = sum(state is WalkState.FORK for side in
                            (prefix.right, prefix.left) for _, state in side)

        # any regrouping into the jobs of one coalesced wave
        groups = data.draw(st.lists(st.integers(0, 2), min_size=len(contigs),
                                    max_size=len(contigs)))
        jobs = [[i for i, g in enumerate(groups) if g == j] for j in range(3)]
        jobs = [job for job in jobs if job]
        wave = run_schedule_coalesced(
            _kernel(), [[contigs[i] for i in job] for job in jobs], KS)
        for job, out in zip(jobs, wave):
            assert out.error is None
            assert out.result.right == [solo[i].right[0] for i in job]
            assert out.result.left == [solo[i].left[0] for i in job]
            assert _counts(out.result.profile) == _total(
                [solo[i] for i in job])


class TestNarrowPlans:
    def _plans(self, contigs, k=33):
        return BinnedLaunchPolicy().plan(contigs, k, LaunchConfig())

    def test_everything_pending_changes_nothing(self):
        contigs = _dataset(3, 4, 6, 0.0, [24])
        plans = self._plans(contigs)
        none = np.zeros(len(contigs), dtype=bool)
        assert narrow_plans(plans, contigs, pending_ends(none, none)) == plans

    def test_per_end_and_empty_plans_dropped(self):
        contigs = _dataset(4, 4, 6, 0.0, [24])
        plans = self._plans(contigs)
        settled_r = np.ones(len(contigs), dtype=bool)
        settled_l = np.zeros(len(contigs), dtype=bool)
        settled_l[[0, 2]] = True
        narrowed = narrow_plans(plans, contigs,
                                pending_ends(settled_r, settled_l))
        assert all(p.end is End.LEFT for p in narrowed)
        kept = [ci for p in narrowed for ci in p.bin.contig_indices]
        assert sorted(kept) == [1, 3, 4]
        for p in narrowed:
            assert p.k == 33
            assert len(p.bin.table_slots) == len(p.bin.contig_indices)
            depths = [contigs[ci].depth for ci in p.bin.contig_indices]
            assert (p.bin.min_depth, p.bin.max_depth) == (min(depths),
                                                          max(depths))


# ----------------------------------------------------------------------
# the shape the flatten cache served: nobody ever settles
# ----------------------------------------------------------------------

#: ``run_schedule`` over :func:`_tandem_contigs` before the flatten cache
#: went (its 4 hits and 2 misses aside): what must not have moved.
TANDEM_RIGHT = ["CGTGG", "CGCGT", "ACGCC", "ACGAA", "ACTGAGC"]
TANDEM_LEFT = ["TTACT", "TCCTC", "GTGGT", "TGTCG", "GCTTG"]
TANDEM_PROFILE = {
    "atomics": 141615, "construct_chain_cycles": 633480.0,
    "construct_intops": 44121420, "contigs": 5, "contigs_dropped": 0,
    "extension_bases": 156, "hbm_bytes": 13085760.0,
    "insert_probe_iterations": 144490, "inserts": 141480,
    "intops": 44188318, "kernels_launched": 6,
    "l1_hit_bytes": 10251008.0, "l2_hit_bytes": 9525132.8,
    "lane_instructions": 44123476, "lookup_probe_iterations": 186,
    "lookups": 186, "overflow_retries": 0, "prep_cache_evictions": 0,
    "seconds": 0.0, "serial_depth": 1906, "sync_ops": 13292,
    "walk_chain_cycles": 23086.0, "walk_intops": 66898,
    "walk_issue_width": 32, "walk_steps": 156,
    "warp_instructions": 1488252, "warp_size": 32,
}


def _tandem_contigs():
    """Five contigs cut from inside the ``tandem_repeat`` scenario's
    4 x 30-base repeat, each with all of its genome's reads: walking
    out of the repeat, staying in it outvotes leaving it by at most
    3 : 1, which a dominance of 4 calls a fork at every k of ``KS``."""
    scenario = get_scenario("tandem_repeat")
    contigs = []
    for seed in (1, 2, 5, 6, 7):
        data = scenario.build(seed=seed)
        contigs.append(Contig(name=f"tandem{seed}",
                              codes=data.genomes[0][305:415].copy(),
                              reads=data.reads))
    return contigs


class TestNobodySettles:
    def test_every_end_forks_at_every_k_and_nothing_moved(self):
        contigs = _tandem_contigs()
        policy = WalkPolicy(dominance=4)
        solo = CudaLocalAssemblyKernel(A100, policy=policy).run_schedule(
            contigs, KS)
        wave, = run_schedule_coalesced(
            CudaLocalAssemblyKernel(A100, policy=policy), [contigs], KS)
        for res in (solo, wave.result):
            assert res.k == KS[-1]
            assert res.right == [(b, WalkState.FORK) for b in TANDEM_RIGHT]
            assert res.left == [(b, WalkState.FORK) for b in TANDEM_LEFT]
            assert res.degraded == [] and res.retried == []
            profile = dataclasses.asdict(res.profile)
            # every launch flattens: one bin, both ends, three k
            assert profile.pop("prep_cache_hits") == 0
            assert profile.pop("prep_cache_misses") == 6
            assert profile == TANDEM_PROFILE


# ----------------------------------------------------------------------
# the bug that falls out: a late overflow on a contig already final
# ----------------------------------------------------------------------


class PressureAfterFirstK(BatchPreparer):
    """No room at all, from k = 33 on, for the contigs named ``done*``."""

    def finish(self, flat, contigs, end, k):
        batch = super().finish(flat, contigs, end, k)
        if k == KS[0]:
            return batch
        starved = [contigs[ci].name.startswith("done")
                   for ci in batch.contig_ids]
        return dataclasses.replace(
            batch, capacities=np.where(starved, 1, batch.capacities))


class PressuredKernel(CudaLocalAssemblyKernel):
    preparer_cls = PressureAfterFirstK


def _settled_and_forking():
    """Two contigs final at k = 21 (named ``done*``) and two repeat
    contigs that keep the schedule going to k = 55."""
    rng = np.random.default_rng(11)
    spec = ScenarioSpec(contig_length=160, flank_length=60, read_length=80,
                        depth=6, seed_window=40)
    done = [sc.contig for sc in simulate_batch(2, spec, rng, PERFECT_READS)]
    for i, contig in enumerate(done):
        contig.name = f"done{i}"
    return [done[0], _repeat_contig(rng, "rep0", 24), done[1],
            _repeat_contig(rng, "rep1", 36)]


class TestLateOverflowLeavesSettledContigsAlone:
    @pytest.mark.parametrize("policy", ["raise", "drop-contig", "grow-retry"])
    def test_run_schedule(self, policy):
        contigs = _settled_and_forking()
        at_21 = _kernel().run(contigs, KS[0])
        assert [s is WalkState.FORK for _, s in at_21.right + at_21.left] \
            == [False, True, False, True] + [False] * 4
        want = _kernel().run_schedule(contigs, KS)
        assert want.k == 55
        got = _kernel(PressuredKernel, overflow_policy=policy).run_schedule(
            contigs, KS)     # ``raise`` used to abort here
        assert (got.right, got.left) == (want.right, want.left)
        assert got.degraded == [] and got.retried == []
        assert _counts(got.profile) == _counts(want.profile)

    @pytest.mark.parametrize("policy", ["raise", "drop-contig", "grow-retry"])
    def test_run_schedule_coalesced(self, policy):
        contigs = _settled_and_forking()
        jobs = [contigs[:2], contigs[2:]]
        want = [_kernel().run_schedule(job, KS) for job in jobs]
        wave = run_schedule_coalesced(
            _kernel(PressuredKernel, overflow_policy=policy), jobs, KS)
        for out, solo in zip(wave, want):
            assert out.error is None
            assert (out.result.right, out.result.left) == (solo.right,
                                                           solo.left)
            assert out.result.degraded == [] and out.result.retried == []
