"""Parity: the megabatch engine vs the pinned pre-refactor oracle.

The lockstep refactor (DESIGN.md decision #14) must be *bit-identical*
to the per-warp scalar path it replaced — same extensions, same walk
states, same merged profiles, same per-type event counts, same overflow
outcomes. The pre-refactor implementations survive verbatim in
:mod:`repro.kernels.engine.oracle`; these tests drive both over the
same scenarios, including hypothesis-drawn ones, and require equality
on everything observable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import PRODUCTION_POLICY
from repro.genomics.simulate import ErrorProfile, ScenarioSpec, simulate_batch
from repro.kernels import CudaLocalAssemblyKernel, HipLocalAssemblyKernel
from repro.kernels.engine import iterate_k_schedule_scalar, oracle_kernel_cls
from repro.kernels.engine.schedule import iterate_k_schedule
from repro.resilience.checkpoint import profile_to_dict
from repro.simt.device import A100, MI250X


class EventCounter:
    """Counts every event by type; declares no ``handled_events``, so the
    bus forces the gated slot/barrier events on for both engines."""

    def __init__(self):
        self.counts = {}

    def handle(self, event, bus):
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1


def _contigs(n, seed, error_rate=0.0, depth=6, read_length=80):
    rng = np.random.default_rng(seed)
    spec = ScenarioSpec(contig_length=150, flank_length=60,
                        read_length=read_length, depth=depth, seed_window=40)
    errors = ErrorProfile(error_rate=error_rate,
                          lo_quality_fraction=0.1 if error_rate else 0.0)
    return [sc.contig for sc in simulate_batch(n, spec, rng, errors)]


def _run_counted(kernel_cls, device, contigs, ks, **opts):
    kern = kernel_cls(device, policy=PRODUCTION_POLICY, **opts)
    counter = kern.add_subscriber(EventCounter())
    return kern.run_schedule(contigs, ks), counter.counts


def assert_schedule_parity(mega, oracle):
    res_m, ev_m = mega
    res_o, ev_o = oracle
    assert res_m.right == res_o.right
    assert res_m.left == res_o.left
    assert res_m.k == res_o.k
    assert res_m.degraded == res_o.degraded
    assert res_m.retried == res_o.retried
    assert profile_to_dict(res_m.profile) == profile_to_dict(res_o.profile)
    assert ev_m == ev_o


class TestScheduleParity:
    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 2**16),
           err=st.sampled_from([0.0, 0.01, 0.03]))
    def test_hypothesis_parity(self, n, seed, err):
        contigs = _contigs(n, seed, error_rate=err)
        ks = (21, 33)
        oracle_cls = oracle_kernel_cls(CudaLocalAssemblyKernel)
        assert_schedule_parity(
            _run_counted(CudaLocalAssemblyKernel, A100, contigs, ks),
            _run_counted(oracle_cls, A100, contigs, ks))

    def test_hip_protocol_parity(self):
        """The HIP protocol (no in-iteration merges, __all done-flag loop)
        takes different branches in _insert_wave; cover it explicitly."""
        contigs = _contigs(4, seed=11, error_rate=0.01)
        ks = (21, 33, 45)
        oracle_cls = oracle_kernel_cls(HipLocalAssemblyKernel)
        assert_schedule_parity(
            _run_counted(HipLocalAssemblyKernel, MI250X, contigs, ks),
            _run_counted(oracle_cls, MI250X, contigs, ks))

    @staticmethod
    def _starved_parity(**policy):
        """Megabatch vs oracle with two tables of launch 0 starved."""
        from repro.resilience import (FaultInjector, FaultKind, FaultPlan,
                                      FaultSpec)

        contigs = _contigs(5, seed=7, error_rate=0.02, depth=10)
        ks = (21, 33)

        def opts():
            inj = FaultInjector(FaultPlan(faults=(
                FaultSpec(FaultKind.TABLE_PRESSURE, launch=0, warps=(0, 2),
                          capacity=4),
            )))
            return dict(fault_injector=inj, **policy)

        oracle_cls = oracle_kernel_cls(CudaLocalAssemblyKernel)
        mega = _run_counted(CudaLocalAssemblyKernel, A100, contigs, ks,
                            **opts())
        assert_schedule_parity(
            mega, _run_counted(oracle_cls, A100, contigs, ks, **opts()))
        return mega

    def test_overflow_parity_drop_contig(self):
        """Starved tables overflow; the DROP_CONTIG degraded sets must
        match the oracle exactly (same warps die, same survivors)."""
        res, events = self._starved_parity(overflow_policy="drop-contig")
        assert res.degraded  # the pressured tables actually overflowed
        assert events["ContigDropped"] and "ContigRetried" not in events

    @pytest.mark.parametrize("max_grow_attempts,dropped", [(12, False),
                                                           (1, True)],
                             ids=["recovers", "exhausted"])
    def test_overflow_parity_grow_retry(self, max_grow_attempts, dropped):
        """The other branches of the shared settle step, through the
        oracle's scalar scatter: a retry that recovers, and one that is
        still too small after its last attempt (retried, then dropped)."""
        res, events = self._starved_parity(
            overflow_policy="grow-retry", max_grow_attempts=max_grow_attempts)
        assert res.retried and events["ContigRetried"]
        assert bool(res.degraded) == dropped == ("ContigDropped" in events)

    @pytest.mark.parametrize("policy", [
        dict(overflow_policy="drop-contig"),
        dict(overflow_policy="grow-retry", max_grow_attempts=1),
    ], ids=["drop-contig", "grow-retry"])
    def test_overflow_vote_parity(self, policy):
        """Deferred overflow against the one vote flush per launch: a
        lane that retired before its warp overflowed still votes, a lane
        that never retired adds none. Table by table, slot by slot, the
        votes equal the oracle kernel's per-slot ``np.add.at`` arrays;
        warp by warp they equal the lanes its vote ``SlotWrite`` events
        announced."""
        from repro.resilience import (FaultInjector, FaultKind, FaultPlan,
                                      FaultSpec)

        contigs = _contigs(5, seed=7, error_rate=0.02, depth=10)
        starved = (0, 2)

        class VoteWrites:
            """Warp ids of every vote write of the first launch."""

            def __init__(self):
                self.launches, self.warps = 0, []

            def handle(self, event, bus):
                if type(event).__name__ == "LaunchStarted":
                    self.launches += 1
                elif (type(event).__name__ == "SlotWrite"
                      and event.kind == "vote" and self.launches == 1):
                    self.warps.append(event.warps)

        def tables_of(kernel_cls, subscriber=None, **opts):
            kern = kernel_cls(A100, policy=PRODUCTION_POLICY, **opts)
            seen = []
            if subscriber is not None:
                kern.add_subscriber(subscriber)

            class Recorded(kern.tables_cls):
                def __init__(self, capacities, k):
                    super().__init__(capacities, k)
                    seen.append(self)

            kern.tables_cls = Recorded
            kern.run_schedule(contigs, (21, 33))
            return seen

        def pressure():
            return dict(policy, fault_injector=FaultInjector(FaultPlan(faults=(
                FaultSpec(FaultKind.TABLE_PRESSURE, launch=0, warps=starved,
                          capacity=4),))))

        announced = VoteWrites()
        mega = tables_of(CudaLocalAssemblyKernel, announced, **pressure())
        oracle = tables_of(oracle_kernel_cls(CudaLocalAssemblyKernel),
                           **pressure())
        assert len(mega) == len(oracle)
        for m, o in zip(mega, oracle):
            everything = np.arange(m.total_slots)
            for got, want in zip(m.votes_at(everything),
                                 o.votes_at(everything)):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(m.count, o.count)

        def votes_per_warp(tables):
            return np.add.reduceat(tables.count, tables.offsets[:-1])

        clean = tables_of(CudaLocalAssemblyKernel)
        got, full = votes_per_warp(mega[0]), votes_per_warp(clean[0])
        np.testing.assert_array_equal(got, np.bincount(
            np.concatenate(announced.warps), minlength=len(got)))
        for w in range(len(full)):
            if w in starved:  # some lanes retired, the rest never did
                assert 0 < got[w] < full[w]
            else:
                assert got[w] == full[w]

    def test_trace_memory_model_and_sanitizer_parity(self):
        """Full instrumentation: byte-accurate traced traffic plus every
        sanitizer check, megabatch vs oracle."""
        contigs = _contigs(3, seed=23, error_rate=0.01)
        ks = (21, 33)
        opts = dict(memory_model="trace", sanitize="all")
        oracle_cls = oracle_kernel_cls(CudaLocalAssemblyKernel)
        kern_m = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY, **opts)
        kern_o = oracle_cls(A100, policy=PRODUCTION_POLICY, **opts)
        cnt_m = kern_m.add_subscriber(EventCounter())
        cnt_o = kern_o.add_subscriber(EventCounter())
        res_m = kern_m.run_schedule(contigs, ks)
        res_o = kern_o.run_schedule(contigs, ks)
        assert_schedule_parity((res_m, cnt_m.counts), (res_o, cnt_o.counts))
        rep_m, rep_o = res_m.sanitizer_report, res_o.sanitizer_report
        assert rep_m is not None and rep_o is not None
        assert not rep_m.findings and not rep_o.findings


class TestMergeParity:
    """`iterate_k_schedule` (mask assignments) vs the pinned per-contig
    scalar merge loop, driven by the same deterministic backend."""

    def _both(self, contigs, ks, kernel_cls=CudaLocalAssemblyKernel,
              device=A100):
        def run_one_factory():
            kern = kernel_cls(device, policy=PRODUCTION_POLICY)
            return lambda k, pending: kern.run(contigs, k, pending=pending)
        n = len(contigs)
        vec = iterate_k_schedule(run_one_factory(), n, ks).result(None)
        sca = iterate_k_schedule_scalar(run_one_factory(), n, ks).result(None)
        return vec, sca

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), err=st.sampled_from([0.0, 0.02]))
    def test_merge_decisions_match(self, seed, err):
        contigs = _contigs(3, seed, error_rate=err)
        vec, sca = self._both(contigs, (21, 33, 45))
        assert vec.k == sca.k
        assert vec.right == sca.right and vec.left == sca.left
        assert profile_to_dict(vec.profile) == profile_to_dict(sca.profile)

    def test_early_settle_breaks_identically(self):
        """Perfect reads settle every end at the first k; both merge
        loops must stop there (same last_k, same single-k profile)."""
        contigs = _contigs(4, seed=3, error_rate=0.0)
        vec, sca = self._both(contigs, (21, 33, 55))
        assert vec.k == sca.k
        assert profile_to_dict(vec.profile) == profile_to_dict(sca.profile)
