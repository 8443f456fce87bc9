"""The exact-replay memory model: TraceReplaySubscriber + EventBus.wants."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.genomics.contig import Contig
from repro.genomics.dna import decode, random_sequence
from repro.genomics.reads import Read, ReadSet
from repro.genomics.simulate import PERFECT_READS, ScenarioSpec, simulate_batch
from repro.kernels import CudaLocalAssemblyKernel, HipLocalAssemblyKernel
from repro.kernels.engine import (
    EventBus,
    ProbeIteration,
    SlotAccess,
    TraceReplaySubscriber,
    replay_l2_hit_rate,
    replay_suggested_l2_churn,
)
from repro.simt.device import A100, MI250X
from repro.simt.memory import CacheHierarchy

SPEC = ScenarioSpec(contig_length=160, flank_length=50, read_length=80,
                    depth=6, seed_window=40)


def _contigs(n=3, seed=5):
    rng = np.random.default_rng(seed)
    return [sc.contig for sc in simulate_batch(n, SPEC, rng, PERFECT_READS)]


class TestTraceMemoryModel:
    def test_rejects_unknown_model(self):
        with pytest.raises(KernelError):
            CudaLocalAssemblyKernel(A100, memory_model="exact-ish")

    def test_trace_mode_changes_no_result(self):
        contigs = _contigs()
        analytic = CudaLocalAssemblyKernel(A100).run(contigs, 21)
        kern = CudaLocalAssemblyKernel(A100, memory_model="trace")
        traced = kern.run(contigs, 21)
        assert tuple(traced.right) == tuple(analytic.right)
        assert tuple(traced.left) == tuple(analytic.left)
        assert traced.profile.intops == analytic.profile.intops
        assert traced.profile.hbm_bytes == analytic.profile.hbm_bytes

    def test_replay_matches_scalar_hierarchy_per_launch(self):
        """The subscriber's batched replay == the seed scalar hierarchy
        fed the recorded trace of the same launch (atomic semantics)."""
        contigs = _contigs()
        kern = CudaLocalAssemblyKernel(A100, memory_model="trace")
        kern.record_trace = True
        res = kern.run(contigs, 21)
        assert res.replay
        # traces with zero accesses record no array; align on the rest
        nonzero = [s for s in res.replay if s.accesses]
        assert len(nonzero) == len(res.trace)
        for stats, trace in zip(nonzero, res.trace):
            scalar = CacheHierarchy(A100)
            counts = scalar.access_trace(trace, atomic=True)
            assert stats.accesses == trace.size
            assert (stats.l1, stats.l2, stats.hbm) == (
                counts["l1"], counts["l2"], counts["hbm"])
            assert stats.hbm_bytes == scalar.hbm_bytes
            assert stats.l1 == 0  # atomics bypass the L1

    def test_cold_lines_and_hit_rates(self):
        kern = CudaLocalAssemblyKernel(A100, memory_model="trace")
        launches = kern.run(_contigs(), 21).replay
        for s in launches:
            assert 0 < s.cold_lines <= s.accesses
            assert s.hbm >= s.cold_lines  # cold lines all missed
            assert 0.0 <= s.l2_hit_rate <= s.warm_l2_hit_rate <= 1.0
        assert 0.0 <= replay_l2_hit_rate(launches) <= 1.0
        assert replay_suggested_l2_churn(A100, launches) >= 1.0

    def test_run_schedule_accumulates_launches(self):
        """A fork at k=21 retries at k=33; the replay log keeps both ks
        (the Figure 1 construction, as in the run_schedule tests)."""
        rng = np.random.default_rng(3)
        core = decode(random_sequence(25, rng))
        pre = [decode(random_sequence(60, rng)) for _ in range(2)]
        post = [decode(random_sequence(60, rng)) for _ in range(2)]
        contig = Contig.from_string("forky", pre[0] + core)
        reads = ReadSet()
        for i in range(4):
            reads.append(Read.from_strings(f"a{i}", pre[0] + core + post[0]))
            reads.append(Read.from_strings(f"b{i}", pre[1] + core + post[1]))
        contig.reads = reads
        kern = CudaLocalAssemblyKernel(A100, memory_model="trace")
        launches = kern.run_schedule([contig], (21, 33)).replay
        assert {s.k for s in launches} == {21, 33}
        assert replay_l2_hit_rate(launches) >= 0.0

    def test_small_l2_misses_more(self):
        """The paper's cache story holds in exact replay: the MI250X's
        8 MB L2 serves fewer probes than the A100's 40 MB L2."""
        contigs = _contigs(n=6, seed=11)
        big = CudaLocalAssemblyKernel(A100, memory_model="trace")
        small = HipLocalAssemblyKernel(
            MI250X.with_(l2=MI250X.l2.__class__(64 * 1024, 64, 250)),
            memory_model="trace")
        assert (replay_l2_hit_rate(small.run(contigs, 21).replay, warm=False)
                < replay_l2_hit_rate(big.run(contigs, 21).replay, warm=False))


class TestEventBusWants:
    def test_empty_bus_wants_nothing(self):
        assert not EventBus().wants(SlotAccess)

    def test_declared_subscriber_filters(self):
        bus = EventBus()

        class Declared:
            handled_events = (ProbeIteration,)

            def handle(self, event, bus):
                pass

        bus.subscribe(Declared())
        assert bus.wants(ProbeIteration)
        assert not bus.wants(SlotAccess)

    def test_undeclared_subscriber_wants_everything(self):
        bus = EventBus()

        class Spy:
            def handle(self, event, bus):
                pass

        bus.subscribe(Spy())
        assert bus.wants(SlotAccess)

    def test_subscribe_invalidates_the_cache(self):
        bus = EventBus()
        assert not bus.wants(SlotAccess)
        bus.subscribe(TraceReplaySubscriber(A100))
        assert bus.wants(SlotAccess)

    def test_emit_on_empty_bus_is_a_noop(self):
        EventBus().emit(object())  # must not raise

    def test_slot_access_reaches_undeclared_subscribers(self):
        """An external subscriber without a declaration still sees the
        hot-loop SlotAccess stream (the guard must not starve it)."""
        seen = []

        class Spy:
            def handle(self, event, bus):
                if isinstance(event, SlotAccess):
                    seen.append(event.slots.size)

        kern = CudaLocalAssemblyKernel(A100)
        kern.add_subscriber(Spy())
        kern.run(_contigs(), 21)
        assert sum(seen) > 0
