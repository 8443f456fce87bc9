"""The stage registry: payload round-trips, feed-forward mechanics,
kernel/CPU local-assembly parity, and n50 properties."""

import copy
import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.extension import PRODUCTION_POLICY
from repro.genomics.reads import MAX_PHRED, ReadSet
from repro.genomics.simulate import PERFECT_READS, sequence_read, simulate_genome
from repro.metahipmer.pipeline import DeNovoAssembler
from repro.metahipmer.stages import (
    STAGE_ORDER,
    STAGES,
    RoundState,
    carry_forward_reads,
    n50,
)

from ..codec_keys import assert_reads_every_key


def _reads(rng, genome, read_len=70, step=12):
    out = ReadSet()
    starts = list(range(0, len(genome) - read_len + 1, step))
    starts.append(len(genome) - read_len)
    for i, s in enumerate(sorted(set(starts))):
        out.append(sequence_read(genome, s, read_len, rng, PERFECT_READS,
                                 name=f"r{i}"))
    return out


@pytest.fixture(scope="module")
def small_input():
    rng = np.random.default_rng(42)
    genome = simulate_genome(600, rng)
    return genome, _reads(rng, genome)


class TestRegistry:
    def test_order_and_names(self):
        assert STAGE_ORDER == ("kmers", "contigs", "align", "extend", "merge")
        assert set(STAGES) == set(STAGE_ORDER)
        for name, stage in STAGES.items():
            assert stage.name == name


class TestCarryForward:
    def test_empty_carried_is_identity(self, small_input):
        _, reads = small_input
        assert carry_forward_reads(reads, [], 2) is reads

    def test_multiplicity_and_quality(self, small_input):
        from repro.genomics.contig import Contig

        _, reads = small_input
        carried = [Contig.from_string("c0", "ACGTACGTACGTACGTACGTA")]
        out = carry_forward_reads(reads, carried, 3)
        pseudo = [r for r in out if r.name.startswith("__carry/")]
        assert len(pseudo) == 3
        assert len(out) == len(reads) + 3
        for r in pseudo:
            assert r.sequence == "ACGTACGTACGTACGTACGTA"
            assert (r.quals == MAX_PHRED).all()
        # the input set is never mutated
        assert not any(r.name.startswith("__carry/") for r in reads)

    def test_copies_floor_is_one(self, small_input):
        from repro.genomics.contig import Contig

        _, reads = small_input
        out = carry_forward_reads(reads, [Contig.from_string("c", "ACGT")], 0)
        assert sum(r.name.startswith("__carry/") for r in out) == 1


class TestPayloadRoundTrips:
    """run() on one state, restore() into a fresh one: equal results,
    and each restore reads every key its run wrote, and no other.

    Payloads also survive JSON (what CheckpointStore actually persists).
    """

    def _run_until(self, asm, state, last):
        import json

        payloads = {}
        for name in STAGE_ORDER:
            payloads[name] = json.loads(json.dumps(
                STAGES[name].run(asm, state)))
            if name == last:
                break
        return payloads

    def test_every_stage_restores(self, small_input):
        _, reads = small_input
        asm = DeNovoAssembler(k_schedule=(21,))
        computed = RoundState(k=21, reads=reads)
        payloads = self._run_until(asm, computed, "merge")

        restored = RoundState(k=21, reads=reads)
        for name in STAGE_ORDER:
            assert_reads_every_key(
                functools.partial(STAGES[name].restore, asm, restored),
                payloads[name])

        assert restored.spectrum.counts == computed.spectrum.counts
        assert restored.spectrum.singletons_dropped == \
            computed.spectrum.singletons_dropped
        assert [c.sequence for c in restored.contigs] == \
            [c.sequence for c in computed.contigs]
        assert restored.align_stats == computed.align_stats
        for a, b in zip(restored.contigs, computed.contigs):
            assert [r.sequence for r in a.reads] == \
                [r.sequence for r in b.reads]
            assert a.read_end_hints == b.read_end_hints
            assert a.extended_sequence() == b.extended_sequence()
        assert restored.extension_bases == computed.extension_bases
        assert [c.sequence for c in restored.merged] == \
            [c.sequence for c in computed.merged]
        assert restored.stats == computed.stats

    def test_old_extend_payload_with_steps_restores(self, small_input):
        """The extend payload carries no walk step count; a checkpoint
        written while it did still restores."""
        _, reads = small_input
        asm = DeNovoAssembler(k_schedule=(21,))
        computed = RoundState(k=21, reads=reads)
        payloads = self._run_until(asm, computed, "extend")
        exts = [ext for entry in payloads["extend"]["extensions"]
                for ext in entry.values() if ext is not None]
        assert exts and not any("steps" in ext for ext in exts)
        for ext in exts:
            ext["steps"] = 7

        restored = RoundState(k=21, reads=reads)
        for name in ("kmers", "contigs", "align", "extend"):
            STAGES[name].restore(asm, restored, payloads[name])
        assert [c.extended_sequence() for c in restored.contigs] == \
            [c.extended_sequence() for c in computed.contigs]


class TestKernelParity:
    def test_kernel_and_cpu_agree_on_extension_bases(self, small_input):
        """The simulated-GPU kernel and the CPU pipeline must walk the
        same extensions when driven through ``_local_assembly``."""
        from repro.kernels import HipLocalAssemblyKernel
        from repro.simt.device import MI250X

        _, reads = small_input
        cpu_asm = DeNovoAssembler(k_schedule=(21,))
        state = RoundState(k=21, reads=reads)
        for name in ("kmers", "contigs", "align"):
            STAGES[name].run(cpu_asm, state)
        assert state.contigs

        gpu_contigs = copy.deepcopy(state.contigs)
        cpu_total = cpu_asm._local_assembly(state.contigs, 21)

        kern = HipLocalAssemblyKernel(MI250X, policy=PRODUCTION_POLICY)
        gpu_asm = DeNovoAssembler(k_schedule=(21,), kernel=kern)
        gpu_total = gpu_asm._local_assembly(gpu_contigs, 21)

        assert cpu_total == gpu_total
        for c_cpu, c_gpu in zip(state.contigs, gpu_contigs):
            assert c_cpu.left_extension.bases == c_gpu.left_extension.bases
            assert c_cpu.right_extension.bases == c_gpu.right_extension.bases
            assert c_cpu.extended_sequence() == c_gpu.extended_sequence()


class TestN50Properties:
    def test_empty(self):
        assert n50([]) == 0

    def test_single(self):
        assert n50([7]) == 7

    @given(st.integers(min_value=1, max_value=10_000),
           st.integers(min_value=1, max_value=50))
    def test_all_equal(self, length, count):
        assert n50([length] * count) == length

    @given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1))
    def test_result_is_a_member(self, lengths):
        assert n50(lengths) in lengths

    @given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1),
           st.randoms())
    def test_permutation_invariant(self, lengths, rnd):
        shuffled = list(lengths)
        rnd.shuffle(shuffled)
        assert n50(lengths) == n50(shuffled)

    @given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1))
    def test_at_least_half_mass_above(self, lengths):
        value = n50(lengths)
        above = sum(x for x in lengths if x >= value)
        assert above >= sum(lengths) / 2
