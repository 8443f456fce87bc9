"""Tests for the CPU local assembler — the ``scalar`` backend — and the
k-schedule rule every backend folds through (:class:`KSchedule`)."""

import inspect

import numpy as np
import pytest

from repro.core.extension import PRODUCTION_POLICY, WalkState
from repro.errors import KernelError
from repro.genomics.contig import Contig
from repro.genomics.dna import decode, random_sequence
from repro.genomics.reads import Read, ReadSet
from repro.genomics.simulate import (
    PERFECT_READS,
    ErrorProfile,
    ScenarioSpec,
    simulate_batch,
    simulate_contig_scenario,
)
from repro.kernels import create_backend
from repro.kernels.engine.schedule import (
    KernelRunResult,
    KSchedule,
    SideArrays,
    iterate_k_schedule,
)
from repro.simt.counters import KernelProfile
from repro.simt.device import A100

SPEC = ScenarioSpec(contig_length=260, flank_length=80, read_length=100,
                    depth=10, seed_window=60)


def _assembler(**kw):
    return create_backend("scalar", **kw)


def _extend(contigs, ks=(21, 33)):
    return _assembler().run_schedule(contigs, ks)


def _fork_contig(rng, length=None):
    """Figure 1: two source sequences share a 25-base core, so a k=21
    right walk forks inside it and k=33 tells them apart. ``length``
    keeps only the contig's last ``length`` bases."""
    core = decode(random_sequence(25, rng))
    a_pre = decode(random_sequence(60, rng))
    b_pre = decode(random_sequence(60, rng))
    a_post = decode(random_sequence(60, rng))
    b_post = decode(random_sequence(60, rng))
    seq = a_pre + core
    contig = Contig.from_string("c", seq[-length:] if length else seq)
    reads = ReadSet()
    for i in range(4):
        reads.append(Read.from_strings(f"a{i}", a_pre + core + a_post))
        reads.append(Read.from_strings(f"b{i}", b_pre + core + b_post))
    contig.reads = reads
    return contig, a_post


class TestConstruction:
    def test_default_schedule(self):
        """MetaHipMer's production schedule (Figure 2)."""
        params = inspect.signature(_assembler().run_schedule).parameters
        assert params["k_schedule"].default == (21, 33, 55, 77)

    def test_rejects_empty_schedule(self):
        contig, _ = _fork_contig(np.random.default_rng(1))
        with pytest.raises(KernelError):
            _extend([contig], ())

    def test_rejects_non_increasing_schedule(self):
        contig, _ = _fork_contig(np.random.default_rng(1))
        with pytest.raises(KernelError):
            _extend([contig], (33, 21))
        with pytest.raises(KernelError):
            _extend([contig], (21, 21))


class TestExtension:
    def test_right_extension_matches_truth(self):
        rng = np.random.default_rng(42)
        sc = simulate_contig_scenario(SPEC, rng, PERFECT_READS)
        bases, _ = _extend([sc.contig]).right[0]
        assert len(bases) > 10
        assert sc.true_right_flank.startswith(bases)

    def test_left_extension_matches_truth(self):
        rng = np.random.default_rng(43)
        sc = simulate_contig_scenario(SPEC, rng, PERFECT_READS)
        bases, _ = _extend([sc.contig]).left[0]
        assert len(bases) > 10
        assert sc.true_left_flank.endswith(bases)

    def test_extended_sequence_is_region_substring(self):
        rng = np.random.default_rng(44)
        sc = simulate_contig_scenario(SPEC, rng, PERFECT_READS)
        res = _extend([sc.contig])
        extended = res.left[0][0] + sc.contig.sequence + res.right[0][0]
        assert extended in decode(sc.region)

    def test_extensions_with_sequencing_errors(self):
        """Majority voting should still recover true flank prefixes."""
        rng = np.random.default_rng(45)
        profile = ErrorProfile(error_rate=0.003)
        spec = ScenarioSpec(contig_length=260, flank_length=80, read_length=100,
                            depth=16, seed_window=60)
        ok = 0
        for _ in range(5):
            sc = simulate_contig_scenario(spec, rng, profile)
            bases, _ = _extend([sc.contig]).right[0]
            if bases and sc.true_right_flank.startswith(bases):
                ok += 1
        assert ok >= 3

    def test_batch_assemble(self):
        """Contigs are independent: a batch equals each contig alone."""
        rng = np.random.default_rng(46)
        contigs = [sc.contig for sc in simulate_batch(4, SPEC, rng,
                                                      PERFECT_READS)]
        res = _extend(contigs)
        assert len(res.right) == len(res.left) == 4
        for i, contig in enumerate(contigs):
            alone = _extend([contig])
            assert (res.right[i], res.left[i]) == (alone.right[0],
                                                   alone.left[0])

    def test_contig_shorter_than_k(self):
        rng = np.random.default_rng(48)
        spec = ScenarioSpec(contig_length=30, flank_length=40, read_length=50,
                            depth=6, seed_window=20)
        sc = simulate_contig_scenario(spec, rng, PERFECT_READS)
        at21 = _assembler().run([sc.contig], 21)
        sched = _extend([sc.contig], (21, 33, 55))
        # k=33,55 exceed the contig: only k=21 built a table
        assert sched.profile.inserts == at21.profile.inserts

    def test_fork_triggers_next_k(self):
        """Figure 1: a fork at small k is resolved at larger k."""
        contig, a_post = _fork_contig(np.random.default_rng(49))
        assert _assembler().run([contig], 21).right[0][1] is WalkState.FORK
        res = _extend([contig], (21, 33))
        bases, state = res.right[0]
        assert res.k == 33
        assert state is not WalkState.FORK
        assert bases  # resolved at k=33
        assert a_post.startswith(bases)


def _k_run(k, right, left=("", WalkState.END)):
    """A scripted one-contig k-run whose ends walked ``right`` / ``left``."""
    sides = SideArrays.empty(1), SideArrays.empty(1)
    sides[0].put(0, *right)
    sides[1].put(0, *left)
    return KernelRunResult.of_sides(None, k, KernelProfile(), *sides)


class TestKeepLongestAccepted:
    """Pin the k-schedule rule of :meth:`KSchedule.add`.

    An accepted walk (anything but a fork) must win over a *longer* fork
    kept from an earlier k — a fork's bases stop at an unresolved branch,
    so preferring them by length alone would report unresolved guesses
    over a clean termination. Among forks the longest is kept. An
    accepted walk settles its end, so the schedule stops there.
    """

    def _fold(self, *runs):
        ks = tuple(k for k, _ in runs)
        schedule = KSchedule(1, ks)
        for k, right in runs:
            schedule.add(k, _k_run(k, right))
        return schedule.result(None)

    def test_accepted_walk_beats_longer_fork(self):
        res = self._fold((21, ("ACGTACGTACGT", WalkState.FORK)),
                         (33, ("ACGT", WalkState.END)))
        assert res.right[0] == ("ACGT", WalkState.END)
        assert res.k == 33

    def test_longest_fork_kept_when_nothing_accepted(self):
        res = self._fold((21, ("ACGTACGTACGT", WalkState.FORK)),
                         (33, ("ACG", WalkState.FORK)))
        assert res.right[0] == ("ACGTACGTACGT", WalkState.FORK)

    def _iterate(self, walk):
        """Run (21, 33) over a backend that always walks ``walk``;
        returns the ks it ran and the schedule's result."""
        ran = []

        def run_one(k, pending):
            ran.append(k)
            return _k_run(k, walk)

        return ran, iterate_k_schedule(run_one, 1, (21, 33)).result(None)

    def test_accepted_non_missing_stops_the_schedule(self):
        ran, res = self._iterate(("ACGTA", WalkState.END))
        assert ran == [21]
        assert res.right[0] == ("ACGTA", WalkState.END)
        assert res.k == 21

    def test_missing_settles_the_end(self):
        """Missing is accepted too: it stops the schedule like any
        non-fork state."""
        ran, res = self._iterate(("", WalkState.MISSING))
        assert ran == [21]
        assert res.right[0] == ("", WalkState.MISSING)

    def test_fork_on_contig_shorter_than_next_k_ends_missing(self):
        """A fork at k=21 on a contig shorter than 33: the next k has no
        seed k-mer, so its walk is missing, and missing is accepted."""
        res = self._fold((21, ("", WalkState.FORK)),
                         (33, ("", WalkState.MISSING)))
        assert res.right[0] == ("", WalkState.MISSING)
        contig, _ = _fork_contig(np.random.default_rng(49), length=30)
        scalar = _assembler(policy=PRODUCTION_POLICY)
        assert scalar.run([contig], 21).right[0][1] is WalkState.FORK
        cuda = create_backend("cuda", device=A100, policy=PRODUCTION_POLICY)
        want = cuda.run_schedule([contig], (21, 33))
        got = scalar.run_schedule([contig], (21, 33))
        assert got.right[0] == want.right[0] == ("", WalkState.MISSING)
        assert got.left == want.left
