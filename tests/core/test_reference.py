"""Tests for the dict-based reference implementation and differential checks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import WalkPolicy, WalkState
from repro.core.reference import reference_extend, reference_table, reference_walk
from repro.genomics.contig import End
from repro.genomics.reads import Read, ReadSet
from repro.genomics.simulate import PERFECT_READS, ScenarioSpec, simulate_contig_scenario
from repro.kernels import create_backend

RELAXED = WalkPolicy(min_depth=1, hi_q_min_depth=1)


class TestReferenceTable:
    def test_counts(self):
        rs = ReadSet([Read.from_strings("r", "AAAA")])
        t = reference_table(rs, 2)
        assert t["AA"].count == 2  # positions 0,1 have following bases

    def test_votes_quality_split(self):
        r = Read.from_strings("r", "ACG")
        r.quals = np.array([40, 40, 5], dtype=np.uint8)
        t = reference_table(ReadSet([r]), 2)
        assert t["AC"].low_q[2] == 1  # next base G with qual 5


class TestReferenceWalk:
    def test_linear(self):
        rs = ReadSet([Read.from_strings("r", "GATTACA")])
        t = reference_table(rs, 3)
        bases, state, steps = reference_walk(t, "GAT", policy=RELAXED)
        assert bases == "TACA"
        assert state is WalkState.END

    def test_missing(self):
        bases, state, _ = reference_walk({}, "AAA", policy=RELAXED)
        assert state is WalkState.MISSING and bases == ""

    def test_max_len(self):
        rs = ReadSet([Read.from_strings("r", "GATTCCGGA")])
        t = reference_table(rs, 3)
        bases, state, _ = reference_walk(t, "GAT", max_walk_len=2, policy=RELAXED)
        assert state is WalkState.MAX_LEN and len(bases) == 2


class TestDifferentialPipeline:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_pipeline_matches_reference_single_k(self, seed):
        """The scalar backend at a single k equals reference_extend."""
        rng = np.random.default_rng(seed)
        spec = ScenarioSpec(contig_length=150, flank_length=50, read_length=70,
                            depth=6, seed_window=40)
        sc = simulate_contig_scenario(spec, rng, PERFECT_READS)
        k = 21
        ref = reference_extend(sc.contig, k)
        got = create_backend("scalar").run([sc.contig], k)
        assert got.right[0] == ref[End.RIGHT]
        assert got.left[0] == ref[End.LEFT]
