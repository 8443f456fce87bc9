"""Tests for the dict-based reference implementation."""

import numpy as np

from repro.core.extension import WalkPolicy, WalkState
from repro.core.reference import reference_table, reference_walk
from repro.genomics.reads import Read, ReadSet

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
