"""Tests for Algorithm 1 (the k-mer table) and table sizing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.construct import estimate_table_slots, insertions_for
from repro.core.reference import reference_table
from repro.errors import HashTableFullError
from repro.genomics.contig import Contig
from repro.genomics.reads import Read, ReadSet
from repro.kernels import create_backend


def _reads(*seqs):
    return ReadSet([Read.from_strings(f"r{i}", s) for i, s in enumerate(seqs)])


class TestInsertionCount:
    def test_single_read(self):
        # L - k insertions (each inserted k-mer needs a following base)
        assert insertions_for(_reads("ACGTACGT"), 4) == 4

    def test_read_shorter_than_k(self):
        assert insertions_for(_reads("ACG"), 4) == 0

    def test_read_length_exactly_k(self):
        assert insertions_for(_reads("ACGT"), 4) == 0  # no extension base

    def test_table2_relation(self):
        """Table II consistency: reads of length L give ~L-k insertions each."""
        rs = _reads(*("ACGT" * 40 for _ in range(10)))  # 10 reads of 160
        assert insertions_for(rs, 21) == 10 * (160 - 21)

    @given(st.integers(1, 50), st.integers(1, 60))
    def test_formula(self, k, length):
        rs = _reads("A" * length)
        assert insertions_for(rs, k) == max(0, length - k)


class TestSizing:
    def test_estimate_monotone(self):
        assert estimate_table_slots(100) >= estimate_table_slots(10)

    def test_floor(self):
        assert estimate_table_slots(0) == 16

    def test_load_factor_headroom(self):
        n = 1000
        assert estimate_table_slots(n, load_factor=0.5) >= 2 * n

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            estimate_table_slots(-1)
        with pytest.raises(ValueError):
            estimate_table_slots(10, load_factor=0.0)
        with pytest.raises(ValueError):
            estimate_table_slots(10, load_factor=1.5)


class TestBuild:
    def test_votes_recorded_with_quality_split(self):
        r = Read.from_strings("r", "AACGT", quals=None)
        r.quals = np.array([40, 40, 40, 40, 5], dtype=np.uint8)
        table = reference_table(ReadSet([r]), 2)
        # k-mer "AA" -> next base C (qual 40, hi)
        assert table["AA"].hi_q[1] == 1
        # k-mer "CG" -> next base T (qual 5, low)
        assert table["CG"].low_q[3] == 1

    def test_all_eligible_kmers_inserted(self):
        rs = _reads("ACGTACGTAC")
        table = reference_table(rs, 4)
        assert sum(v.count for v in table.values()) == insertions_for(rs, 4)
        assert set(table) == {"ACGT", "CGTA", "GTAC", "TACG"}

    def test_last_kmer_not_inserted(self):
        table = reference_table(_reads("ACGTA"), 4)
        # "ACGTA": only ACGT has a following base; CGTA does not.
        assert "ACGT" in table
        assert "CGTA" not in table

    def test_capacity_estimated_when_omitted(self):
        rs = _reads(*("ACGTACGTACGTACGT" for _ in range(3)))
        assert estimate_table_slots(insertions_for(rs, 4)) \
            >= len(reference_table(rs, 4))

    def test_explicit_capacity_respected(self):
        """The scalar backend's ``table_capacity`` bounds the distinct
        k-mers one end's table may hold: here the right end holds 4 and
        the left end (reverse-complemented reads) 5."""
        c = Contig.from_string("c", "ACGTACGT")
        c.reads = _reads("ACGTACGTT")
        sized = create_backend("scalar").run([c], 4)
        assert create_backend("scalar", table_capacity=5).run([c], 4) == sized
        with pytest.raises(HashTableFullError) as exc_info:
            create_backend("scalar", table_capacity=4).run([c], 4)
        err = exc_info.value
        assert (err.contig_id, err.k, err.capacity, err.probes) == (0, 4, 4, 4)

    def test_build_for_contig(self):
        c = Contig.from_string("c", "ACGTACGT")
        c.reads = _reads("ACGTACGTT")
        assert len(reference_table(c.reads, 4)) > 0
