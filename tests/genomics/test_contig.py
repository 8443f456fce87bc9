"""Tests for contigs and extension records."""

import pytest

from repro.errors import SequenceError
from repro.genomics.contig import Contig, ContigExtension, End
from repro.genomics.dna import decode
from repro.genomics.reads import Read, ReadSet


def _contig(seq="ACGTACGTACGT", name="c0"):
    return Contig.from_string(name, seq)


class TestContig:
    def test_basic(self):
        c = _contig()
        assert len(c) == 12
        assert c.sequence == "ACGTACGTACGT"
        assert c.depth == 0

    def test_empty_rejected(self):
        with pytest.raises(SequenceError):
            _contig("")

    def test_depth_counts_reads(self):
        c = _contig()
        c.reads = ReadSet([Read.from_strings("r", "ACGT")])
        assert c.depth == 1

    def test_end_kmer_right(self):
        assert decode(_contig("AACCGGTT").end_kmer(4, End.RIGHT)) == "GGTT"

    def test_end_kmer_left(self):
        assert decode(_contig("AACCGGTT").end_kmer(4, End.LEFT)) == "AACC"

    def test_end_kmer_too_long(self):
        with pytest.raises(SequenceError):
            _contig("ACG").end_kmer(4, End.RIGHT)

    def test_extended_sequence(self):
        c = _contig("CCCC")
        c.left_extension = ContigExtension(End.LEFT, "AA", "end", 4)
        c.right_extension = ContigExtension(End.RIGHT, "GG", "fork", 4)
        assert c.extended_sequence() == "AACCCCGG"
        assert c.total_extension_length() == 4

    def test_extension_len(self):
        assert len(ContigExtension(End.RIGHT, "ACG", "end", 21)) == 3

    def test_no_extension(self):
        c = _contig("CCCC")
        assert c.extended_sequence() == "CCCC"
        assert c.total_extension_length() == 0
