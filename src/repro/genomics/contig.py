"""Contigs and their extension records.

A *contig* is a contiguous assembled region of the genome produced by the
global de Bruijn graph phase of MetaHipMer. Local assembly extends each
contig on both ends using only the reads that aligned near those ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.errors import SequenceError
from repro.genomics.dna import decode, encode
from repro.genomics.reads import ReadSet


class End(Enum):
    """Which end of a contig an extension applies to."""

    LEFT = "left"
    RIGHT = "right"


@dataclass
class ContigExtension:
    """Result of one mer-walk: the bases appended to one contig end.

    Attributes:
        end: which end was extended.
        bases: the appended bases (5'->3' in contig orientation).
        walk_state: terminal state of the walk ("end", "fork", "loop",
            "max_len", or "none" when no extension was possible).
        kmer_size: the k that produced this extension.
    """

    end: End
    bases: str
    walk_state: str
    kmer_size: int

    def __len__(self) -> int:
        return len(self.bases)


@dataclass
class Contig:
    """A contig plus the reads assigned to its ends.

    Attributes:
        name: contig identifier.
        codes: encoded contig bases.
        reads: reads aligned to this contig's ends (both ends pooled, as in
            the paper's datasets).
        left_extension / right_extension: filled in by the pipeline.
    """

    name: str
    codes: np.ndarray
    reads: ReadSet = field(default_factory=ReadSet)
    left_extension: ContigExtension | None = None
    right_extension: ContigExtension | None = None
    #: Which end each read aligned to (parallel to ``reads``). MetaHipMer's
    #: alignment phase assigns every read to one contig end; when absent,
    #: all reads serve both ends (fine for short test contigs).
    read_end_hints: list[End] | None = None

    def __post_init__(self) -> None:
        self.codes = encode(self.codes) if self.codes.dtype != np.uint8 else self.codes
        if len(self.codes) == 0:
            raise SequenceError(f"contig {self.name!r} is empty")

    @classmethod
    def from_string(cls, name: str, seq: str, reads: ReadSet | None = None) -> "Contig":
        return cls(name=name, codes=encode(seq), reads=reads or ReadSet())

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def sequence(self) -> str:
        return decode(self.codes)

    @property
    def depth(self) -> int:
        """Number of reads assigned to this contig (the binning key)."""
        return len(self.reads)

    def reads_for_end(self, end: End) -> ReadSet:
        """The reads aligned to ``end`` (all reads when no hints are set)."""
        if self.read_end_hints is None:
            return self.reads
        if len(self.read_end_hints) != len(self.reads):
            raise SequenceError(
                f"contig {self.name!r}: {len(self.read_end_hints)} end hints "
                f"for {len(self.reads)} reads"
            )
        return ReadSet([r for r, e in zip(self.reads, self.read_end_hints)
                        if e is end])

    def end_kmer(self, k: int, end: End) -> np.ndarray:
        """The seed k-mer for a walk from ``end`` (encoded, contig orientation)."""
        if k > len(self.codes):
            raise SequenceError(
                f"contig {self.name!r} shorter ({len(self.codes)}) than k={k}"
            )
        if end is End.RIGHT:
            return self.codes[-k:]
        return self.codes[:k]

    def extended_sequence(self) -> str:
        """Contig sequence with any accepted extensions spliced on."""
        left = self.left_extension.bases if self.left_extension else ""
        right = self.right_extension.bases if self.right_extension else ""
        return left + self.sequence + right

    def total_extension_length(self) -> int:
        return (len(self.left_extension) if self.left_extension else 0) + (
            len(self.right_extension) if self.right_extension else 0
        )
