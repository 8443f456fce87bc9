"""The MetaHipMer pipeline around the local-assembly kernel (Figure 2).

The paper studies one phase of MetaHipMer; this subpackage implements the
rest of the (single-node form of the) pipeline so that local assembly can
be exercised in its real context, end-to-end from raw reads:

* :mod:`repro.metahipmer.kmer_analysis` — k-mer counting with a Bloom
  prefilter and the "drop k-mers that occur once" error filter.
* :mod:`repro.metahipmer.global_graph` — the global de Bruijn graph and
  unitig-style contig generation.
* :mod:`repro.metahipmer.alignment` — seed-and-extend read-to-contig
  alignment and the assignment of reads to contig *ends* that the local
  assembly module consumes.
* :mod:`repro.metahipmer.stages` — the named pipeline stages (``kmers``,
  ``contigs``, ``align``, ``extend``, ``merge``) in the :data:`STAGES`
  registry, each with a JSON checkpoint codec.
* :mod:`repro.metahipmer.pipeline` — the iterative de novo assembler:
  the staged rounds over the k = 21, 33, 55, 77 schedule, with per-round
  feed-forward of merged contigs and per-stage checkpoint/resume
  (``repro assemble --checkpoint-dir D --resume``).
"""

from repro.metahipmer.kmer_analysis import BloomFilter, KmerSpectrum, count_kmers_filtered
from repro.metahipmer.global_graph import GlobalDeBruijnGraph, generate_contigs
from repro.metahipmer.alignment import AlignmentHit, ReadAligner, assign_reads_to_ends
from repro.metahipmer.stages import STAGE_ORDER, STAGES, RoundState, carry_forward_reads
from repro.metahipmer.pipeline import (
    AssemblyStats,
    DeNovoAssembler,
    DeNovoResult,
    n50,
    reads_fingerprint,
)
from repro.metahipmer.smith_waterman import (
    BandedAligner,
    LocalAlignment,
    smith_waterman,
)

__all__ = [
    "BandedAligner",
    "LocalAlignment",
    "smith_waterman",
    "BloomFilter",
    "KmerSpectrum",
    "count_kmers_filtered",
    "GlobalDeBruijnGraph",
    "generate_contigs",
    "AlignmentHit",
    "ReadAligner",
    "assign_reads_to_ends",
    "AssemblyStats",
    "DeNovoAssembler",
    "DeNovoResult",
    "RoundState",
    "STAGES",
    "STAGE_ORDER",
    "carry_forward_reads",
    "n50",
    "reads_fingerprint",
]
