#!/usr/bin/env python
"""de Bruijn graph walkthrough (paper Figure 1).

Reproduces the figure's example — the sequence ``AGCCCTCCCG`` segmented
into k-mers, the k-mer table of extension votes, and how a larger k
resolves the fork — using the library's Algorithm 1 and Algorithm 2
(:mod:`repro.core.reference`, what the ``scalar`` backend runs).

Run:  python examples/debruijn_overview.py
"""

from repro.core.extension import WalkPolicy, describe_votes
from repro.core.reference import reference_table, reference_walk
from repro.genomics.kmer import kmers_of
from repro.genomics.reads import Read, ReadSet

SEQ = "AGCCCTCCCG"
POLICY = WalkPolicy(min_depth=1, hi_q_min_depth=1)

print(f"input sequence: {SEQ}\n")

for k in (3, 4, 6):
    print(f"--- k = {k} ---")
    print(f"k-mers: {' '.join(kmers_of(SEQ, k))}")
    reads = ReadSet([Read.from_strings("a", SEQ), Read.from_strings("b", SEQ)])
    table = reference_table(reads, k)
    print("k-mer table (key -> extension votes):")
    for kmer in sorted(table):
        print(f"  {kmer} -> {describe_votes(table[kmer])}")
    bases, state, _ = reference_walk(table, SEQ[:k], policy=POLICY)
    reconstructed = SEQ[:k] + bases
    print(f"walk from {SEQ[:k]}: +{bases!r} -> {reconstructed} "
          f"({state.value})")
    if state.value == "fork":
        print("  ^ the fork the figure shows: at this k the graph is ambiguous")
    elif reconstructed == SEQ:
        print("  ^ larger k resolves the fork: the walk recovers the sequence")
    print()
