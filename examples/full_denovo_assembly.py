#!/usr/bin/env python
"""Complete de novo metagenome assembly (the whole Figure 2 pipeline).

Simulates a small metagenome (three organisms at different abundances,
as the paper's co-assembly discussion motivates), sequences noisy reads,
and runs every pipeline stage: k-mer analysis with error filtering →
global de Bruijn graph → contig generation → read-to-end alignment →
the local-assembly kernel (on the simulated A100) — then validates the
assembly against the hidden ground truth.

Run:  python examples/full_denovo_assembly.py
"""

import numpy as np

from repro import A100, PRODUCTION_POLICY
from repro.analysis.report import render_table
from repro.genomics.dna import decode, reverse_complement
from repro.genomics.reads import ReadSet
from repro.genomics.simulate import ErrorProfile, sequence_read, simulate_genome
from repro.kernels import backend_for_device
from repro.metahipmer import DeNovoAssembler, n50

rng = np.random.default_rng(7)

# --- the metagenomic sample: three organisms, uneven abundance ---------
ORGANISMS = [("bug_A", 1600, 10), ("bug_B", 1100, 7), ("bug_C", 700, 5)]
READ_LEN = 100
profile = ErrorProfile(error_rate=0.002)

genomes = {}
reads = ReadSet()
i = 0
for name, length, depth in ORGANISMS:
    genome = simulate_genome(length, rng)
    genomes[name] = decode(genome)
    for _ in range(int(length * depth / READ_LEN)):
        start = int(rng.integers(0, length - READ_LEN + 1))
        reads.append(sequence_read(genome, start, READ_LEN, rng, profile,
                                   name=f"{name}/r{i}"))
        i += 1
print(f"sample: {len(ORGANISMS)} organisms, {len(reads)} reads "
      f"({reads.total_bases} bases)")

# --- assemble, with local assembly running on the simulated A100 -------
kernel = backend_for_device(A100, policy=PRODUCTION_POLICY)
assembler = DeNovoAssembler(k_schedule=(21, 33), kernel=kernel)
result = assembler.assemble(reads)

print("\nper-round statistics:")
rows = [[r.k, r.solid_kmers, r.contigs, r.total_bases, r.n50,
         r.reads_assigned, r.extension_bases] for r in result.rounds]
print(render_table(["k", "solid k-mers", "contigs", "bases", "N50",
                    "reads->ends", "ext bases"], rows))

# --- validate against ground truth --------------------------------------
matched, mismatched = 0, 0
per_org = {name: 0 for name in genomes}
for c in result.contigs:
    seq = c.extended_sequence()
    rc = reverse_complement(seq)
    hit = None
    for name, g in genomes.items():
        if seq in g or rc in g:
            hit = name
            break
    if hit:
        matched += 1
        per_org[hit] += len(seq)
    else:
        mismatched += 1

print(f"\ncontigs matching an organism exactly: {matched}/{matched + mismatched}")
print("recovered bases per organism:")
for name, length, _ in ORGANISMS:
    frac = per_org[name] / length
    print(f"  {name}: {per_org[name]}/{length} ({100 * frac:.0f}%)")
print(f"assembly N50 (after extension): {result.final_n50}")
