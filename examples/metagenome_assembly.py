#!/usr/bin/env python
"""Metagenome local-assembly workflow (paper Figures 2 and 3).

Generates a scaled copy of the paper's k=21 dataset (Table II shapes),
runs the full GPU workflow on the simulated A100 — contig binning, hash
table size estimation, batched right/left extension kernels — and writes
the extended contigs to FASTA alongside a workload report.

Run:  python examples/metagenome_assembly.py
"""

from collections import Counter

from repro import PRODUCTION_POLICY, A100
from repro.core.binning import bin_contigs, binning_imbalance
from repro.datasets import generate_paper_dataset, measure_characteristics
from repro.genomics.io import write_fasta
from repro.kernels import backend_for_device

K = 21
SCALE = 0.02  # 2% of the paper's dataset; all per-contig shapes preserved

print(f"generating k={K} dataset at scale {SCALE} ...")
contigs = generate_paper_dataset(K, scale=SCALE)
m = measure_characteristics(contigs, K)
print(f"  {m.total_contigs} contigs, {m.total_reads} reads "
      f"(avg {m.average_read_length:.0f} bp), "
      f"{m.total_hash_insertions} hash insertions")

# The Figure 3 pre-processing: bin contigs by read count so each kernel
# launch gets warps with similar work.
bins = bin_contigs(contigs, K)
print(f"  binned into {len(bins)} launches "
      f"(work imbalance {binning_imbalance(contigs, bins, K):.2f}x; "
      f"unbinned would be "
      f"{binning_imbalance(contigs, [type(bins[0])(contig_indices=list(range(len(contigs))))], K):.2f}x)")

print(f"running the CUDA port on the simulated {A100.name} ...")
kernel = backend_for_device(A100, policy=PRODUCTION_POLICY)
result = kernel.run(contigs, K, parallel_scale=SCALE)

states = Counter(s.value for _, s in result.right)
states.update(s.value for _, s in result.left)
ext_bases = result.profile.extension_bases
print(f"  {result.profile.kernels_launched} kernel launches, "
      f"{result.profile.inserts} insertions, "
      f"{result.profile.mean_insert_probes:.2f} probes/insert")
print(f"  walk outcomes: {dict(states)}")
print(f"  extended contigs by {ext_bases} bases "
      f"({ext_bases / len(contigs):.1f} per contig; paper Table II: 48.2)")

records = []
for i, c in enumerate(contigs):
    right, _ = result.right[i]
    left, _ = result.left[i]
    records.append((c.name, left + c.sequence + right))
write_fasta(records, "extended_contigs.fa")
print("wrote extended_contigs.fa")
