"""The paper's kernel, as a CPU library: de Bruijn graphs via k-mer tables.

* :mod:`repro.core.reference` — Algorithm 1 (the k-mer table of
  extension votes) and Algorithm 2 (DNA walks), with dicts and strings.
* :mod:`repro.core.extension` — hi/low-quality extension votes and the
  walk-step resolution rule (extend / end / fork).
* :mod:`repro.core.construct` — Algorithm 1's insertion count and table
  sizing.
* :mod:`repro.core.binning` — contig binning + hash-table size estimation
  (the pre-processing phase of Figure 3).

The iterative k schedule over these (Figure 2) is the registered
``scalar`` backend, ``repro.kernels.create_backend("scalar")``. The
GPU's open-addressed ``loc_ht`` is modelled by
:mod:`repro.kernels.vectortable`.
"""

from repro.core.extension import ExtensionVotes, WalkState, resolve_extension
from repro.core.construct import estimate_table_slots
from repro.core.binning import Bin, bin_contigs

__all__ = [
    "ExtensionVotes",
    "WalkState",
    "resolve_extension",
    "estimate_table_slots",
    "Bin",
    "bin_contigs",
]
