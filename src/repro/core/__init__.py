"""The paper's kernel, as a CPU library: de Bruijn graphs via hash tables.

* :mod:`repro.core.hashtable` — the ``loc_ht`` open-addressing table.
* :mod:`repro.core.extension` — hi/low-quality extension votes and the
  walk-step resolution rule (extend / end / fork).
* :mod:`repro.core.construct` — Algorithm 1 (hash-table construction).
* :mod:`repro.core.merwalk` — Algorithm 2 (DNA walks).
* :mod:`repro.core.binning` — contig binning + hash-table size estimation
  (the pre-processing phase of Figure 3).
* :mod:`repro.core.reference` — a deliberately simple dict-based
  implementation used for differential testing.

The iterative k schedule over these (Figure 2) is the registered
``scalar`` backend, ``repro.kernels.create_backend("scalar")``.
"""

from repro.core.hashtable import EMPTY_SLOT, LocalHashTable, Slot
from repro.core.extension import ExtensionVotes, WalkState, resolve_extension
from repro.core.construct import build_table, estimate_table_slots
from repro.core.merwalk import WalkResult, mer_walk
from repro.core.binning import Bin, bin_contigs

__all__ = [
    "EMPTY_SLOT",
    "LocalHashTable",
    "Slot",
    "ExtensionVotes",
    "WalkState",
    "resolve_extension",
    "build_table",
    "estimate_table_slots",
    "WalkResult",
    "mer_walk",
    "Bin",
    "bin_contigs",
]
