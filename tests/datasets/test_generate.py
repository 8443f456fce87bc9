"""Tests for the Table II dataset generator."""

import hashlib

import pytest

from repro.core.extension import PRODUCTION_POLICY
from repro.datasets.characteristics import TABLE_II, measure_characteristics
from repro.datasets.generate import generate_paper_dataset
from repro.errors import DatasetError
from repro.genomics.contig import End

SCALE = 0.01
#: See ``test_paper_grid_inputs_are_pinned``.
PAPER_GRID_SHA256 = "4f30319254d82aad4f24820935a5932057443c5f7c389260596a50a599ab885a"


@pytest.fixture(scope="module")
def dataset21():
    return generate_paper_dataset(21, scale=SCALE, seed=7)


class TestShapes:
    @pytest.mark.parametrize("k", [21, 33, 55, 77])
    def test_input_columns_close_to_targets(self, k):
        contigs = generate_paper_dataset(k, scale=SCALE)
        m = measure_characteristics(contigs, k)
        t = TABLE_II[k].scaled(SCALE)
        assert m.total_contigs == t.total_contigs
        assert m.total_reads == pytest.approx(t.total_reads, rel=0.03)
        assert m.average_read_length == pytest.approx(t.average_read_length, rel=0.03)
        assert m.total_hash_insertions == pytest.approx(
            t.total_hash_insertions, rel=0.05
        )

    def test_deterministic(self):
        a = generate_paper_dataset(33, scale=SCALE, seed=5)
        b = generate_paper_dataset(33, scale=SCALE, seed=5)
        assert [c.sequence for c in a] == [c.sequence for c in b]
        assert all(
            ra.sequence == rb.sequence
            for ca, cb in zip(a, b)
            for ra, rb in zip(ca.reads, cb.reads)
        )

    def test_different_seeds_differ(self):
        a = generate_paper_dataset(33, scale=SCALE, seed=5)
        b = generate_paper_dataset(33, scale=SCALE, seed=6)
        assert any(ca.sequence != cb.sequence for ca, cb in zip(a, b))

    def test_paper_grid_inputs_are_pinned(self):
        """sha256 over every contig's and read's name and codes, and every
        read's qualities, of the twelve inputs the paper grid is measured
        on (scale 0.1): a change to the generator's arithmetic must not
        change a byte of them."""
        digest = hashlib.sha256()
        for k in (21, 33, 55, 77):
            for seed in (5, 11, 2024):
                for c in generate_paper_dataset(k, scale=0.1, seed=seed):
                    digest.update(c.name.encode() + c.codes.tobytes())
                    for r in c.reads:
                        digest.update(str(r.name).encode() + r.codes.tobytes()
                                      + r.quals.tobytes())
        assert digest.hexdigest() == PAPER_GRID_SHA256

    def test_unknown_k_rejected(self):
        with pytest.raises(DatasetError):
            generate_paper_dataset(42, scale=SCALE)

    def test_explicit_targets_accepted(self):
        t = TABLE_II[21]
        contigs = generate_paper_dataset(21, scale=0.001, targets=t)
        assert len(contigs) == t.scaled(0.001).total_contigs


class TestEndAssignment:
    def test_every_read_has_a_hint(self, dataset21):
        for c in dataset21:
            assert c.read_end_hints is not None
            assert len(c.read_end_hints) == len(c.reads)

    def test_both_ends_used_overall(self, dataset21):
        hints = [h for c in dataset21 for h in c.read_end_hints]
        assert End.LEFT in hints and End.RIGHT in hints

    def test_reads_split_roughly_evenly(self, dataset21):
        hints = [h for c in dataset21 for h in c.read_end_hints]
        right = sum(1 for h in hints if h is End.RIGHT)
        assert 0.35 < right / len(hints) < 0.65

    def test_depth_spread_for_binning(self, dataset21):
        """Binning needs contigs with different read counts."""
        depths = {c.depth for c in dataset21}
        assert len(depths) >= 4


class TestExtensionTargets:
    @pytest.mark.parametrize("k,tol", [(21, 0.25), (33, 0.25), (55, 0.25),
                                       (77, 0.45)])
    def test_assembled_extensions_near_table2(self, k, tol):
        """Running local assembly on the generated data reproduces the
        Table II extension averages (k=77 is budget-limited: 3.08 reads of
        175 bases cannot chain 227 bases; see EXPERIMENTS.md)."""
        from repro.kernels import CudaLocalAssemblyKernel
        from repro.simt.device import A100

        contigs = generate_paper_dataset(k, scale=SCALE)
        res = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY).run(contigs, k)
        ext = sum(len(b) for b, _ in res.right) + sum(len(b) for b, _ in res.left)
        avg = ext / len(contigs)
        assert avg == pytest.approx(TABLE_II[k].average_extn_length, rel=tol)
