"""The end-to-end de novo assembler (Figure 2), single-node form.

``DeNovoAssembler`` drives the staged pipeline in
:mod:`repro.metahipmer.stages` over the production k-mer schedule:
k-mer analysis → global de Bruijn graph / contig generation → read
alignment → **local assembly** (the paper's kernel, either the scalar
CPU backend or a simulated-GPU port) → per-round merge. Each round's merged
contigs (extensions folded into the sequence) feed the next round as
pseudo-reads, so later (larger-k) rounds resolve forks the earlier ones
could not — the paper's Figure 1 resolution mechanism at pipeline scale —
and bridge regions where raw-read coverage is too thin for the larger k.

With a :class:`~repro.resilience.CheckpointStore` attached, every
completed stage is persisted under the name ``stage_<stage>`` keyed by
the round's k (atomic, CRC-validated, configuration-fingerprinted); a
killed run re-invoked with the same checkpoint directory restores each
completed stage instead of recomputing it and produces byte-identical
final contigs and statistics (the pipeline draws no randomness). The
``repro assemble`` CLI subcommand exposes this as ``--checkpoint-dir`` /
``--resume``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.extension import PRODUCTION_POLICY, WalkPolicy
from repro.errors import KmerError
from repro.genomics.contig import Contig, ContigExtension, End
from repro.genomics.reads import ReadSet
from repro.kernels import LocalAssemblyKernel, create_backend
from repro.metahipmer.stages import (
    STAGE_ORDER,
    STAGES,
    AssemblyStats,
    RoundState,
    StageCallback,
    n50,
)
from repro.resilience.checkpoint import CheckpointStore

__all__ = [
    "AssemblyStats",
    "DeNovoAssembler",
    "DeNovoResult",
    "n50",
    "reads_fingerprint",
]


def reads_fingerprint(reads: ReadSet) -> str:
    """Order-sensitive digest of a read set (sequences + qualities).

    Stored in the checkpoint configuration fingerprint so a ``--resume``
    against different input data is rejected instead of silently mixing
    rounds from two datasets.
    """
    h = hashlib.sha256()
    for r in reads:
        h.update(r.name.encode())
        h.update(b"\x00")
        h.update(r.codes.tobytes())
        h.update(r.quals.tobytes())
    return h.hexdigest()


@dataclass
class DeNovoResult:
    """Final contigs plus per-round provenance.

    Attributes:
        contigs: the final merged contigs (every accepted extension folded
            into the sequence; no dangling extension records).
        rounds: per-round statistics, in k-schedule order.
        round_contigs: the merged contigs each round produced (parallel to
            ``rounds``) — the provenance trail of the feed-forward loop,
            so intermediate assemblies remain inspectable instead of being
            overwritten round by round.
    """

    contigs: list[Contig]
    rounds: list[AssemblyStats] = field(default_factory=list)
    round_contigs: list[list[Contig]] = field(default_factory=list)

    @property
    def final_n50(self) -> int:
        """N50 over the final contigs' full (extension-folded) lengths.

        Uses ``extended_sequence()`` lengths so an unfolded extension
        record still counts once — never added on top of a sequence it
        was already merged into.
        """
        return n50([len(c.extended_sequence()) for c in self.contigs])

    def fingerprint(self) -> str:
        """Digest of the final contig names + sequences (golden outputs)."""
        h = hashlib.sha256()
        for c in self.contigs:
            h.update(c.name.encode())
            h.update(b"\x00")
            h.update(c.extended_sequence().encode())
            h.update(b"\n")
        return h.hexdigest()


class DeNovoAssembler:
    """Reads in, extended contigs out (the whole Figure 2 loop).

    Args:
        k_schedule: global-graph k per round (MetaHipMer: 21, 33, 55, 77).
        min_count: k-mer error-filter threshold (also the graph's edge
            support threshold and the carried-contig pseudo-read
            multiplicity).
        min_contig_len: discard unitigs shorter than this.
        policy: local-assembly walk thresholds.
        kernel: optional simulated-GPU kernel to run the local-assembly
            phase on (profiled); the ``scalar`` CPU backend is used when
            omitted.
    """

    def __init__(
        self,
        k_schedule: tuple[int, ...] = (21, 33),
        min_count: int = 2,
        min_contig_len: int = 60,
        policy: WalkPolicy = PRODUCTION_POLICY,
        kernel: LocalAssemblyKernel | None = None,
    ) -> None:
        if not k_schedule or list(k_schedule) != sorted(set(k_schedule)):
            raise KmerError(f"k_schedule must be strictly increasing, got {k_schedule}")
        self.k_schedule = tuple(int(k) for k in k_schedule)
        self.min_count = min_count
        self.min_contig_len = min_contig_len
        self.policy = policy
        self.kernel = kernel

    def config_fingerprint(self) -> dict:
        """JSON-compatible configuration summary for checkpoint meta."""
        import dataclasses

        return {
            "k_schedule": list(self.k_schedule),
            "min_count": self.min_count,
            "min_contig_len": self.min_contig_len,
            "policy": dataclasses.asdict(self.policy),
            "kernel": type(self.kernel).__name__ if self.kernel else None,
            "device": (self.kernel.device.name
                       if self.kernel is not None
                       and getattr(self.kernel, "device", None) is not None
                       else None),
        }

    def _local_assembly(self, contigs: list[Contig], k: int) -> int:
        """Run the paper's kernel over the aligned contigs; returns bases added."""
        kernel = self.kernel or create_backend("scalar", policy=self.policy)
        result = kernel.run(contigs, k)
        total = 0
        for c, (rb, rs), (lb, ls) in zip(contigs, result.right, result.left):
            c.right_extension = ContigExtension(End.RIGHT, rb, rs.value, k)
            c.left_extension = ContigExtension(End.LEFT, lb, ls.value, k)
            total += len(rb) + len(lb)
        return total

    def assemble(
        self,
        reads: ReadSet,
        checkpoint: CheckpointStore | None = None,
        on_stage: StageCallback | None = None,
    ) -> DeNovoResult:
        """Run every pipeline round; returns final contigs + statistics.

        Args:
            reads: input sequencing reads.
            checkpoint: persist each completed stage and restore existing
                stage checkpoints instead of recomputing (resume). Its
                ``meta`` should fingerprint the configuration and the
                input reads (:meth:`config_fingerprint`,
                :func:`reads_fingerprint`), so a resume against other
                settings raises :class:`~repro.errors.CheckpointError`.
            on_stage: called after each stage as ``(k, stage, resumed)``
                — progress reporting for the CLI.
        """
        result = DeNovoResult(contigs=[])
        carried: list[Contig] = []
        for k in self.k_schedule:
            state = RoundState(k=k, reads=reads, carried=carried)
            for name in STAGE_ORDER:
                stage = STAGES[name]
                payload = (checkpoint.load_named(f"stage_{name}", k)
                           if checkpoint is not None else None)
                resumed = payload is not None
                if resumed:
                    stage.restore(self, state, payload)
                else:
                    payload = stage.run(self, state)
                    if checkpoint is not None:
                        checkpoint.save(f"stage_{name}", k, payload)
                if on_stage is not None:
                    on_stage(k, name, resumed)
                if name == "contigs" and not state.contigs:
                    break  # nothing to align/extend; carry forward as-is
            if state.stats is not None:
                result.rounds.append(state.stats)
                result.round_contigs.append(state.merged)
                carried = state.merged
        result.contigs = carried
        return result
