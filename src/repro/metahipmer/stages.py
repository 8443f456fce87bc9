"""The named stages of the de novo assembler pipeline (Figure 2).

Each round of :class:`~repro.metahipmer.pipeline.DeNovoAssembler` runs the
same five stages in order::

    kmers   -> k-mer analysis over reads + carried-forward contigs
    contigs -> global de Bruijn graph and unitig generation
    align   -> read-to-contig alignment, read-to-end assignment
    extend  -> local assembly (the paper's kernel) on every contig end
    merge   -> fold accepted extensions into the contig sequence; these
               merged contigs seed the next (larger-k) round

Every stage is an object in the :data:`STAGES` registry with two duties:
``run`` computes the stage from the current :class:`RoundState` and
returns a JSON-serializable checkpoint payload; ``restore`` rebuilds the
state from such a payload without recomputing. The pipeline driver
checkpoints after each stage and restores on ``--resume``, so a killed
run resumes byte-identically (the pipeline is deterministic: no stage
draws randomness).

The *feed-forward* contract (the paper's Figure 1 fork-resolution
mechanism at pipeline scale) lives in the ``kmers``/``contigs`` stages:
each merged contig from round k re-enters round k+1 as a high-quality
pseudo-read, repeated ``min_count`` times so its k-mers are solid and its
edges traversable. Larger k then walks through forks the smaller k could
not resolve, with the carried sequence bridging regions where raw-read
coverage alone is too thin for the larger k.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.genomics.contig import Contig, ContigExtension, End
from repro.genomics.reads import MAX_PHRED, Read, ReadSet
from repro.metahipmer.alignment import assign_reads_to_ends
from repro.metahipmer.global_graph import GlobalDeBruijnGraph, generate_contigs
from repro.metahipmer.kmer_analysis import KmerSpectrum, count_kmers_filtered

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.metahipmer.pipeline import DeNovoAssembler


def n50(lengths: list[int]) -> int:
    """The standard assembly contiguity metric: the length L such that
    half of all assembled bases lie in contigs of length >= L."""
    if not lengths:
        return 0
    ordered = sorted(lengths, reverse=True)
    half = sum(ordered) / 2
    acc = 0
    for length in ordered:
        acc += length
        if acc >= half:
            return length
    return ordered[-1]


@dataclass
class AssemblyStats:
    """Per-round summary of the pipeline's output.

    Attributes:
        k: this round's global-graph k-mer size.
        solid_kmers: solid k-mers after error filtering (carried
            pseudo-reads included).
        contigs: unitigs generated this round.
        total_bases / n50: contig size metrics *before* local assembly.
        reads_assigned: reads assigned to a contig end by alignment.
        extension_bases: bases added by local assembly (both ends).
        carried_in: merged contigs fed forward from the previous round.
        merged_bases / merged_n50: size metrics *after* the round's
            extensions are folded in — what the next round will see.
    """

    k: int
    solid_kmers: int
    contigs: int
    total_bases: int
    n50: int
    reads_assigned: int
    extension_bases: int
    carried_in: int = 0
    merged_bases: int = 0
    merged_n50: int = 0

    @property
    def mean_contig_length(self) -> float:
        return self.total_bases / self.contigs if self.contigs else 0.0


@dataclass
class RoundState:
    """Everything one pipeline round accumulates as its stages run."""

    k: int
    reads: ReadSet
    carried: list[Contig] = field(default_factory=list)
    spectrum: KmerSpectrum | None = None
    contigs: list[Contig] = field(default_factory=list)
    align_stats: dict[str, int] = field(default_factory=dict)
    extension_bases: int = 0
    merged: list[Contig] = field(default_factory=list)
    stats: AssemblyStats | None = None
    _augmented: ReadSet | None = None


def carry_forward_reads(reads: ReadSet, carried: list[Contig],
                        copies: int) -> ReadSet:
    """Reads plus each carried contig as a repeated pseudo-read.

    Merged contigs from the previous round re-enter k-mer analysis and
    graph construction as maximum-quality pseudo-reads, duplicated
    ``copies`` times so they clear both the spectrum's ``min_count`` and
    the graph's ``min_edge_count`` — assembled consensus should not be
    re-litigated by the error filter. Alignment and local assembly still
    see only the raw reads.
    """
    if not carried:
        return reads
    out = ReadSet(list(reads.reads))
    for contig in carried:
        quals = np.full(len(contig.codes), MAX_PHRED, dtype=np.uint8)
        for j in range(max(1, copies)):
            out.append(Read(name=f"__carry/{contig.name}/{j}",
                            codes=contig.codes.copy(), quals=quals.copy()))
    return out


def _augmented(asm: "DeNovoAssembler", state: RoundState) -> ReadSet:
    """The round's graph-input reads (raw + carried), computed once."""
    if state._augmented is None:
        state._augmented = carry_forward_reads(state.reads, state.carried,
                                               asm.min_count)
    return state._augmented


# ----------------------------------------------------------------------
# checkpoint payload codecs
# ----------------------------------------------------------------------


def _spectrum_to_payload(spectrum: KmerSpectrum) -> dict:
    return {
        "k": spectrum.k,
        "fingerprints": list(spectrum.counts.keys()),
        "counts": list(spectrum.counts.values()),
        "total_kmers": spectrum.total_kmers,
        "singletons_dropped": spectrum.singletons_dropped,
        "threshold_rejected": spectrum.threshold_rejected,
    }


def _spectrum_from_payload(data: dict) -> KmerSpectrum:
    return KmerSpectrum(
        k=int(data["k"]),
        counts=dict(zip((int(f) for f in data["fingerprints"]),
                        (int(c) for c in data["counts"]))),
        total_kmers=int(data["total_kmers"]),
        singletons_dropped=int(data["singletons_dropped"]),
        threshold_rejected=int(data.get("threshold_rejected", 0)),
    )


def _contigs_to_payload(contigs: list[Contig]) -> list[dict]:
    return [{"name": c.name, "seq": c.sequence} for c in contigs]


def _contigs_from_payload(data: list) -> list[Contig]:
    return [Contig.from_string(d["name"], d["seq"]) for d in data]


def _ext_to_payload(ext: ContigExtension | None) -> dict | None:
    if ext is None:
        return None
    return {"end": ext.end.value, "bases": ext.bases, "state": ext.walk_state,
            "k": ext.kmer_size}


def _ext_from_payload(data: dict | None) -> ContigExtension | None:
    if data is None:
        return None
    return ContigExtension(end=End(data["end"]), bases=data["bases"],
                           walk_state=data["state"], kmer_size=int(data["k"]))


# ----------------------------------------------------------------------
# the stages
# ----------------------------------------------------------------------


class PipelineStage:
    """One named pipeline stage: compute-or-restore with a JSON payload."""

    name: str = ""

    def run(self, asm: "DeNovoAssembler", state: RoundState) -> dict:
        raise NotImplementedError

    def restore(self, asm: "DeNovoAssembler", state: RoundState,
                payload: dict) -> None:
        raise NotImplementedError


class KmerAnalysisStage(PipelineStage):
    """Error-filtered canonical k-mer counting over reads + carried contigs."""

    name = "kmers"

    def run(self, asm, state):
        state.spectrum = count_kmers_filtered(_augmented(asm, state), state.k,
                                              min_count=asm.min_count)
        return {"spectrum": _spectrum_to_payload(state.spectrum)}

    def restore(self, asm, state, payload):
        state.spectrum = _spectrum_from_payload(payload["spectrum"])


class ContigGenerationStage(PipelineStage):
    """Global de Bruijn graph construction and unitig emission."""

    name = "contigs"

    def run(self, asm, state):
        graph = GlobalDeBruijnGraph(state.k, state.spectrum,
                                    min_edge_count=asm.min_count)
        graph.add_reads(_augmented(asm, state))
        seqs = generate_contigs(graph, min_length=max(asm.min_contig_len,
                                                      state.k + 2))
        state.contigs = [Contig.from_string(f"k{state.k}_contig{i}", s)
                         for i, s in enumerate(seqs)]
        return {"contigs": _contigs_to_payload(state.contigs)}

    def restore(self, asm, state, payload):
        state.contigs = _contigs_from_payload(payload["contigs"])


class AlignmentStage(PipelineStage):
    """Read-to-contig alignment; assigns raw reads to contig ends."""

    name = "align"

    def run(self, asm, state):
        state.align_stats = assign_reads_to_ends(state.contigs, state.reads)
        per_contig = []
        for c in state.contigs:
            per_contig.append({
                "reads": [[r.name, r.sequence, r.quality_string]
                          for r in c.reads],
                "hints": [e.value for e in (c.read_end_hints or [])],
            })
        return {"stats": dict(state.align_stats), "per_contig": per_contig}

    def restore(self, asm, state, payload):
        state.align_stats = {k: int(v) for k, v in payload["stats"].items()}
        for c, entry in zip(state.contigs, payload["per_contig"]):
            c.reads = ReadSet([Read.from_strings(name, seq, quals)
                               for name, seq, quals in entry["reads"]])
            c.read_end_hints = [End(e) for e in entry["hints"]]


class LocalAssemblyStage(PipelineStage):
    """The paper's kernel: mer-walk both ends of every contig."""

    name = "extend"

    def run(self, asm, state):
        state.extension_bases = asm._local_assembly(state.contigs, state.k)
        return {
            "extension_bases": state.extension_bases,
            "extensions": [{"left": _ext_to_payload(c.left_extension),
                            "right": _ext_to_payload(c.right_extension)}
                           for c in state.contigs],
        }

    def restore(self, asm, state, payload):
        state.extension_bases = int(payload["extension_bases"])
        for c, entry in zip(state.contigs, payload["extensions"]):
            c.left_extension = _ext_from_payload(entry["left"])
            c.right_extension = _ext_from_payload(entry["right"])


class MergeStage(PipelineStage):
    """Fold accepted extensions into the sequence; record round stats.

    Extensions are folded *before* the next round re-aligns reads, so the
    larger k sees (and can walk through) the bases the smaller k already
    recovered — this is what makes the multi-k schedule resolve forks.
    """

    name = "merge"

    def run(self, asm, state):
        state.merged = [Contig.from_string(c.name, c.extended_sequence())
                        for c in state.contigs]
        merged_lengths = [len(c) for c in state.merged]
        state.stats = AssemblyStats(
            k=state.k,
            solid_kmers=len(state.spectrum) if state.spectrum else 0,
            contigs=len(state.contigs),
            total_bases=sum(len(c) for c in state.contigs),
            n50=n50([len(c) for c in state.contigs]),
            reads_assigned=int(state.align_stats.get("assigned", 0)),
            extension_bases=state.extension_bases,
            carried_in=len(state.carried),
            merged_bases=sum(merged_lengths),
            merged_n50=n50(merged_lengths),
        )
        return {"merged": _contigs_to_payload(state.merged),
                "stats": asdict(state.stats)}

    def restore(self, asm, state, payload):
        state.merged = _contigs_from_payload(payload["merged"])
        state.stats = AssemblyStats(**payload["stats"])


#: name -> stage, in the execution order of one round.
STAGES: dict[str, PipelineStage] = {stage.name: stage for stage in (
    KmerAnalysisStage(), ContigGenerationStage(), AlignmentStage(),
    LocalAssemblyStage(), MergeStage())}

#: Execution order of one pipeline round.
STAGE_ORDER: tuple[str, ...] = tuple(STAGES)


#: Signature of the per-stage progress callback accepted by
#: :meth:`DeNovoAssembler.assemble`: ``(k, stage_name, resumed)``.
StageCallback = Callable[[int, str, bool], None]
