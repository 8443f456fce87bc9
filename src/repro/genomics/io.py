"""Serialization of local-assembly inputs.

The paper's artifact ships datasets in a ``.dat`` text format consumed as
``./ht_loc <input file> <k-mer length> <output file>``. We define an
equivalent self-describing text format (documented below) plus minimal
FASTA/FASTQ writers for interoperability.

``.dat`` format (one record per contig)::

    #locassm v1
    <n_contigs>
    >NAME DEPTH
    CONTIG_SEQUENCE
    READ_SEQUENCE TAB QUALITY_STRING     (DEPTH lines)

Quality strings use Sanger phred+33 encoding.
"""

from __future__ import annotations

import io as _io
from itertools import islice
from pathlib import Path

from repro.errors import DatasetError, SequenceError
from repro.genomics.contig import Contig
from repro.genomics.reads import Read, ReadSet

_MAGIC = "#locassm v1"


def dumps_dat(contigs: list[Contig]) -> str:
    """Serialize contigs + assigned reads to a ``.dat`` format string.

    The string form is the wire payload of the assembly service
    (:mod:`repro.serve`); :func:`write_dat` is the file wrapper.
    """
    buf = _io.StringIO()
    buf.write(f"{_MAGIC}\n{len(contigs)}\n")
    for c in contigs:
        buf.write(f">{c.name} {len(c.reads)}\n{c.sequence}\n")
        for r in c.reads:
            buf.write(f"{r.sequence}\t{r.quality_string}\n")
    return buf.getvalue()


def write_dat(contigs: list[Contig], path: str | Path) -> None:
    """Serialize contigs + assigned reads to ``path`` in ``.dat`` format."""
    Path(path).write_text(dumps_dat(contigs))


def _at_line(source: str, line: int, build, *args):
    """``build(*args)``; what it finds wrong with the text of ``line``
    (1-based) is a :class:`~repro.errors.DatasetError` naming it."""
    try:
        return build(*args)
    except (SequenceError, UnicodeError) as exc:
        raise DatasetError(f"{source}: line {line}: {exc}") from None


def _decode_reads(source: str, named: list[tuple]) -> list[Read]:
    """The reads of a payload, ``named`` ``(name, line, bases,
    qualities)`` each, decoded in one pass: every base and every quality
    character goes through the encode table and the Phred range check
    once, joined, and each read is a view of the two buffers. Text that
    fails is decoded again read by read, for the error to name its line.
    """
    try:
        whole = Read.from_strings("", "".join(seq for _, _, seq, _ in named),
                                  "".join(qual for _, _, _, qual in named))
    except (SequenceError, UnicodeError):
        return [_at_line(source, line, Read.from_strings, name, seq, qual)
                for name, line, seq, qual in named]
    reads = []
    lo = 0
    for name, _, seq, _ in named:
        hi = lo + len(seq)
        reads.append(Read(name, whole.codes[lo:hi], whole.quals[lo:hi]))
        lo = hi
    return reads


def loads_dat(text: str, source: str = "<string>") -> list[Contig]:
    """Parse ``.dat`` format text into contigs with reads.

    ``source`` labels :class:`~repro.errors.DatasetError` messages (the
    file path when called through :func:`read_dat`, a request id in the
    service). Everything wrong with the text — its structure, a base
    outside ``ACGTacgt``, a quality character below ``!`` or outside
    ASCII, a count that does not match the records — raises one.
    """
    lines = text.splitlines()
    if not lines or lines[0] != _MAGIC:
        raise DatasetError(f"{source}: missing {_MAGIC!r} header")
    try:
        n_contigs = int(lines[1])
    except (IndexError, ValueError) as exc:
        raise DatasetError(f"{source}: bad contig count line") from exc
    if n_contigs < 0:
        raise DatasetError(f"{source}: negative contig count at line 2")
    pos = 2
    contigs: list[Contig] = []
    depths: list[int] = []
    named: list[tuple] = []     # every read of the payload, in order
    for _ in range(n_contigs):
        if pos >= len(lines) or not lines[pos].startswith(">"):
            raise DatasetError(f"{source}: expected '>' header at line {pos + 1}")
        header = lines[pos][1:].rsplit(" ", 1)
        if len(header) != 2:
            raise DatasetError(f"{source}: malformed contig header at line {pos + 1}")
        name, depth_s = header
        try:
            depth = int(depth_s)
        except ValueError as exc:
            raise DatasetError(f"{source}: bad read count in header {lines[pos]!r}") from exc
        if depth < 0:
            raise DatasetError(f"{source}: negative read count at line {pos + 1}")
        if pos + 1 >= len(lines):
            raise DatasetError(f"{source}: contig {name!r} missing sequence line")
        contigs.append(_at_line(source, pos + 2, Contig.from_string, name,
                                lines[pos + 1]))
        pos += 2
        for j in range(depth):
            if pos >= len(lines):
                raise DatasetError(f"{source}: contig {name!r} truncated at read {j}")
            parts = lines[pos].split("\t")
            if len(parts) != 2:
                raise DatasetError(f"{source}: malformed read line {pos + 1}")
            seq, quals = parts
            if len(seq) != len(quals):
                raise DatasetError(
                    f"{source}: read/quality length mismatch at line {pos + 1}"
                )
            named.append((f"{name}/r{j}", pos + 1, seq, quals))
            pos += 1
        depths.append(depth)
    for extra in range(pos, len(lines)):
        if lines[extra].strip():
            raise DatasetError(
                f"{source}: line {extra + 1} is beyond the {n_contigs} "
                f"contig(s) the count line declares")
    reads = iter(_decode_reads(source, named))
    for contig, depth in zip(contigs, depths):
        contig.reads = ReadSet(list(islice(reads, depth)))
    return contigs


def read_dat(path: str | Path) -> list[Contig]:
    """Parse a ``.dat`` file back into contigs with reads."""
    return loads_dat(Path(path).read_text(), source=str(path))


def write_fasta(records: list[tuple[str, str]], path: str | Path, width: int = 80) -> None:
    """Write ``(name, sequence)`` records as FASTA with line wrapping."""
    with open(path, "w") as fh:
        for name, seq in records:
            fh.write(f">{name}\n")
            for i in range(0, len(seq), width):
                fh.write(seq[i : i + width] + "\n")


def read_fasta(path: str | Path) -> list[tuple[str, str]]:
    """Parse FASTA into ``(name, sequence)`` records."""
    records: list[tuple[str, str]] = []
    name: str | None = None
    chunks: list[str] = []
    for line in Path(path).read_text().splitlines():
        if line.startswith(">"):
            if name is not None:
                records.append((name, "".join(chunks)))
            name = line[1:].strip()
            chunks = []
        elif line.strip():
            if name is None:
                raise DatasetError(f"{path}: sequence before first FASTA header")
            chunks.append(line.strip())
    if name is not None:
        records.append((name, "".join(chunks)))
    return records


def write_fastq(reads: ReadSet, path: str | Path) -> None:
    """Write a ReadSet as FASTQ (Sanger quality encoding)."""
    with open(path, "w") as fh:
        for r in reads:
            fh.write(f"@{r.name}\n{r.sequence}\n+\n{r.quality_string}\n")


def read_fastq(path: str | Path) -> ReadSet:
    """Parse FASTQ into a ReadSet."""
    lines = Path(path).read_text().splitlines()
    if len(lines) % 4 != 0:
        raise DatasetError(f"{path}: FASTQ line count not a multiple of 4")
    reads = ReadSet()
    for i in range(0, len(lines), 4):
        if not lines[i].startswith("@") or not lines[i + 2].startswith("+"):
            raise DatasetError(f"{path}: malformed FASTQ record at line {i + 1}")
        reads.append(Read.from_strings(lines[i][1:], lines[i + 1], lines[i + 3]))
    return reads
