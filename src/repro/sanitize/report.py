"""Structured sanitizer diagnostics (the ``compute-sanitizer`` report).

A :class:`SanitizerFinding` is one detected protocol violation with full
provenance — which checker fired, which launch, and the contig / warp /
lane / slot involved. A :class:`SanitizerReport` collects findings
across every launch of a kernel run (capped, so a systematically broken
kernel cannot allocate unboundedly) and renders them ``compute-sanitizer``
style: one line per finding plus a per-checker summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The three checkers, in report order (modeled on compute-sanitizer's
#: racecheck / synccheck / initcheck tools).
CHECKS = ("racecheck", "synccheck", "initcheck")


def parse_checks(spec) -> tuple[str, ...]:
    """Normalize a check selection into an ordered tuple of check names.

    Accepts ``"all"``, one check name, a comma-separated string, or an
    iterable of names; raises :class:`ValueError` on unknown names.
    """
    if spec is None:
        return ()
    if isinstance(spec, str):
        names = [s.strip() for s in spec.split(",") if s.strip()]
        if "all" in names:
            return CHECKS
    else:
        names = [str(s) for s in spec]
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(
            f"unknown sanitizer check(s) {unknown!r}; "
            f"choose from {CHECKS + ('all',)}")
    # preserve canonical order, drop duplicates
    return tuple(c for c in CHECKS if c in names)


@dataclass(frozen=True)
class SanitizerFinding:
    """One detected protocol violation, with provenance."""

    checker: str        #: "racecheck" | "synccheck" | "initcheck"
    phase: str          #: "construct" | "walk"
    message: str        #: human-readable diagnosis
    launch: int = -1    #: 0-based launch ordinal within the run
    contig_id: int = -1  #: contig involved (-1 when unattributable)
    warp: int = -1      #: warp involved
    lane: int = -1      #: lane involved (-1 when not lane-attributable)
    slot: int = -1      #: global table-slot index involved

    def format(self) -> str:
        where = [f"launch {self.launch}", f"phase {self.phase}"]
        if self.contig_id >= 0:
            where.append(f"contig {self.contig_id}")
        if self.warp >= 0:
            where.append(f"warp {self.warp}")
        if self.lane >= 0:
            where.append(f"lane {self.lane}")
        if self.slot >= 0:
            where.append(f"slot {self.slot}")
        return f"[{self.checker}] {self.message} ({', '.join(where)})"


@dataclass
class SanitizerReport:
    """All findings of one sanitized kernel run."""

    findings: list[SanitizerFinding] = field(default_factory=list)
    #: Findings dropped after :attr:`max_findings` was reached.
    suppressed: int = 0
    #: Cap on stored findings (diagnosis needs examples, not millions).
    max_findings: int = 1000

    def add(self, finding: SanitizerFinding) -> None:
        if len(self.findings) >= self.max_findings:
            self.suppressed += 1
            return
        self.findings.append(finding)

    def extend(self, other: "SanitizerReport") -> None:
        """Merge another report's findings (k-schedule accumulation)."""
        for finding in other.findings:
            self.add(finding)
        self.suppressed += other.suppressed

    @property
    def ok(self) -> bool:
        return not self.findings and not self.suppressed

    def count(self, checker: str | None = None) -> int:
        total = len(self.findings) + self.suppressed
        if checker is None:
            return total
        return sum(1 for f in self.findings if f.checker == checker)

    def by_checker(self, checker: str) -> list[SanitizerFinding]:
        return [f for f in self.findings if f.checker == checker]

    def summary(self) -> str:
        if self.ok:
            return "sanitizer: 0 findings"
        parts = [f"{c}={self.count(c)}" for c in CHECKS if self.count(c)]
        line = f"sanitizer: {self.count()} finding(s) ({', '.join(parts)})"
        if self.suppressed:
            line += f"; {self.suppressed} suppressed past the cap"
        return line

    def render(self) -> str:
        """The full diagnostic text: one line per finding + summary."""
        lines = [f.format() for f in self.findings]
        lines.append(self.summary())
        return "\n".join(lines)
