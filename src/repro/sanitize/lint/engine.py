"""The repo-invariant lint engine: findings, the rule base, rendering.

A :class:`LintRule` parses nothing itself — it visits an :mod:`ast` tree
(one per file) and yields :class:`LintFinding` records; file discovery
and parsing belong to the one runner,
:func:`~repro.sanitize.semantic.analyzer.analyze_paths`, and this module
renders (``text`` / ``json``). Each rule has a stable id (``REP0xx``),
the key of :data:`~repro.sanitize.lint.catalog.RULES` and what
``repro lint --select`` and the finding output use.

These are *repo invariants*, not style: each rule encodes a property the
reproduction's correctness or reproducibility depends on (seeded
randomness, complete backend protocols, honest event declarations,
integer-only INTOP paths, a non-blocking service, deterministic
checkpoints). The catalog lives in API.md.
"""

from __future__ import annotations

import ast
import json
from dataclasses import asdict, dataclass
from typing import Iterator


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    rule: str       #: stable rule id ("REP001", ...)
    path: str       #: file the finding is in
    line: int       #: 1-based line
    col: int        #: 0-based column
    message: str    #: what is wrong and what to do instead

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class LintRule:
    """Base class: subclasses set the id/description and implement check."""

    rule_id: str = ""
    description: str = ""

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        raise NotImplementedError

    def finding(self, node: ast.AST, path: str, message: str) -> LintFinding:
        return LintFinding(rule=self.rule_id, path=path,
                           line=getattr(node, "lineno", 0),
                           col=getattr(node, "col_offset", 0),
                           message=message)


def render_text(findings: list[LintFinding]) -> str:
    lines = [f.format() for f in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: list[LintFinding]) -> str:
    return json.dumps([asdict(f) for f in findings], indent=2)
