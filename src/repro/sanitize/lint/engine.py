"""The repo-invariant lint engine: AST rules, findings, and rendering.

A :class:`LintRule` parses nothing itself — it visits an :mod:`ast` tree
(one per file) and yields :class:`LintFinding` records; file discovery
and parsing belong to the one runner,
:func:`~repro.sanitize.semantic.analyzer.analyze_paths`, and this module
renders (``text`` / ``json``). Rules register in
:data:`RULES` keyed by their stable rule id (``REP0xx``), which is what
``repro lint --select`` and the finding output use.

These are *repo invariants*, not style: each rule encodes a property the
reproduction's correctness or reproducibility depends on (seeded
randomness, complete backend protocols, honest event declarations,
categorized slot traffic, integer-only INTOP paths). The catalog lives
in API.md.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator


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


#: rule id -> rule instance; populated by :func:`register_rule`.
RULES: dict[str, LintRule] = {}


def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to the catalog (id must be unique)."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in RULES:
        raise ValueError(f"duplicate lint rule id {cls.rule_id}")
    RULES[cls.rule_id] = cls()
    return cls


_RANGE_RE = re.compile(r"(REP\d{3})-(REP\d{3})\Z")


def expand_select(select: Iterable[str]) -> list[str]:
    """Expand selection items into concrete rule ids.

    Accepts exact ids (``REP006``), inclusive ranges over the registered
    catalog (``REP009-REP013``), and prefixes (``REP0``, ``REP01``).
    Unknown items — exact ids not in the catalog, ranges or prefixes
    matching nothing — raise the same ``unknown lint rule id(s)`` error
    the exact-id path always has. Order is preserved, duplicates drop.
    """
    out: list[str] = []
    missing: list[str] = []
    for item in select:
        if item in RULES:
            ids = [item]
        else:
            m = _RANGE_RE.fullmatch(item)
            if m is not None:
                lo, hi = sorted((m.group(1), m.group(2)))
                ids = [r for r in sorted(RULES) if lo <= r <= hi]
            elif item.startswith("REP") and not item.isalpha():
                ids = [r for r in sorted(RULES) if r.startswith(item)]
            else:
                ids = []
        if not ids:
            missing.append(item)
        out.extend(i for i in ids if i not in out)
    if missing:
        raise ValueError(f"unknown lint rule id(s) {missing!r}; "
                         f"known: {sorted(RULES)}")
    return out


def select_rules(select: Iterable[str] | None = None) -> list[LintRule]:
    """The rule set to run: all registered rules, or just ``select``
    items (exact ids, ``REP0xx-REP0yy`` ranges, or ``REP0``-style
    prefixes — see :func:`expand_select`)."""
    if select is None:
        return [RULES[r] for r in sorted(RULES)]
    return [RULES[s] for s in expand_select(select)]


def render_text(findings: list[LintFinding]) -> str:
    lines = [f.format() for f in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: list[LintFinding]) -> str:
    return json.dumps([asdict(f) for f in findings], indent=2)
