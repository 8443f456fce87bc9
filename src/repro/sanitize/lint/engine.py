"""The repo-invariant lint engine: findings, the rule base, the one
pass, rendering.

A :class:`LintRule` parses nothing itself — it visits an :mod:`ast` tree
(one per file) and yields :class:`LintFinding` records. File discovery,
parsing and suppression belong to the one runner, :func:`analyze_paths`,
and this module renders (``text`` / ``json``). Each rule has a stable id
(``REP0xx``), the key of :data:`~repro.sanitize.lint.catalog.RULES` and
what ``repro lint --select`` and the finding output use.

``# repro: noqa [REP0xx[,REP0yy]]`` pragmas are the one way to suppress
a finding: a pragma suppresses findings on its own line, and a pragma
that suppresses nothing is itself reported as
:data:`UNUSED_SUPPRESSION_ID` (``REP000``), so dead suppressions cannot
accumulate.

These are *repo invariants*, not style: each rule encodes a property the
reproduction's correctness or reproducibility depends on (seeded
randomness, honest event declarations, integer-only INTOP paths, vector
hot paths, a non-blocking service, failures that reach the supervisor).
The catalog lives in API.md.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import asdict, dataclass
from pathlib import Path
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


#: Pseudo-rule id for "this noqa pragma suppressed nothing". Made by the
#: runner rather than listed in the catalog: it has no checker to run,
#: cannot be selected, and must never count toward the documented rules.
UNUSED_SUPPRESSION_ID = "REP000"

UNUSED_SUPPRESSION_EXPLANATION = (
    "REP000: unused suppression. A '# repro: noqa' pragma on this line "
    "suppressed no finding (or names rule ids that produced none). Dead "
    "pragmas hide real regressions behind stale exemptions - delete the "
    "pragma, or narrow it to the rule ids that actually fire."
)

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s+(?P<rules>REP\d{3}(?:\s*,\s*REP\d{3})*))?")


def extract_pragmas(source: str) -> list[dict]:
    """``# repro: noqa`` pragmas: ``{"line", "rules"}`` per occurrence
    (``rules == []`` means blanket — suppress every rule on the line).

    Only real COMMENT tokens count — the pragma text inside a docstring
    or string literal (like the ones in this module) is documentation,
    not a suppression.
    """
    pragmas = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _PRAGMA_RE.search(tok.string)
            if m is None:
                continue
            spec = m.group("rules")
            rules = ([] if spec is None
                     else [r.strip() for r in spec.split(",")])
            pragmas.append({"line": tok.start[0], "rules": rules})
    except tokenize.TokenError:
        pass  # ast.parse already rejected anything truly broken
    return pragmas


def _iter_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """The files to lint: a directory's ``*.py`` tree, a file itself."""
    for p in map(Path, paths):
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        else:
            yield p


def _parse(file: Path) -> tuple[str, ast.Module]:
    """Source and tree of one file, or ``ValueError("<path>: <reason>")``
    when it cannot be read, decoded or parsed."""
    try:
        source = file.read_bytes().decode("utf-8")
        return source, ast.parse(source, filename=str(file))
    except OSError as exc:
        reason = exc.strerror
    except SyntaxError as exc:
        reason = (exc.msg if exc.lineno is None
                  else f"{exc.msg} (line {exc.lineno})")
    except ValueError as exc:  # not UTF-8, or a null byte on Python 3.10
        reason = str(exc)
    raise ValueError(f"{file}: {reason}")


@dataclass
class AnalysisResult:
    """What one ``repro lint`` pass found."""

    findings: list[LintFinding]   #: after noqa pragmas, REP000 included
    files: int = 0                #: files analyzed
    suppressed: int = 0           #: findings eaten by noqa pragmas

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def _apply_suppressions(findings: list[LintFinding],
                        pragmas_by_path: dict[str, list[dict]]) \
        -> tuple[list[LintFinding], list[LintFinding], int]:
    """(kept, REP000 findings for unused pragmas, suppressed count)."""
    used: dict[tuple[str, int], set[str]] = {}
    kept: list[LintFinding] = []
    suppressed = 0
    index = {(path, p["line"]): p
             for path, pragmas in pragmas_by_path.items() for p in pragmas}
    for finding in findings:
        pragma = index.get((finding.path, finding.line))
        if pragma is not None and (not pragma["rules"]
                                   or finding.rule in pragma["rules"]):
            used.setdefault((finding.path, finding.line),
                            set()).add(finding.rule)
            suppressed += 1
            continue
        kept.append(finding)
    unused: list[LintFinding] = []
    for path, pragmas in pragmas_by_path.items():
        for pragma in pragmas:
            fired = used.get((path, pragma["line"]), set())
            if not pragma["rules"]:
                if fired:
                    continue
                message = ("unused suppression: this '# repro: noqa' "
                           "pragma suppressed no finding; delete it")
            else:
                idle = [r for r in pragma["rules"] if r not in fired]
                if not idle:
                    continue
                message = (f"unused suppression: {', '.join(idle)} "
                           f"produced no finding on this line; drop the "
                           f"id(s) or the pragma")
            unused.append(LintFinding(rule=UNUSED_SUPPRESSION_ID, path=path,
                                      line=pragma["line"], col=0,
                                      message=message))
    return kept, unused, suppressed


def analyze_paths(paths: Iterable[str | Path], *,
                  select: Iterable[str] | None = None) -> AnalysisResult:
    """Run the selected rules (default: all) over files and directories.

    Raises ``ValueError`` for an unknown ``select`` id and for a file
    that cannot be read or parsed.
    """
    # the catalog imports this module for LintRule
    from repro.sanitize.lint.catalog import select_rules

    rules = select_rules(select)
    findings: list[LintFinding] = []
    pragmas_by_path: dict[str, list[dict]] = {}
    files = 0
    for file in _iter_files(paths):
        path = str(file)
        source, tree = _parse(file)
        files += 1
        for rule in rules:
            findings.extend(rule.check(tree, path))
        pragmas = extract_pragmas(source)
        if pragmas:
            pragmas_by_path[path] = pragmas

    kept, unused, suppressed = _apply_suppressions(findings, pragmas_by_path)
    final = kept + unused
    final.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return AnalysisResult(findings=final, files=files, suppressed=suppressed)


def render_text(findings: list[LintFinding]) -> str:
    lines = [f.format() for f in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: list[LintFinding]) -> str:
    return json.dumps([asdict(f) for f in findings], indent=2)
