"""The one ``repro lint`` pass: parse, check, suppress.

:func:`analyze_paths` parses each file once, runs the selected per-file
rules on its tree and extracts its module summary; the selected
semantic rules then check the whole-program
:class:`~repro.sanitize.semantic.callgraph.Project` built from those
summaries. ``# repro: noqa [REP0xx[,REP0yy]]`` pragmas are the one way
to suppress a finding: a pragma suppresses findings on its own line,
and a pragma that suppresses nothing is itself reported as
:data:`UNUSED_SUPPRESSION_ID` (``REP000``), so dead suppressions cannot
accumulate.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.sanitize.lint.catalog import select_rules
from repro.sanitize.lint.engine import LintFinding
from repro.sanitize.semantic.callgraph import Project
from repro.sanitize.semantic.rules import SemanticRule
from repro.sanitize.semantic.summary import extract_summary, module_name_for

#: Pseudo-rule id for "this noqa pragma suppressed nothing". Made by the
#: analyzer rather than listed in the catalog: it has no checker to run,
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


def _iter_files(paths: Iterable[str | Path]) -> Iterator[tuple[Path, str]]:
    """``(file, module name)`` pairs; a directory's files are named
    relative to it, a file given by itself by its stem."""
    for p in map(Path, paths):
        if p.is_dir():
            for file in sorted(p.rglob("*.py")):
                yield file, module_name_for(file.relative_to(p).parts)
        else:
            yield p, module_name_for((p.name,))


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

    Raises ``ValueError`` for an unknown ``select`` item and for a file
    that cannot be read or parsed.
    """
    rules = select_rules(select)
    findings: list[LintFinding] = []
    summaries: list[dict] = []
    pragmas_by_path: dict[str, list[dict]] = {}
    for file, module in _iter_files(paths):
        path = str(file)
        source, tree = _parse(file)
        for rule in rules:
            findings.extend(rule.check(tree, path))
        summaries.append(extract_summary(tree, path, module))
        pragmas = extract_pragmas(source)
        if pragmas:
            pragmas_by_path[path] = pragmas
    project = Project(summaries)
    for rule in rules:
        if isinstance(rule, SemanticRule):
            findings.extend(rule.check_project(project))

    kept, unused, suppressed = _apply_suppressions(findings, pragmas_by_path)
    final = kept + unused
    final.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return AnalysisResult(findings=final, files=len(summaries),
                          suppressed=suppressed)
