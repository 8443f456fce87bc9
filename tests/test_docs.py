"""Every DESIGN.md decision that code, tests, CI or the ROADMAP cite
exists, and every benchmark is run by a CI step.

The decisions in DESIGN.md §5 are numbered, and the tree points at them
by number ("DESIGN.md decision 24", "decision #15", "DESIGN.md decisions
23, 24 and 26"). Cutting or renumbering the prose must not strand one.
"""

import fnmatch
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: A citation: "DESIGN.md" (a line break and comment marker may sit
#: before "decision") with one number or a list, or "decision #N".
CITATION = re.compile(
    r"DESIGN\.md[\s#*]*decisions?\s+#?(\d+(?:(?:,\s*(?:and\s+)?|\s+and\s+)#?\d+)*)"
    r"|decisions?\s+#(\d+)")


def cited_numbers(text: str) -> set[int]:
    """Every decision number ``text`` cites."""
    return {int(n) for match in CITATION.finditer(text)
            for group in match.groups() if group
            for n in re.findall(r"\d+", group)}


def numbered_decisions(design: str) -> list[int]:
    """The item numbers of DESIGN.md §5, in order."""
    section = design.split("\n## 5. ", 1)[1].split("\n## ", 1)[0]
    return [int(n) for n in re.findall(r"^(\d+)\. \*\*", section, re.M)]


def _citing_files() -> list[Path]:
    return [*sorted((ROOT / "src").rglob("*.py")),
            *sorted((ROOT / "tests").rglob("*.py")),
            ROOT / ".github" / "workflows" / "ci.yml",
            ROOT / "ROADMAP.md"]


def test_decisions_are_numbered_one_to_n():
    numbers = numbered_decisions((ROOT / "DESIGN.md").read_text())
    assert numbers == list(range(1, len(numbers) + 1)) and len(numbers) >= 30


@pytest.mark.parametrize("text, want", [
    ("see DESIGN.md decision 24", {24}),
    ("(DESIGN.md\n        # decision 23) and decision #15", {23, 15}),
    ("DESIGN.md decisions 21, 23, 24 and 35; PR 29", {21, 23, 24, 35}),
    ("decision 7 alone is not a DESIGN.md citation", set()),
])
def test_citations_are_read(text, want):
    assert cited_numbers(text) == want


def test_every_cited_decision_exists():
    have = set(numbered_decisions((ROOT / "DESIGN.md").read_text()))
    stranded, seen = [], 0
    for path in _citing_files():
        cited = cited_numbers(path.read_text(encoding="utf-8"))
        seen += len(cited)
        stranded += [f"{path.relative_to(ROOT)}: decision {n}"
                     for n in sorted(cited - have)]
    assert seen >= 20, "the citation pattern stopped matching"
    assert not stranded, stranded


def test_every_benchmark_is_run_by_ci():
    """A bench that no CI step names fails unseen (ROADMAP item 21(b))."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    steps = "\n".join(line for line in ci.splitlines()
                      if not line.lstrip().startswith("#"))
    named = set(re.findall(r"benchmarks/[\w*?\[\]-]+\.py", steps))
    assert named, "the benchmark path pattern stopped matching"
    unrun = [path.name
             for path in sorted((ROOT / "benchmarks").glob("bench_*.py"))
             if not any(fnmatch.fnmatchcase(f"benchmarks/{path.name}", glob)
                        for glob in named)]
    assert not unrun, f"no CI step runs {unrun}"
