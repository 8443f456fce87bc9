"""Correctness tooling for the emulated warp protocols: ``repro.sanitize``.

Two prongs, modeled on the vendor tool split:

* **dynamic** — :class:`~repro.sanitize.checkers.Sanitizer`, an EventBus
  subscriber shadowing hash-table slot state while a kernel runs
  (``compute-sanitizer``-style racecheck / synccheck / initcheck);
  enabled per run with ``LocalAssemblyKernel(..., sanitize="all")`` or
  ``repro-locassm run --sanitize all``. The test suite's mutants
  (``tests/sanitize``) seed one bug per checker into the CUDA port's
  phases — the mutation-style self-test that proves each checker can
  actually catch its bug class.
* **static** — :mod:`~repro.sanitize.lint`, an AST lint engine with
  per-file repo-invariant rules, plus :mod:`~repro.sanitize.semantic`,
  the whole-program half (symbol table, call graph, interprocedural
  rules). Together they form the catalog REP001–REP013, run in one
  pass as ``repro-locassm lint``; ``# repro: noqa`` pragmas are the
  one way to suppress a finding.
"""

from repro.sanitize.checkers import MAX_FINDINGS_PER_BATCH, Sanitizer
# semantic before lint: the lint catalog imports the semantic rules, and
# the semantic package's analyzer imports the catalog
from repro.sanitize.semantic import (
    AnalysisResult,
    SemanticRule,
    analyze_paths,
)
from repro.sanitize.lint import (
    RULES,
    LintFinding,
    LintRule,
    expand_select,
    render_json,
    render_text,
    select_rules,
)
from repro.sanitize.report import (
    CHECKS,
    SanitizerFinding,
    SanitizerReport,
    parse_checks,
)

__all__ = [
    # dynamic prong
    "CHECKS",
    "MAX_FINDINGS_PER_BATCH",
    "Sanitizer",
    "SanitizerFinding",
    "SanitizerReport",
    "parse_checks",
    # static prong
    "RULES",
    "AnalysisResult",
    "LintFinding",
    "LintRule",
    "SemanticRule",
    "analyze_paths",
    "expand_select",
    "render_json",
    "render_text",
    "select_rules",
]

# The docstring names the catalog span; assert it against the catalog
# so the text cannot drift again when REP014 lands (the REP001–REP005
# staleness this guards against was a real bug).
_SPAN = f"{min(RULES)}–{max(RULES)}"
assert _SPAN in __doc__, (
    f"stale sanitize docstring: catalog is {_SPAN}, docstring says "
    f"otherwise - update the rule span in src/repro/sanitize/__init__.py")
