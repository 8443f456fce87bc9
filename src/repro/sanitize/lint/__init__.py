"""Static prong of repro.sanitize: the lint engine, its one pass
(:func:`~repro.sanitize.lint.engine.analyze_paths`) and the rule catalog
(:data:`~repro.sanitize.lint.catalog.RULES`, REP001–REP008)."""

from repro.sanitize.lint.engine import (
    UNUSED_SUPPRESSION_EXPLANATION,
    UNUSED_SUPPRESSION_ID,
    AnalysisResult,
    LintFinding,
    LintRule,
    analyze_paths,
    extract_pragmas,
    render_json,
    render_text,
)
from repro.sanitize.lint.catalog import RULES, select_rules

__all__ = [
    "RULES",
    "UNUSED_SUPPRESSION_EXPLANATION",
    "UNUSED_SUPPRESSION_ID",
    "AnalysisResult",
    "LintFinding",
    "LintRule",
    "analyze_paths",
    "extract_pragmas",
    "render_json",
    "render_text",
    "select_rules",
]

# The docstring names the catalog span; assert it against the catalog
# so the text cannot drift again when a rule lands or retires (the
# REP001–REP005 staleness this guards against was a real bug).
_SPAN = f"{min(RULES)}–{max(RULES)}"
assert _SPAN in __doc__, (
    f"stale lint docstring: catalog is {_SPAN}, docstring says "
    f"otherwise - update the rule span in src/repro/sanitize/lint/__init__.py")
