"""Static prong of repro.sanitize: the lint engine and the rule catalog
(:data:`~repro.sanitize.lint.catalog.RULES`, REP001–REP013)."""

from repro.sanitize.lint.engine import (
    LintFinding,
    LintRule,
    render_json,
    render_text,
)
from repro.sanitize.lint.catalog import RULES, expand_select, select_rules

__all__ = [
    "RULES",
    "LintFinding",
    "LintRule",
    "expand_select",
    "render_json",
    "render_text",
    "select_rules",
]
