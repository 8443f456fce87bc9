"""Static prong of repro.sanitize: the repo-invariant lint engine.

Importing the package loads the rule catalog (rules register themselves
into :data:`~repro.sanitize.lint.engine.RULES` at import time).
"""

from repro.sanitize.lint.engine import (
    RULES,
    LintFinding,
    LintRule,
    expand_select,
    register_rule,
    render_json,
    render_text,
    select_rules,
)
from repro.sanitize.lint import rules as _rules  # noqa: F401  (registers REP00x)
# The semantic rules live one package over but share this catalog; load
# them here so RULES is always the complete REP001–REP013 set no matter
# which sanitize entry point gets imported first.
from repro.sanitize.semantic import rules as _semantic  # noqa: F401

__all__ = [
    "RULES",
    "LintFinding",
    "LintRule",
    "expand_select",
    "register_rule",
    "render_json",
    "render_text",
    "select_rules",
]
