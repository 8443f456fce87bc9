"""The rule catalog: one literal table of REP001–REP008, and selection.

:data:`RULES` holds the rules of :mod:`repro.sanitize.lint.rules`
(REP002, REP004 and REP009–REP013 are retired; their ids are not
reused). A new rule is a class in that module and one row here.
"""

from __future__ import annotations

from typing import Iterable

from repro.sanitize.lint.engine import LintRule
from repro.sanitize.lint.rules import (
    BlockingCallInServeRule,
    FloatInIntopPathRule,
    ScalarLoopInHotPhaseRule,
    SilentFailureHandlingRule,
    UndeclaredHandledEventRule,
    UnseededRandomRule,
)

#: rule id -> rule instance.
RULES: dict[str, LintRule] = {rule.rule_id: rule for rule in (
    UnseededRandomRule(),           # REP001
    UndeclaredHandledEventRule(),   # REP003
    FloatInIntopPathRule(),         # REP005
    ScalarLoopInHotPhaseRule(),     # REP006
    BlockingCallInServeRule(),      # REP007
    SilentFailureHandlingRule(),    # REP008
)}


def select_rules(select: Iterable[str] | None = None) -> list[LintRule]:
    """The rule set to run: every rule, or the exact ids in ``select``
    (order kept, duplicates dropped). An id not in the catalog raises
    ``ValueError("unknown lint rule id(s) ...")``."""
    if select is None:
        return [RULES[r] for r in sorted(RULES)]
    ids = list(dict.fromkeys(select))
    missing = [i for i in ids if i not in RULES]
    if missing:
        raise ValueError(f"unknown lint rule id(s) {missing!r}; "
                         f"known: {sorted(RULES)}")
    return [RULES[i] for i in ids]
