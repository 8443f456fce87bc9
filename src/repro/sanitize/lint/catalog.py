"""The rule catalog: one literal table of REP001–REP013, and selection.

:data:`RULES` holds the per-file rules of :mod:`repro.sanitize.lint.rules`
and the whole-program rules of :mod:`repro.sanitize.semantic.rules`
(REP004 is retired; its id is not reused). A new rule is a class in one
of those modules and one row here.
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.sanitize.lint.engine import LintRule
from repro.sanitize.lint.rules import (
    BlockingCallInServeRule,
    FloatInIntopPathRule,
    IncompleteBackendRule,
    ScalarLoopInHotPhaseRule,
    SilentFailureHandlingRule,
    UndeclaredHandledEventRule,
    UnseededRandomRule,
)
from repro.sanitize.semantic.rules import (
    CheckpointCodecRule,
    DeterminismTaintRule,
    DtypeWidthRule,
    EventContractRule,
    TransitiveBlockingRule,
)

#: rule id -> rule instance.
RULES: dict[str, LintRule] = {rule.rule_id: rule for rule in (
    UnseededRandomRule(),           # REP001
    IncompleteBackendRule(),        # REP002
    UndeclaredHandledEventRule(),   # REP003
    FloatInIntopPathRule(),         # REP005
    ScalarLoopInHotPhaseRule(),     # REP006
    BlockingCallInServeRule(),      # REP007
    SilentFailureHandlingRule(),    # REP008
    TransitiveBlockingRule(),       # REP009
    DeterminismTaintRule(),         # REP010
    EventContractRule(),            # REP011
    DtypeWidthRule(),               # REP012
    CheckpointCodecRule(),          # REP013
)}

_RANGE_RE = re.compile(r"(REP\d{3})-(REP\d{3})\Z")


def expand_select(select: Iterable[str]) -> list[str]:
    """Expand selection items into concrete rule ids.

    Accepts exact ids (``REP006``), inclusive ranges over the
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
    """The rule set to run: every rule, or just ``select``
    items (exact ids, ``REP0xx-REP0yy`` ranges, or ``REP0``-style
    prefixes — see :func:`expand_select`)."""
    if select is None:
        return [RULES[r] for r in sorted(RULES)]
    return [RULES[s] for s in expand_select(select)]
