"""Whole-program semantic analysis: call graph + interprocedural rules.

The per-file lint rules (:mod:`repro.sanitize.lint.rules`) cannot see a
blocking call two frames below a coroutine or an event emitted in one
module and handled in another. This package adds the cross-file half:
per-module fact extraction (:mod:`~repro.sanitize.semantic.summary`),
a project symbol table + call graph over those facts
(:mod:`~repro.sanitize.semantic.callgraph`), rules REP009–REP013
(:mod:`~repro.sanitize.semantic.rules`), and the one ``repro lint``
pass with its noqa pragmas (:mod:`~repro.sanitize.semantic.analyzer`).
"""

from repro.sanitize.semantic.analyzer import (
    UNUSED_SUPPRESSION_EXPLANATION,
    UNUSED_SUPPRESSION_ID,
    AnalysisResult,
    analyze_paths,
    extract_pragmas,
)
from repro.sanitize.semantic.callgraph import Project
from repro.sanitize.semantic.rules import SemanticRule
from repro.sanitize.semantic.summary import extract_summary

__all__ = [
    "UNUSED_SUPPRESSION_EXPLANATION",
    "UNUSED_SUPPRESSION_ID",
    "AnalysisResult",
    "Project",
    "SemanticRule",
    "analyze_paths",
    "extract_pragmas",
    "extract_summary",
]
