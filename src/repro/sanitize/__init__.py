"""Correctness tooling for the emulated warp protocols: ``repro.sanitize``.

:class:`~repro.sanitize.checkers.Sanitizer` is an EventBus subscriber
shadowing hash-table slot state while a kernel runs, modeled on
``compute-sanitizer`` (racecheck / synccheck / initcheck); enable it per
run with ``LocalAssemblyKernel(..., sanitize="all")`` or
``repro-locassm run --sanitize all``. The test suite's mutants
(``tests/sanitize``) seed one bug per checker into the CUDA port's
phases — the mutation-style self-test that proves each checker can
actually catch its bug class.
"""

from repro.sanitize.checkers import MAX_FINDINGS_PER_BATCH, Sanitizer
from repro.sanitize.report import (
    CHECKS,
    SanitizerFinding,
    SanitizerReport,
    parse_checks,
)

__all__ = [
    "CHECKS",
    "MAX_FINDINGS_PER_BATCH",
    "Sanitizer",
    "SanitizerFinding",
    "SanitizerReport",
    "parse_checks",
]
