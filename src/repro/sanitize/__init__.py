"""Correctness tooling for the emulated warp protocols: ``repro.sanitize``.

Two prongs, modeled on the vendor tool split:

* **dynamic** — :class:`~repro.sanitize.checkers.Sanitizer`, an EventBus
  subscriber shadowing hash-table slot state while a kernel runs
  (``compute-sanitizer``-style racecheck / synccheck / initcheck);
  enabled per run with ``LocalAssemblyKernel(..., sanitize="all")`` or
  ``repro-locassm run --sanitize all``. The test suite's mutants
  (``tests/sanitize``) seed one bug per checker into the CUDA port's
  phases — the mutation-style self-test that proves each checker can
  actually catch its bug class. This package re-exports this prong.
* **static** — :mod:`~repro.sanitize.lint`, an AST lint engine with
  per-file repo-invariant rules, run in one pass as
  ``repro-locassm lint``; ``# repro: noqa`` pragmas are the one way to
  suppress a finding. Import its names from :mod:`repro.sanitize.lint`:
  a kernel run or a served job never loads the rule catalog.
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
