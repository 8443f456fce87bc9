"""Dynamic sanitizer: clean production backends, caught seeded bugs.

The two acceptance halves of a sanitizer:

* **soundness on good code** — every production SIMT port runs with all
  checkers enabled and reports *zero* findings (their protocols really
  are atomic / correctly masked / initialized-before-read);
* **power on bad code** — the test mutants (:mod:`.mutants`) seed one
  bug per checker into the CUDA port and each checker must catch
  exactly its own bug class (mutation-style self-test).
"""

import numpy as np
import pytest

from repro.datasets.generate import generate_paper_dataset
from repro.kernels import CudaLocalAssemblyKernel, create_backend
from repro.sanitize import (
    CHECKS,
    Sanitizer,
    SanitizerFinding,
    SanitizerReport,
    parse_checks,
)
from repro.simt.device import A100

from .mutants import (
    BUG_TO_CHECKER,
    BUGS,
    MutantConstructPhase,
    MutantKernel,
    MutantWalkPhase,
)

SIMT_BACKENDS = ["cuda", "hip", "sycl"]


@pytest.fixture(scope="module")
def contigs():
    return generate_paper_dataset(21, scale=0.002, seed=7)


@pytest.mark.parametrize("backend", SIMT_BACKENDS)
def test_production_backends_are_clean(backend, contigs):
    kernel = create_backend(backend, sanitize="all")
    report = kernel.run(contigs, 21).sanitizer_report
    assert report is not None
    assert report.ok, report.render()


def test_unsanitized_run_has_no_report(contigs):
    kernel = create_backend("cuda")
    assert kernel.run(contigs, 21).sanitizer_report is None


def test_all_mutants_trip_every_checker(contigs):
    kernel = MutantKernel(sanitize="all")
    report = kernel.run(contigs, 21).sanitizer_report
    for checker in CHECKS:
        assert report.count(checker) > 0, f"{checker} missed its bug"


@pytest.mark.parametrize("bug", BUGS)
def test_each_bug_caught_only_by_its_checker(bug, contigs):
    kernel = MutantKernel(sanitize="all", bugs=(bug,))
    report = kernel.run(contigs, 21).sanitizer_report
    expected = BUG_TO_CHECKER[bug]
    assert report.count(expected) > 0, \
        f"{expected} missed the seeded {bug!r} bug"
    for checker in CHECKS:
        if checker != expected:
            assert report.count(checker) == 0, \
                f"{checker} false-positived on the {bug!r} bug:\n" \
                + report.render()


@pytest.mark.parametrize("check", CHECKS)
def test_single_checker_selection_isolates(check, contigs):
    kernel = MutantKernel(sanitize=check)
    report = kernel.run(contigs, 21).sanitizer_report
    assert report.count(check) > 0
    for other in CHECKS:
        if other != check:
            assert report.count(other) == 0


def test_findings_carry_provenance(contigs):
    kernel = MutantKernel(sanitize="racecheck")
    finding = kernel.run(contigs, 21).sanitizer_report.findings[0]
    assert finding.checker == "racecheck"
    assert finding.phase == "construct"
    assert finding.launch >= 0
    assert finding.contig_id >= 0
    assert finding.warp >= 0
    assert finding.lane >= 0
    assert finding.slot >= 0
    text = finding.format()
    for token in ("racecheck", "warp", "lane", "slot", "contig"):
        assert token in text


def test_run_schedule_merges_reports(contigs):
    kernel = MutantKernel(sanitize="all")
    report = kernel.run_schedule(contigs, [21, 33]).sanitizer_report
    assert report is not None
    assert not report.ok
    for checker in CHECKS:
        assert report.count(checker) > 0


def test_sanitize_option_via_kernel_kwarg(contigs):
    # a production kernel built directly, with the mutant phase classes
    # (all bugs seeded by default) installed as its factories
    kernel = CudaLocalAssemblyKernel(A100, sanitize="all")
    kernel.construct_cls = MutantConstructPhase
    kernel.walk_cls = MutantWalkPhase
    assert not kernel.run(contigs, 21).sanitizer_report.ok


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="bogus"):
        create_backend("cuda", sanitize="bogus")


# ----------------------------------------------------------------------
# unit-level: parse_checks and report mechanics


def test_parse_checks_forms():
    assert parse_checks("all") == CHECKS
    assert parse_checks("racecheck") == ("racecheck",)
    assert parse_checks("initcheck,racecheck") == ("racecheck", "initcheck")
    assert parse_checks(["synccheck", "synccheck"]) == ("synccheck",)
    assert parse_checks(None) == ()


def test_report_cap_counts_suppressed():
    report = SanitizerReport(max_findings=2)
    for i in range(5):
        report.add(SanitizerFinding(checker="racecheck", phase="construct",
                                    message=f"f{i}"))
    assert len(report.findings) == 2
    assert report.suppressed == 3
    assert report.count() == 5
    assert not report.ok
    assert "suppressed" in report.summary()


def _launch(n_warps, total_slots, contig_ids):
    from repro.kernels.engine.events import LaunchStarted

    return LaunchStarted(k=21, hash_ops=100, n_warps=n_warps,
                         mean_table_bytes=0.0, mean_read_bytes=0.0,
                         cold_footprint_bytes=0.0, total_slots=total_slots,
                         contig_ids=contig_ids)


def test_racecheck_unit_duplicate_slots():
    from repro.kernels.engine.events import SlotWrite

    san = Sanitizer(checks="racecheck")
    san.handle(_launch(n_warps=2, total_slots=64, contig_ids=(10, 11)),
               bus=None)
    san.handle(SlotWrite(phase="construct", kind="vote",
                         slots=np.array([3, 7, 3]),
                         warps=np.array([0, 0, 1]),
                         lanes=np.array([0, 1, 2]), atomic=False),
               bus=None)
    findings = san.report.by_checker("racecheck")
    assert len(findings) == 1
    assert findings[0].slot == 3
    assert findings[0].contig_id == 11  # provenance of the losing lane
    # atomic batches with duplicates are fine (that is what atomics buy)
    san.handle(SlotWrite(phase="construct", kind="vote",
                         slots=np.array([5, 5]), warps=np.array([0, 0]),
                         lanes=np.array([0, 1]), atomic=True), bus=None)
    assert len(san.report.by_checker("racecheck")) == 1


def test_initcheck_unit_read_before_write():
    from repro.kernels.engine.events import SlotRead, SlotWrite

    san = Sanitizer(checks="initcheck")
    san.handle(_launch(n_warps=1, total_slots=16, contig_ids=(5,)),
               bus=None)
    san.handle(SlotWrite(phase="construct", kind="vote",
                         slots=np.array([2]), warps=np.array([0]),
                         lanes=np.array([0]), atomic=True), bus=None)
    san.handle(SlotRead(phase="walk", kind="vote_read",
                        slots=np.array([2, 9]), warps=np.array([0, 0])),
               bus=None)
    findings = san.report.by_checker("initcheck")
    assert len(findings) == 1
    assert findings[0].slot == 9


def test_synccheck_unit_mask_mismatch():
    from repro.kernels.engine.events import BarrierSync

    san = Sanitizer(checks="synccheck")
    san.handle(_launch(n_warps=2, total_slots=8, contig_ids=(1, 2)),
               bus=None)
    san.handle(BarrierSync(phase="construct", warps=np.array([0, 1]),
                           mask_lanes=np.array([32, 32]),
                           active_lanes=np.array([32, 7])), bus=None)
    findings = san.report.by_checker("synccheck")
    assert len(findings) == 1
    assert findings[0].warp == 1
