"""What reordering the walk's work could change, pinned bit for bit.

The walk may run its lookups in any order and batch them any way it
likes, as long as nothing a subscriber sees moves. This test holds, for
two seeded inputs, four outputs that see inside a launch against a
fixture (``walk_pinned.json``) written from an earlier engine:

* the count-event stream — ``WaveExecuted``, ``ProbeIteration`` and
  ``WalkStep`` in order — of a CUDA ``run_schedule`` (walk groups) and
  of a two-job coalesced wave (one fused walk);
* the ``memory_model="trace"`` replay of every launch;
* the ``record_trace`` slot trace of every launch;
* the sanitizer report of each seeded mutant (``tests/sanitize``).

Streams and traces are kept as SHA-256 digests (one per launch for the
traces) beside their lengths, so the fixture stays small; the replay
statistics are kept whole, a report as its count per checker, its
first two findings and the digest of them all. ``python -m
tests.kernels.test_walk_pinned`` rewrites the fixture.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.extension import PRODUCTION_POLICY
from repro.genomics.simulate import ErrorProfile, ScenarioSpec, simulate_batch
from repro.kernels import CudaLocalAssemblyKernel
from repro.kernels.engine import run_schedule_coalesced
from repro.kernels.engine.events import ProbeIteration, WalkStep, WaveExecuted
from repro.simt.device import A100

from ..sanitize.mutants import BUG_TO_CHECKER, BUGS, MutantKernel

FIXTURE = Path(__file__).with_name("walk_pinned.json")
SEEDS = (3, 8)
K_SCHEDULE = (21, 33)


class _CountStream:
    handled_events = (WaveExecuted, ProbeIteration, WalkStep)

    def __init__(self) -> None:
        self.events: list = []

    def handle(self, event, bus) -> None:
        self.events.append((type(event).__name__,
                            *dataclasses.astuple(event)))


def _contigs(seed: int, n: int = 6):
    """Error-bearing reads of two depths, so walks leave their reads and
    the launch policy makes more than one bin."""
    spec = ScenarioSpec(contig_length=150, flank_length=60, read_length=80,
                        depth=6, seed_window=40)
    errors = ErrorProfile(error_rate=0.01, lo_quality_fraction=0.1)
    rng = np.random.default_rng(seed)
    deep = dataclasses.replace(spec, depth=16)
    return [sc.contig for sc in simulate_batch(n, spec, rng, errors)
            + simulate_batch(n // 2, deep, rng, errors)]


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def _kernel(**opts):
    return CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY, **opts)


def _observe(seed: int) -> dict:
    contigs = _contigs(seed)
    kern = _kernel()
    stream = kern.add_subscriber(_CountStream())
    kern.run_schedule(contigs, K_SCHEDULE)
    wave = _kernel()
    wave_stream = wave.add_subscriber(_CountStream())
    run_schedule_coalesced(wave, [contigs[:4], contigs[4:]], K_SCHEDULE)
    replay = _kernel(memory_model="trace").run_schedule(
        contigs, K_SCHEDULE).replay
    traced = _kernel()
    traced.record_trace = True
    traces = traced.run_schedule(contigs, K_SCHEDULE).trace
    reports = {}
    for bug in BUGS:
        report = MutantKernel(bugs=(bug,), policy=PRODUCTION_POLICY,
                              sanitize="all").run_schedule(
            contigs, K_SCHEDULE).sanitizer_report
        findings = [f.format() for f in report.findings]
        reports[bug] = {
            "per_checker": {checker: report.count(checker)
                            for checker in BUG_TO_CHECKER.values()},
            "suppressed": report.suppressed, "first": findings[:2],
            "findings": [len(findings), _digest(findings)]}
    return {
        "count_events": [len(stream.events), _digest(stream.events)],
        "wave_count_events": [len(wave_stream.events),
                              _digest(wave_stream.events)],
        "replay": [dataclasses.asdict(r) for r in replay],
        "slot_trace": [[int(t.size), _digest(t.tolist())] for t in traces],
        "mutant_reports": reports,
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_what_a_subscriber_sees_is_pinned(pinned, seed):
    got = json.loads(json.dumps(_observe(seed)))
    want = pinned[str(seed)]
    for key in want:
        assert got[key] == want[key], f"seed {seed}: {key} moved"


def main() -> None:
    FIXTURE.write_text(json.dumps(
        {str(seed): _observe(seed) for seed in SEEDS}, indent=1) + "\n")


if __name__ == "__main__":
    main()
