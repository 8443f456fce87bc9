"""One fixed job flow, for the identity test (``test_identity.py``).

    python identity_flow.py OUT [CLOCK_SHIFT_S]

Submits one job to an in-process service with a journal and a
checkpoint directory, lets its wave run and checkpoint, stops the
service, then runs one checkpointed ``DeNovoAssembler`` round. It leaves
``OUT/ck`` (the job checkpoint), ``OUT/asm`` (the stage checkpoints),
``OUT/jobs.wal`` and ``OUT/identity.json``: the job fingerprint, the
assembly fingerprint, a kernel profile and the journal's records.

With ``CLOCK_SHIFT_S``, ``time.time``, ``monotonic`` and ``perf_counter``
(and their ``_ns`` forms) read that many seconds late, from before
``repro`` is imported.
"""

import sys
import time


def shift_clocks(offset_s: float) -> None:
    for name in ("time", "monotonic", "perf_counter"):
        real, real_ns = getattr(time, name), getattr(time, f"{name}_ns")
        setattr(time, name, lambda real=real: real() + offset_s)
        setattr(time, f"{name}_ns",
                lambda real_ns=real_ns: real_ns() + int(offset_s * 1e9))


def main(out: str) -> None:
    import asyncio
    import json
    from pathlib import Path

    import numpy as np

    from repro.core.extension import PRODUCTION_POLICY
    from repro.genomics.io import dumps_dat
    from repro.genomics.reads import ReadSet
    from repro.genomics.simulate import (
        PERFECT_READS,
        ScenarioSpec,
        sequence_read,
        simulate_batch,
        simulate_genome,
    )
    from repro.kernels import CudaLocalAssemblyKernel
    from repro.metahipmer.pipeline import DeNovoAssembler, reads_fingerprint
    from repro.resilience import CheckpointStore, profile_to_dict
    from repro.serve import AssemblyService
    from repro.serve.journal import parse_frame
    from repro.serve.protocol import JobOptions, job_fingerprint
    from repro.simt.device import A100

    out = Path(out)
    spec = ScenarioSpec(contig_length=120, flank_length=50, read_length=70,
                        depth=5, seed_window=40)
    contigs = [sc.contig for sc in simulate_batch(
        2, spec, np.random.default_rng(7), PERFECT_READS)]
    dat = dumps_dat(contigs)
    k_schedule = (21, 33)

    async def serve_one_job() -> None:
        service = AssemblyService(checkpoint_dir=str(out / "ck"),
                                  journal_path=str(out / "jobs.wal"),
                                  journal_fsync=False)
        await service.start()
        try:
            status, body = await service.submit(
                {"dat": dat, "k_schedule": list(k_schedule)})
            assert status == 202, body
            record = service._jobs[body["job_id"]]
            while record.status.value not in ("done", "failed"):
                await asyncio.sleep(0.01)
            assert record.status.value == "done", record.error
        finally:
            await service.stop()

    asyncio.run(serve_one_job())

    rng = np.random.default_rng(42)
    genome = simulate_genome(600, rng)
    reads = ReadSet([sequence_read(genome, s, 70, rng, PERFECT_READS,
                                   name=f"r{i}")
                     for i, s in enumerate(range(0, 531, 12))])
    kernel = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
    asm = DeNovoAssembler(k_schedule=(21,), kernel=kernel)
    store = CheckpointStore(out / "asm", meta={
        "reads": reads_fingerprint(reads), **asm.config_fingerprint()})
    assembly = asm.assemble(reads, checkpoint=store)

    journal = [parse_frame(line) for line in
               (out / "jobs.wal").read_bytes().splitlines(keepends=True)]
    (out / "identity.json").write_text(json.dumps({
        "job_fingerprint": job_fingerprint(
            dat, JobOptions(k_schedule=k_schedule)),
        "assembly_fingerprint": assembly.fingerprint(),
        "profile": profile_to_dict(
            kernel.run_schedule(contigs, k_schedule).profile),
        "journal": journal,
    }, sort_keys=True, indent=1))


if __name__ == "__main__":
    if len(sys.argv) > 2:
        shift_clocks(float(sys.argv[2]))
    main(sys.argv[1])
