"""Command-line interface: ``repro-locassm`` / ``python -m repro``.

Sub-commands::

    run         run local assembly on a .dat file (like the artifact's
                ``./ht_loc <input> <k> <output>``)
    assemble    run the end-to-end de novo pipeline (reads -> contigs)
                on a scenario preset or FASTQ file, with per-stage
                checkpoints and --resume
    generate    generate a Table II-shaped dataset into a .dat file
    experiment  regenerate a paper table or figure (table1..table7,
                fig5..fig9, all)
    export      write every table/figure as TSV + summary.json
    lint        run the repo-invariant static lint rules (REP001..)
    bench       run the pinned-scale engine benchmarks and gate against
                the committed BENCH_engine.json baseline
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.experiments import ExperimentConfig, ExperimentSuite
from repro.analysis.report import render_dict_table, render_resilience_summary
from repro.core.extension import PRODUCTION_POLICY
from repro.datasets.generate import generate_paper_dataset
from repro.datasets.scenarios import SCENARIOS
from repro.errors import ReproError
from repro.genomics.io import read_dat, write_dat, write_fasta
from repro.kernels import available_backends, resolve_backend
from repro.kernels.engine import replay_l2_hit_rate, replay_suggested_l2_churn
from repro.resilience import OverflowPolicy
from repro.sanitize import parse_checks
from repro.simt.device import PLATFORMS, device_by_name

#: CLI spellings of the overflow policies.
_OVERFLOW_CHOICES = tuple(p.value for p in OverflowPolicy)


def _cmd_run(args: argparse.Namespace) -> int:
    contigs = read_dat(args.input)
    device = device_by_name(args.device)
    kw = {"policy": PRODUCTION_POLICY, "memory_model": args.memory_model,
          "overflow_policy": args.overflow_policy}
    if args.sanitize:
        if args.backend == "scalar":
            print("--sanitize shadows the SIMT warp protocols; the scalar "
                  "reference has none (pick a SIMT backend)", file=sys.stderr)
            return 2
        try:
            parse_checks(args.sanitize)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        kw["sanitize"] = args.sanitize
    if args.backend == "scalar" and args.memory_model == "trace":
        print("--memory-model trace needs a SIMT backend, not scalar",
              file=sys.stderr)
        return 2
    kernel = resolve_backend(args.backend, device, **kw)
    result = kernel.run(contigs, args.k)
    records = []
    for i, c in enumerate(contigs):
        right, rstate = result.right[i]
        left, lstate = result.left[i]
        records.append(
            (f"{c.name} left={lstate.value} right={rstate.value}",
             left + c.sequence + right)
        )
    write_fasta(records, args.output)
    p = result.profile
    print(f"{len(contigs)} contigs, {p.inserts} insertions, "
          f"{p.extension_bases} extension bases -> {args.output}")
    if result.degraded or result.retried:
        print(f"overflow handling ({args.overflow_policy}): "
              f"{len(result.degraded)} contig(s) degraded, "
              f"{len(result.retried)} recovered by grow-retry")
    if result.replay:
        launches = result.replay
        accesses = sum(s.accesses for s in launches)
        hbm = sum(s.hbm_bytes for s in launches)
        hit = replay_l2_hit_rate(launches)
        churn = replay_suggested_l2_churn(device, launches)
        print(f"exact replay: {len(launches)} launches, {accesses} slot "
              f"accesses, L2 hit rate {hit:.3f}, {hbm / 1e9:.3f} GB HBM "
              f"(analytic model used l2_churn={kernel.l2_churn:g}; "
              f"replay suggests {churn:.2f})")
    report = result.sanitizer_report
    if report is not None:
        print(report.render())
        if not report.ok:
            return 1
    return 0


def _cmd_assemble(args: argparse.Namespace) -> int:
    import os
    from dataclasses import asdict

    from repro.genomics.io import read_fastq
    from repro.metahipmer.pipeline import DeNovoAssembler, reads_fingerprint
    from repro.resilience.checkpoint import CheckpointStore

    if args.resume and not args.checkpoint_dir:
        print("--resume needs --checkpoint-dir", file=sys.stderr)
        return 2
    try:
        k_override = (tuple(int(x) for x in args.k_schedule.split(","))
                      if args.k_schedule else None)
    except ValueError:
        print(f"--k-schedule needs comma-separated integers, got "
              f"{args.k_schedule!r}", file=sys.stderr)
        return 2

    if args.scenario:
        scenario = SCENARIOS[args.scenario]
        reads = scenario.build(seed=args.seed).reads
        k_schedule = tuple(scenario.k_schedule)
        min_count = scenario.min_count
        source = f"scenario:{args.scenario}"
    else:
        try:
            reads = read_fastq(args.reads)
        except OSError as exc:
            print(f"error: cannot read {args.reads}: {exc}", file=sys.stderr)
            return 1
        k_schedule = (21, 33)
        min_count = 2
        source = args.reads
    if k_override:
        k_schedule = k_override
    if args.min_count is not None:
        min_count = args.min_count

    kernel = None
    if args.backend:
        kernel = resolve_backend(args.backend, device_by_name(args.device),
                                 policy=PRODUCTION_POLICY)

    asm = DeNovoAssembler(k_schedule=k_schedule, min_count=min_count,
                          kernel=kernel)

    checkpoint = None
    if args.checkpoint_dir:
        checkpoint = CheckpointStore(args.checkpoint_dir, meta={
            "source": source, "seed": args.seed,
            "reads": reads_fingerprint(reads),
            **asm.config_fingerprint()})
        if not args.resume:
            checkpoint.clear()

    # Test hook: REPRO_ASSEMBLE_CRASH_AFTER="<k>:<stage>" kills the
    # process right after that stage's checkpoint is durably written —
    # the crash/resume tests drive the pipeline through every possible
    # interruption point with it.
    crash_after = os.environ.get("REPRO_ASSEMBLE_CRASH_AFTER")

    def on_stage(k: int, stage: str, resumed: bool) -> None:
        print(f"[assemble] k={k} {stage}: "
              f"{'resumed' if resumed else 'done'}")
        if crash_after == f"{k}:{stage}" and not resumed:
            print(f"[assemble] injected crash after k={k} {stage}",
                  file=sys.stderr)
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(137)

    result = asm.assemble(reads, checkpoint=checkpoint, on_stage=on_stage)

    if args.output:
        write_fasta([(c.name, c.extended_sequence())
                     for c in result.contigs], args.output)
    if args.stats:
        # Purely functional (no timestamps / hostnames): a resumed run
        # must produce a byte-identical stats file.
        stats = {
            "source": source,
            "seed": args.seed,
            "k_schedule": list(k_schedule),
            "min_count": min_count,
            "reads": len(reads),
            "final_contigs": len(result.contigs),
            "final_n50": result.final_n50,
            "final_fingerprint": result.fingerprint(),
            "rounds": [asdict(r) for r in result.rounds],
        }
        with open(args.stats, "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
            fh.write("\n")
    from repro.analysis.report import render_assembly_report

    print(render_assembly_report(result, title=f"Assembly of {source}"))
    print(f"{len(reads)} reads -> {len(result.contigs)} contigs, "
          f"N50 {result.final_n50}, "
          f"fingerprint {result.fingerprint()[:16]}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    contigs = generate_paper_dataset(args.k, scale=args.scale, seed=args.seed)
    write_dat(contigs, args.output)
    reads = sum(c.depth for c in contigs)
    print(f"wrote {len(contigs)} contigs / {reads} reads to {args.output}")
    return 0


def _suite_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        scale=args.scale, seed=args.seed,
        overflow_policy=args.overflow_policy,
        checkpoint_dir=args.checkpoint_dir, workers=args.workers)


def _cmd_experiment(args: argparse.Namespace) -> int:
    suite = ExperimentSuite(_suite_config(args))
    if suite.config.workers > 1:
        # populate the run cache across processes up front; the table /
        # figure methods below then only read cached records
        suite.run_all()
    names = (
        ["table1", "table2", "table3", "table4", "table5", "table6", "table7",
         "fig5", "fig6", "fig7", "fig8", "fig9"]
        if args.name == "all"
        else [args.name]
    )
    for name in names:
        print(f"=== {name} (scale={args.scale}) ===")
        if name in ("table1", "table2", "table3", "table5", "table6"):
            rows = getattr(suite, name)()
            print(render_dict_table(rows))
        elif name in ("table4", "table7"):
            data = getattr(suite, name)()
            print(render_dict_table(data["rows"]))
            key = "average_P_arch" if name == "table4" else "average_P_alg"
            print(f"{key}: {data[key]}%")
        elif name == "fig5":
            print(render_dict_table(suite.figure5()))
        elif name == "fig6":
            print(json.dumps(suite.figure6(), indent=2))
        elif name in ("fig7", "fig8"):
            rows = suite.figure7() if name == "fig7" else suite.figure8()
            print(render_dict_table(rows))
        elif name == "fig9":
            rows = [
                {
                    "device": p.device, "k": p.k,
                    "pct_theoretical_II": round(100 * p.algorithm_efficiency, 1),
                    "pct_roofline": round(100 * p.architectural_efficiency, 1),
                    "speedup_by_AI": round(p.speedup_by_improving_ai, 2),
                    "speedup_by_perf": round(p.speedup_by_improving_performance, 2),
                }
                for p in suite.figure9()
            ]
            print(render_dict_table(rows))
        else:
            print(f"unknown experiment {name!r}", file=sys.stderr)
            return 2
        print()
    summary = suite.resilience_summary()
    if summary:
        print(render_resilience_summary(summary))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import inspect
    from pathlib import Path

    from repro.sanitize.lint import RULES, render_json, render_text
    from repro.sanitize.semantic import (
        UNUSED_SUPPRESSION_EXPLANATION,
        UNUSED_SUPPRESSION_ID,
        analyze_paths,
        render_sarif,
        write_baseline,
    )

    if args.explain:
        from repro.sanitize.lint import expand_select
        ids = [s.strip() for s in args.explain.split(",")]
        special = [i for i in ids if i == UNUSED_SUPPRESSION_ID]
        try:
            ids = special + expand_select(
                [i for i in ids if i != UNUSED_SUPPRESSION_ID])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        chunks = []
        for rule_id in ids:
            if rule_id == UNUSED_SUPPRESSION_ID:
                chunks.append(UNUSED_SUPPRESSION_EXPLANATION)
                continue
            rule = RULES[rule_id]
            doc = inspect.cleandoc(rule.__doc__ or rule.description)
            chunks.append(f"{rule_id}: {rule.description}\n\n{doc}")
        print("\n\n".join(chunks))
        return 0

    select = ([s.strip() for s in args.select.split(",")]
              if args.select else None)
    baseline = args.baseline
    if baseline is None and Path("LINT_BASELINE.json").exists():
        baseline = "LINT_BASELINE.json"
    try:
        result = analyze_paths(args.paths, select=select,
                               cache_path=args.cache,
                               baseline_path=baseline)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        target = Path(baseline or "LINT_BASELINE.json")
        write_baseline(target, result.all_findings)
        n = sum(1 for f in result.all_findings
                if f.rule != UNUSED_SUPPRESSION_ID)
        print(f"wrote {n} baseline finding(s) to {target}", file=sys.stderr)
        return 0
    if args.format == "json":
        print(render_json(result.findings))
    elif args.format == "sarif":
        print(render_sarif(result.findings))
    else:
        print(render_text(result.findings))
    print(f"{result.files} file(s), {result.reused} cached, "
          f"{result.suppressed} suppressed, {result.baselined} baselined",
          file=sys.stderr)
    return result.exit_code


#: ``repro bench --suite`` name -> the module whose ``SUITE`` record
#: (collector, gates, summary line) runs it; imported on use.
_BENCH_SUITES = {"engine": "repro.analysis.bench",
                 "serve": "repro.analysis.bench_serve"}


def _bench_one_suite(name: str, args: argparse.Namespace) -> int:
    """Run one bench suite (engine or serve) and gate it; 0 = pass."""
    import importlib
    import os

    suite = importlib.import_module(_BENCH_SUITES[name]).SUITE
    output = args.output or suite.default_path
    baseline_path = (args.baseline if args.baseline is not None
                     else suite.default_path)
    baseline = None
    if baseline_path and os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    current = suite.collect(smoke_only=args.smoke, repeats=args.repeats)
    written = current
    if baseline is not None and baseline.get("schema") == current.get("schema"):
        # A --smoke run must not drop the baseline's other scales.
        written = dict(baseline)
        written["scales"] = {**baseline.get("scales", {}),
                             **current["scales"]}
    with open(output, "w") as fh:
        json.dump(written, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for scale_name, scale in current["scales"].items():
        print(f"{scale_name}: {suite.describe(scale)}")
    print(f"wrote {output}")
    problems = list(suite.floor(current))
    if baseline is None:
        print("no baseline to compare against; commit the output to gate "
              "future runs")
    else:
        problems += suite.compare(baseline, current,
                                  max_regression=args.max_regression)
    if problems:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        return 1
    if baseline is not None:
        print(f"baseline {baseline_path}: identity match, throughput "
              f"within {args.max_regression:.0%}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    suites = tuple(_BENCH_SUITES) if args.suite == "all" else (args.suite,)
    if len(suites) > 1 and (args.output or args.baseline):
        print("error: --output/--baseline need a single --suite",
              file=sys.stderr)
        return 2
    worst = 0
    for suite in suites:
        worst = max(worst, _bench_one_suite(suite, args))
    return worst


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import serve_forever

    fault_plan = None
    if args.fault_plan:
        fault_plan = _load_fault_plan(args.fault_plan)
    try:
        asyncio.run(serve_forever(
            args.host, args.port,
            drain_timeout_s=args.drain_timeout,
            max_wave_warps=args.max_wave_warps,
            max_in_flight=args.max_in_flight,
            workers=args.workers,
            checkpoint_dir=args.checkpoint_dir,
            journal_path=args.journal,
            recover=args.recover,
            default_deadline_s=args.deadline_s,
            fault_plan=fault_plan))
    except KeyboardInterrupt:
        # fallback for platforms without loop signal handlers; with
        # them, SIGINT drains gracefully inside serve_forever instead
        print("repro serve: shut down")
    return 0


def _load_fault_plan(path: str):
    """Parse a JSON chaos plan file into a seeded FaultPlan."""
    from repro.resilience import FaultKind, FaultPlan, FaultSpec

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read fault plan {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ReproError(f"fault plan {path} must be a JSON object")
    try:
        faults = []
        for entry in doc.get("faults", []):
            kw = dict(entry)
            kw["kind"] = FaultKind(kw.pop("kind"))
            faults.append(FaultSpec(**kw))
        return FaultPlan(faults=tuple(faults), seed=int(doc.get("seed", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"bad fault plan {path}: {exc}") from None


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_all

    suite = ExperimentSuite(_suite_config(args))
    written = export_all(suite, args.out_dir)
    print(f"wrote {len(written)} files to {args.out_dir}")
    summary = suite.resilience_summary()
    if summary:
        print(render_resilience_summary(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro-locassm",
        description="de Bruijn local-assembly kernel reproduction (SC-W 2024)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run local assembly on a .dat file")
    p_run.add_argument("input")
    p_run.add_argument("k", type=int)
    p_run.add_argument("output")
    p_run.add_argument("--device", default="A100",
                       choices=[d.name for d in PLATFORMS])
    p_run.add_argument("--backend", default="auto",
                       choices=("auto",) + available_backends(),
                       help="execution backend (auto = match the device's "
                            "programming model)")
    p_run.add_argument("--memory-model", default="analytic",
                       choices=("analytic", "trace"),
                       help="analytic working-set cache model only "
                            "(default), or additionally replay every "
                            "table-slot access through the exact batched "
                            "cache hierarchy and report measured traffic")
    p_run.add_argument("--overflow-policy", default="raise",
                       choices=_OVERFLOW_CHOICES,
                       help="hash-table overflow semantics: abort (raise), "
                            "drop the contig like the GPU kernel's "
                            "'*hashtable full*' path, or grow-retry it")
    p_run.add_argument("--sanitize", default=None, metavar="CHECKS",
                       help="shadow the warp protocols compute-sanitizer "
                            "style: 'all' or a comma list of racecheck, "
                            "synccheck, initcheck; exits 1 on findings")
    p_run.set_defaults(func=_cmd_run)

    p_asm = sub.add_parser(
        "assemble",
        help="run the end-to-end de novo assembler (reads -> contigs)")
    asm_src = p_asm.add_mutually_exclusive_group(required=True)
    asm_src.add_argument("--scenario", choices=sorted(SCENARIOS),
                         help="built-in scenario preset to generate and "
                              "assemble")
    asm_src.add_argument("--reads", metavar="FASTQ",
                         help="assemble reads from a FASTQ file instead")
    p_asm.add_argument("--seed", type=int, default=None,
                       help="override the scenario's RNG seed")
    p_asm.add_argument("--k-schedule", default=None, metavar="K1,K2,...",
                       help="comma-separated k per round (default: the "
                            "scenario's schedule, or 21,33 for --reads)")
    p_asm.add_argument("--min-count", type=int, default=None,
                       help="k-mer error-filter / edge-support threshold")
    p_asm.add_argument("--backend", default=None,
                       choices=available_backends(),
                       help="run the local-assembly phase on a simulated "
                            "GPU backend (default: the scalar CPU backend)")
    p_asm.add_argument("--device", default="A100",
                       choices=[d.name for d in PLATFORMS],
                       help="device model for --backend")
    p_asm.add_argument("--checkpoint-dir", default=None,
                       help="persist every completed pipeline stage here")
    p_asm.add_argument("--resume", action="store_true",
                       help="restore completed stages from --checkpoint-dir "
                            "instead of starting over")
    p_asm.add_argument("--output", default=None, metavar="FASTA",
                       help="write final contigs here")
    p_asm.add_argument("--stats", default=None, metavar="JSON",
                       help="write per-round statistics here "
                            "(deterministic: resume-safe to diff)")
    p_asm.set_defaults(func=_cmd_assemble)

    p_gen = sub.add_parser("generate", help="generate a Table II-style dataset")
    p_gen.add_argument("k", type=int, choices=(21, 33, 55, 77))
    p_gen.add_argument("output")
    p_gen.add_argument("--scale", type=float, default=0.01)
    p_gen.add_argument("--seed", type=int, default=2024)
    p_gen.set_defaults(func=_cmd_generate)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("name", help="table1..table7, fig5..fig9, or 'all'")
    p_exp.set_defaults(func=_cmd_experiment)

    p_export = sub.add_parser("export",
                              help="write all tables/figures as TSV files")
    p_export.add_argument("out_dir")
    p_export.set_defaults(func=_cmd_export)

    for p_suite in (p_exp, p_export):  # both build one ExperimentSuite
        p_suite.add_argument("--scale", type=float, default=0.02)
        p_suite.add_argument("--seed", type=int, default=2024)
        p_suite.add_argument("--overflow-policy", default="raise",
                             choices=_OVERFLOW_CHOICES)
        p_suite.add_argument("--checkpoint-dir", default=None,
                             help="persist each completed (device, k) run "
                                  "here and resume from matching checkpoints")
        p_suite.add_argument("--workers", type=int, default=1,
                             help="processes for the (device, k) grid; "
                                  "results are identical to --workers 1, "
                                  "only faster")

    p_bench = sub.add_parser(
        "bench", help="run the pinned-scale benchmarks (engine and serve)")
    p_bench.add_argument("--suite", default="engine",
                         choices=(*_BENCH_SUITES, "all"),
                         help="which bench suite to run (default: engine)")
    p_bench.add_argument("--smoke", action="store_true",
                         help="run only the CI-fast smoke scale")
    p_bench.add_argument("--output", default=None,
                         help="where to write the measured document "
                              "(default: BENCH_engine.json / "
                              "BENCH_serve.json per suite)")
    p_bench.add_argument("--baseline", default=None,
                         help="committed baseline to gate against "
                              "(default: the suite's BENCH file; skipped "
                              "when it does not exist)")
    p_bench.add_argument("--max-regression", type=float, default=0.25,
                         help="fail when throughput drops more than this "
                              "fraction below the baseline (default 0.25)")
    p_bench.add_argument("--repeats", type=int, default=3,
                         help="timing repeats per scale; best is reported")
    p_bench.set_defaults(func=_cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="run the coalescing assembly service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="listen port (0 picks an ephemeral one)")
    p_serve.add_argument("--max-wave-warps", type=int, default=4096,
                         help="seal a wave early past this warp estimate; "
                              "1 disables fusion (one launch per job)")
    p_serve.add_argument("--max-in-flight", type=int, default=256,
                         help="admission budget; submits past it get 429")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="wave lanes; > 1 runs waves on a process "
                              "pool so independent waves overlap")
    p_serve.add_argument("--checkpoint-dir", default=None,
                         help="persist finished jobs here and resume "
                              "identical resubmissions from checkpoints")
    p_serve.add_argument("--journal", default=None, metavar="PATH",
                         help="crash-safe job journal (WAL): submits are "
                              "durably logged before their 202")
    p_serve.add_argument("--recover", action="store_true",
                         help="replay the --journal on start: finished "
                              "jobs resume from checkpoints, in-flight "
                              "jobs re-dispatch")
    p_serve.add_argument("--drain-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="bound on draining in-flight waves at "
                              "shutdown (default: drain fully)")
    p_serve.add_argument("--deadline-s", type=float, default=60.0,
                         help="per-job deadline when a submission sends "
                              "no deadline_s (default 60)")
    p_serve.add_argument("--fault-plan", default=None, metavar="PATH",
                         help="seeded JSON chaos plan injected by the "
                              "wave supervisor (testing only)")
    p_serve.set_defaults(func=_cmd_serve)

    p_lint = sub.add_parser(
        "lint", help="run the repo-invariant static lint rules")
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint (default: src)")
    p_lint.add_argument("--format", default="text",
                        choices=("text", "json", "sarif"))
    p_lint.add_argument("--select", default=None, metavar="IDS",
                        help="comma-separated rule ids, ranges, or "
                             "prefixes, e.g. REP003,REP009-REP013,REP0 "
                             "(default: all rules)")
    p_lint.add_argument("--explain", default=None, metavar="ID",
                        help="print the rule docstring(s) for the given "
                             "id(s) and exit")
    p_lint.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline file of grandfathered findings "
                             "(default: LINT_BASELINE.json if present)")
    p_lint.add_argument("--write-baseline", action="store_true",
                        help="write the current findings to the baseline "
                             "file and exit 0")
    p_lint.add_argument("--cache", default=None, metavar="PATH",
                        help="incremental analysis cache keyed by file "
                             "content hash (off unless given)")
    p_lint.set_defaults(func=_cmd_lint)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # every domain failure exits nonzero with a one-line diagnosis
        # instead of a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
