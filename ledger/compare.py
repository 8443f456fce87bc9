"""Compare two ledger results, metric by metric, workload by workload.

    python3 ledger/compare.py A.json B.json      # A = parent, B = change
    python3 ledger/compare.py --selfcheck [--runs 3] [--seed 2024]

``A.json`` / ``B.json`` are ``ledger/out/result.json`` files written by
``run.py [--runs N]``. For every (workload, end-to-end metric) both
medians, both inter-quartile ranges, the change and the metric's bound
(from ``BENCHMARK.json``) are printed with a verdict:

* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``same`` — they do not;
* ``unresolved`` — the run-to-run spread exceeds the bound and the two
  sets of runs overlap, so neither of the above can be said.

Exit status is non-zero on any ``worse`` or any rise in the failed
fraction. ``--selfcheck`` runs the suite twice on the same tree and
applies the same rule: the benchmark must agree with itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def values(result: dict, workload: str, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"]
            for run in result["workloads"][workload]["e2e"]]


def summary(v: list[float]) -> tuple[float, float]:
    """(median, inter-quartile range); one run has no range."""
    if len(v) < 2:
        return v[0], 0.0
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q2, q3 - q1


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, fraction by which B is worse than A)."""
    sign = 1.0 if better == "lower" else -1.0
    (med_a, iqr_a), (med_b, iqr_b) = summary(a), summary(b)
    worse_by = sign * (med_b - med_a) / med_a
    spread = max(iqr_a, iqr_b) / med_a
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not (all_worse or all_better):
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def failed_fraction(result: dict, workload: str) -> float:
    entry = result["workloads"][workload]
    runs = entry["e2e"] + [entry["layers"]]
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(a: dict, b: dict) -> int:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bad = 0
    print(f"{'workload':14s} {'metric':18s} {'A median':>11s} {'A iqr':>9s} "
          f"{'B median':>11s} {'B iqr':>9s} {'B worse by':>10s} "
          f"{'bound':>6s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        for m in spec["end_to_end"]:
            va, vb = values(a, name, m["name"]), values(b, name, m["name"])
            word, worse_by = verdict(va, vb, m["better"], m["bound"])
            (med_a, iqr_a), (med_b, iqr_b) = summary(va), summary(vb)
            print(f"{name:14s} {m['name']:18s} {med_a:11.4g} {iqr_a:9.3g} "
                  f"{med_b:11.4g} {iqr_b:9.3g} {worse_by:+10.1%} "
                  f"{m['bound']:6.0%}  {word}")
            bad += word == "worse"
        fa, fb = failed_fraction(a, name), failed_fraction(b, name)
        if fb > fa:
            print(f"{name:14s} failed fraction rose {fa:.4f} -> {fb:.4f}")
            bad += 1
        da = a["workloads"][name]["layers"].get("sim_digest")
        db = b["workloads"][name]["layers"].get("sim_digest")
        seeds = [r["workloads"][name]["layers"]["environment"]["seed"]
                 for r in (a, b)]
        if seeds[0] == seeds[1]:
            print(f"{name:14s} sim_digest "
                  f"{'identical' if da == db else 'DIFFERS: simulated counters changed'}")
    return 1 if bad else 0


def selfcheck(runs: int, seed: int) -> int:
    results = []
    for side in "ab":
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--runs", str(runs), "--seed", str(seed)],
                       cwd=REPO, check=True)
        path = os.path.join(HERE, "out", f"selfcheck_{side}.json")
        shutil.move(os.path.join(HERE, "out", "result.json"), path)
        with open(path) as fh:
            results.append(json.load(fh))
    return compare(*results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="*", metavar="RESULT.json")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args.runs, args.seed)
    if len(args.results) != 2:
        parser.error("give two result files, or --selfcheck")
    loaded = []
    for path in args.results:
        with open(path) as fh:
            loaded.append(json.load(fh))
    return compare(*loaded)


if __name__ == "__main__":
    sys.exit(main())
