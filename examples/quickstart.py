#!/usr/bin/env python
"""Quickstart: extend contigs with the CPU local assembler.

Simulates a handful of contigs with reads aligned to their ends (and a
known ground truth), runs the iterative local assembly (k = 21, 33) on
the ``scalar`` backend, and checks the recovered extensions against the
hidden true flanks.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ScenarioSpec, create_backend, simulate_batch

rng = np.random.default_rng(42)

# 1. Simulate 5 contigs, each with ~8x read coverage over its ends and
#    120 bases of hidden true sequence beyond each end.
spec = ScenarioSpec(contig_length=300, flank_length=120, read_length=100,
                    depth=8, seed_window=60)
scenarios = simulate_batch(5, spec, rng)
contigs = [s.contig for s in scenarios]

# 2. Run local assembly: per contig, build a de Bruijn hash table from its
#    reads and mer-walk both ends, retrying forks with the next k.
result = create_backend("scalar").run_schedule(contigs, (21, 33))

# 3. Compare against the simulator's ground truth.
print(f"{'contig':<10} {'left':>5} {'right':>6}  correct?")
total = 0
for scenario, contig, (left, lstate), (right, rstate) in zip(
        scenarios, contigs, result.left, result.right):
    left_ok = scenario.true_left_flank.endswith(left)
    right_ok = scenario.true_right_flank.startswith(right)
    print(f"{contig.name:<10} {len(left):>4}bp {len(right):>5}bp  "
          f"left={'yes' if left_ok else 'NO'} right={'yes' if right_ok else 'NO'} "
          f"(states: {lstate.value}/{rstate.value})")
    total += len(left) + len(right)

print(f"\nextended {len(contigs)} contigs by {total} bases total")
