#!/usr/bin/env python3
"""Adaptive mesh refinement under the predictive protocol (paper §5.1).

Runs the Adaptive application — red/black relaxation with quad-tree cell
refinement near the charged wall — and shows the two things the paper
highlights:

1. the *incremental* growth of communication schedules as refinement adds
   new quad-tree traffic iteration by iteration, and
2. the reduction in both remote-wait AND synchronization time (the pre-send
   phase also evens out the load imbalance refinement causes).

Run:  python examples/adaptive_mesh.py
"""

import sys
from pathlib import Path

import numpy as np

from repro.apps import adaptive
from repro.core import make_machine
from repro.sim import TimeCategory
from repro.util import MachineConfig

# the sequential reference numerics live with this checkout's tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.apps.reference import adaptive_reference  # noqa: E402

PARAMS = dict(size=16, iterations=10, threshold=0.05, work_scale=8.0)
CFG = MachineConfig(n_nodes=8, page_size=512, block_size=32)


def main() -> None:
    print("sequential reference for validation ...")
    ref_params = {k: v for k, v in PARAMS.items() if k != "work_scale"}
    ref_mesh, ref_level, _ = adaptive_reference(**ref_params)
    print(f"  refined cells: {(ref_level > 0).sum()} "
          f"(level 2: {(ref_level == 2).sum()})")

    runs = {}
    for label, protocol, optimized in [
        ("unoptimized", "stache", False),
        ("optimized", "predictive", True),
    ]:
        program = adaptive.build(**PARAMS)
        machine = make_machine(CFG, protocol)
        env = program.run(machine, optimized=optimized)
        stats = env.finish()
        err = np.abs(env.agg("mesh").data - ref_mesh).max()
        assert err == 0.0, "simulated values must match the reference exactly"
        runs[label] = (machine, stats)
        print(f"\n{label}: wall={stats.wall_time:,.0f} cycles, "
              f"hit rate {stats.hit_rate:.1%}")
        for cat in TimeCategory:
            print(f"  {cat.value:<12} {stats.mean(cat):>12,.0f}")

    machine, _ = runs["optimized"]
    print("\nincremental schedule growth (new blocks per iteration):")
    for sched in sorted(machine.protocol.schedules.values(),
                        key=lambda s: s.directive_id):
        d = sched.directive_id
        growth = sched.additions_per_instance[1:]
        print(f"  directive {d}: start {growth[0] if growth else 0} blocks, "
              f"then +{growth[1:]}")

    unopt = runs["unoptimized"][1]
    opt = runs["optimized"][1]
    print(f"\nspeedup: {unopt.wall_time / opt.wall_time:.2f}x "
          f"(paper Figure 5: best-opt 1.56x over best-unopt)")
    print(f"synch time: {unopt.mean(TimeCategory.SYNCH):,.0f} -> "
          f"{opt.mean(TimeCategory.SYNCH):,.0f} cycles "
          f"(the paper's load-imbalance effect)")


if __name__ == "__main__":
    main()
