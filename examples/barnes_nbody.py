#!/usr/bin/env python3
"""Barnes-Hut N-body: block-size effects and the hand-optimized baseline.

Reproduces the paper's Figure-6 comparison in miniature: the predictive
protocol wins big at fine-grain (32-byte) blocks, but Barnes' excellent
spatial locality lets large (1024-byte) blocks close most of the gap, and
the hand-written SPMD/write-update baseline lands in the same near-tie —
without needing a hand-written protocol.

Also prints the compiler's directive placement: four phases, with the
center-of-mass loop's schedule hoisted (the paper's Figure 4).

Run:  python examples/barnes_nbody.py
"""

import sys
from pathlib import Path

import numpy as np

from repro.apps import barnes
from repro.core import make_machine
from repro.util import MachineConfig

# the sequential reference numerics live with this checkout's tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.apps.reference import barnes_reference  # noqa: E402

PARAMS = dict(n=96, iterations=3, vel_scale=1.0, dt=0.15, work_scale=5.0)
BASE = MachineConfig(n_nodes=8, page_size=1024, per_byte_cost=1.15)


def main() -> None:
    program = barnes.build(**PARAMS)
    placement = program.compile()
    print("--- compiler directive placement (paper Figure 4) ---")
    print(placement.describe())

    ref_params = {k: v for k, v in PARAMS.items() if k != "work_scale"}
    ref_pos, _ = barnes_reference(**ref_params)
    rows = []
    for label, protocol, optimized, block, variant in [
        ("C** unopt (32 B)", "stache", False, 32, "cstar"),
        ("C** opt   (32 B)", "predictive", True, 32, "cstar"),
        ("C** unopt (1 KiB)", "stache", False, 1024, "cstar"),
        ("C** opt   (1 KiB)", "predictive", True, 1024, "cstar"),
        ("SPMD+update (32 B)", "write-update", False, 32, "spmd"),
    ]:
        prog = barnes.build(variant=variant, **PARAMS)
        machine = make_machine(BASE.with_(block_size=block), protocol)
        env = prog.run(machine, optimized=optimized)
        stats = env.finish()
        err = np.abs(env.agg("bodies").data[:, :3] - ref_pos).max()
        assert err == 0.0
        rows.append((label, stats))

    fastest = min(s.wall_time for _, s in rows)
    print("\n--- five versions, values identical, times relative to fastest ---")
    for label, stats in rows:
        b = stats.figure_breakdown()
        print(f"{label:<20} {stats.wall_time / fastest:5.2f}x   "
              f"wait={b['Remote data wait']:>10,.0f}  "
              f"presend={b['Predictive protocol']:>9,.0f}  "
              f"hit={stats.hit_rate:.1%}")


if __name__ == "__main__":
    main()
