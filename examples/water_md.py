#!/usr/bin/env python3
"""Water molecular dynamics: a *static* repetitive pattern (paper §5.3).

Water's producer-consumer pattern never changes: molecule i's position,
written by its owner each update phase, is read by the same ~n/2 molecules
every interaction phase.  This example shows the predictive protocol's
life cycle on such a pattern:

* iteration 1 — all cold misses; the protocol records them into the two
  directives' schedules;
* iteration 2 onward — pre-send converts essentially every miss into a
  local hit, and the schedules stop growing.

It also compares against the Splash-style transparent-shared-memory
version whose private-partial merge traffic the C** formulation avoids.

Run:  python examples/water_md.py
"""

import sys
from pathlib import Path

import numpy as np

from repro.apps import water
from repro.core import make_machine
from repro.util import MachineConfig

# the sequential reference numerics live with this checkout's tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.apps.reference import water_reference  # noqa: E402

PARAMS = dict(n=64, iterations=6, work_scale=20.0)
CFG = MachineConfig(n_nodes=8, page_size=512, block_size=32)


def miss_timeline(machine) -> list[int]:
    """Per-iteration miss counts from the recorded phase boundaries."""
    # Phases alternate interactions/update; fold pairs into iterations.
    import itertools

    counts = []
    phases = machine.stats.phases
    # machine counters are cumulative; reconstruct per-phase from wall deltas
    return [round(p.wall) for p in phases]


def main() -> None:
    ref_pos, _ = water_reference(n=PARAMS["n"], iterations=PARAMS["iterations"])

    print("predictive protocol on a static repetitive pattern:")
    program = water.build(**PARAMS)
    machine = make_machine(CFG, "predictive")
    env = program.run(machine, optimized=True)
    stats = env.finish()
    assert np.abs(env.agg("pos").data[:, :3] - ref_pos).max() == 0.0

    for sched in sorted(machine.protocol.schedules.values(),
                        key=lambda s: s.directive_id):
        d = sched.directive_id
        adds = sched.additions_per_instance[1:]
        print(f"  directive {d}: schedule growth per iteration: {adds}"
              f"  (static pattern -> converges immediately)")
    print(f"  final hit rate {stats.hit_rate:.2%}, "
          f"pre-sent blocks: {machine.protocol.presend_blocks}")

    print("\nthree versions of the same computation:")
    for label, variant, protocol, optimized in [
        ("C** optimized", "cstar", "predictive", True),
        ("C** unoptimized", "cstar", "stache", False),
        ("Splash-style", "splash", "stache", False),
    ]:
        prog = water.build(variant=variant, **PARAMS)
        m = make_machine(CFG, protocol)
        e = prog.run(m, optimized=optimized)
        s = e.finish()
        err = np.abs(e.agg("pos").data[:, :3] - ref_pos).max()
        print(f"  {label:<16} wall={s.wall_time:>12,.0f}  "
              f"wait={s.figure_breakdown()['Remote data wait']:>11,.0f}  "
              f"value err={err:.1e}")


if __name__ == "__main__":
    main()
