"""Differential equivalence: the production path must be bit-identical
to the reference.

Every test replays the same workload through the reference machine
(``tests.helpers.oracle_machine``: the heap engine, op-at-a-time processor
and dict tags of ``tests/oracle.py``) and the production machine
(``make_machine(cfg, proto)``: calendar queue, compiled processors,
byte-array tags) and requires *exact* equality of

* the full checkpoint snapshot (:func:`snapshot_machine` — engine seq and
  dispatch counters, tag tables, directory state, fault/crash controller
  state, node statistics), and
* the structured :class:`~repro.sim.stats.RunStats` content,

across all three protocols and the fault-free, faulted, and crashed
regimes, plus a seeded fuzz sweep and small real-application runs.  A run
that raises must raise identically on both paths.
"""

from __future__ import annotations

import pytest

from repro.core.factory import make_machine
from repro.faults.plan import BUNDLED_PLANS, CRASH_PLANS
from repro.tempest.tracefile import replay_session
from repro.verify.workload import ALL_PROTOCOLS, generate_workload

from tests.checkpoint import snapshot_machine
from tests.helpers import oracle_machine

#: one representative of each fault regime the campaign distinguishes
REGIMES = ["drop", "delay", "chaos", "crash", "crash-storm"]


def _plan(name):
    if name is None:
        return None
    plan = BUNDLED_PLANS.get(name) or CRASH_PLANS[name]
    return plan


def _stats_key(stats):
    return (
        stats.wall_time,
        stats.phase_rows(),
        stats.summary_rows(),
        [vars(ns) for ns in stats.nodes],
    )


def _machine(config, protocol, reference):
    return (oracle_machine if reference else make_machine)(config, protocol)


def _run_one(workload, protocol, regime, reference):
    machine = _machine(workload.config, protocol, reference)
    plan = _plan(regime)
    if plan is not None:
        plan.install(machine)
    stats = replay_session(workload.session, machine)
    return snapshot_machine(machine), _stats_key(stats)


def assert_equivalent(workload, protocol, regime=None):
    try:
        ref_snap, ref_stats = _run_one(workload, protocol, regime,
                                       reference=True)
    except Exception as ref_exc:  # both paths must fail identically
        with pytest.raises(type(ref_exc)) as info:
            _run_one(workload, protocol, regime, reference=False)
        assert str(info.value) == str(ref_exc)
        return
    snap, stats = _run_one(workload, protocol, regime, reference=False)
    assert snap == ref_snap
    assert stats == ref_stats


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("seed", range(2))
def test_fault_free(seed, protocol):
    assert_equivalent(generate_workload(seed), protocol)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("regime", REGIMES)
def test_fault_regimes(regime, protocol):
    for seed in (0, 1):
        assert_equivalent(generate_workload(seed), protocol, regime)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_fuzz_sweep(protocol):
    """Seeded sweep: many small generated sessions, fault-free and chaotic."""
    for seed in range(2, 8):
        workload = generate_workload(seed)
        assert_equivalent(workload, protocol)
        assert_equivalent(workload, protocol,
                          "chaos" if seed % 2 == 0 else "crash")


@pytest.mark.parametrize("app_name,kwargs", [
    ("water", dict(n=24, iterations=2, work_scale=10.0)),
    ("adaptive", dict(size=8, iterations=3, threshold=0.05, work_scale=4.0)),
])
@pytest.mark.parametrize("protocol,optimized", [
    ("stache", False), ("predictive", True),
])
def test_real_apps(app_name, kwargs, protocol, optimized):
    """Small real-application runs: stats and final machine state match."""
    import importlib

    from repro.util.config import MachineConfig

    app = importlib.import_module(f"repro.apps.{app_name}")
    cfg = MachineConfig(n_nodes=4, block_size=32, page_size=256)
    results = {}
    for reference in (True, False):
        machine = _machine(cfg, protocol, reference)
        env = app.build(**kwargs).run(machine, optimized=optimized)
        stats = env.finish()
        results[reference] = (
            _stats_key(stats),
            machine.engine.total_dispatched,
            machine.engine._seq,
            snapshot_machine(machine),
        )
    assert results[True] == results[False]


def test_oracle_matches_production():
    """run_workload with no policy observes exactly what it observes
    with a FIFO replay policy consulted at every choice point."""
    from repro.verify.interleave import ReplayPolicy
    from repro.verify.oracle import run_workload

    workload = generate_workload(3)
    for protocol in workload.protocols:
        ref = run_workload(workload, protocol, policy=ReplayPolicy([]))
        fst = run_workload(workload, protocol)
        assert fst.readers == ref.readers
        assert fst.writers == ref.writers
        assert fst.image == ref.image
        assert fst.stats.to_dict() == ref.stats.to_dict()
