"""Property: per-phase category cycles always sum to the run's totals.

The analytical model predicts *into* the per-phase cost-category schema, so
the schema must be conserved wherever the simulator produces it — under
every protocol, with and without injected faults, for arbitrary access
patterns.  Hypothesis drives random multi-phase workloads through a small
machine and asserts both conservation invariants the model relies on:
category cycles sum to wall time per node, and phase breakdowns telescope
to the node accumulators per category.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.faults.plan import FaultEvent
from repro.model import predict
from repro.tempest.machine import PhaseTrace
from repro.util import MachineConfig

from tests.helpers import check_phase_conservation, small_machine

N_NODES = 3
N_BLOCKS = 8

# one phase = for each node, a few (read/write, block-offset) accesses
phase_strategy = st.lists(
    st.lists(st.tuples(st.sampled_from("rw"),
                       st.integers(0, N_BLOCKS - 1)),
             max_size=6),
    min_size=N_NODES, max_size=N_NODES)
workload_strategy = st.lists(phase_strategy, min_size=1, max_size=5)

FAULT_REGIMES = {
    "fault-free": None,
    "transport": FaultPlan(events=(
        FaultEvent("drop", ("msg", "GET_RO", 1, 0, 0, 0, 0)),
        FaultEvent("delay", ("msg", "DATA_RO", 0, 1, 0, 0, 0), amount=500.0),
        FaultEvent("dup", ("msg", "GET_RW", 2, 0, 0, 0, 0)),
    )),
    "schedule": FaultPlan(events=(
        FaultEvent("stale", ("sched", 1, 0)),
        FaultEvent("corrupt", ("sched", 2, 1)),
    )),
}


def run_workload(protocol, plan, phases):
    m, first = small_machine(protocol, n_nodes=N_NODES)
    if plan is not None:
        plan.install(m)
    # write-update requires producer-owned data: non-home nodes only read
    # (the region is homed on node 0)
    demote = protocol == "write-update"
    for d, phase in enumerate(phases, start=1):
        ops = [[("r" if demote and node != 0 else kind, first + off)
                for kind, off in node_ops]
               for node, node_ops in enumerate(phase)]
        m.begin_group(d)
        m.run_phase(PhaseTrace(f"d{d}", ops))
        m.end_group()
    return m.finish()


class TestSimConservation:
    @given(workload_strategy)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stache(self, phases):
        self.check_all_regimes("stache", phases)

    @given(workload_strategy)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_predictive(self, phases):
        self.check_all_regimes("predictive", phases)

    @given(workload_strategy)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_write_update(self, phases):
        self.check_all_regimes("write-update", phases)

    def check_all_regimes(self, protocol, phases):
        for plan in FAULT_REGIMES.values():
            stats = run_workload(protocol, plan, phases)
            # finish() already ran check_conservation; the phase schema
            # must telescope too
            check_phase_conservation(stats)
            assert len(stats.phases) == len(phases)


class TestModelConservation:
    """The model's predicted stats obey the same invariants it consumes."""

    def test_all_protocols(self):
        from repro.apps import barnes, water

        cfg = MachineConfig(n_nodes=4, page_size=512)
        spmd_kw = dict(n=24, iterations=2, theta=0.6, dt=0.15,
                       vel_scale=1.0, work_scale=5.0)
        cases = [
            (water, dict(n=16, iterations=2), "cstar", "stache", False, cfg),
            (water, dict(n=16, iterations=2), "cstar", "predictive", True,
             cfg),
            (barnes, spmd_kw, "spmd", "write-update", False,
             cfg.with_(page_size=1024, per_byte_cost=1.15)),
        ]
        for app, kw, variant, protocol, optimized, config in cases:
            pred = predict(app, kw, protocol=protocol, optimized=optimized,
                           config=config, variant=variant).stats
            pred.check_conservation()
            check_phase_conservation(pred)
