"""The drain is chosen from the policy, in one place, never by a flag.

There is one simulator.  ``make_machine`` (and a bare ``Machine``) always
builds it; the only thing that varies is whether a tie-break policy is
installed on its engine, and ``run_workload`` installs one exactly when
the policy is not plain FIFO.  Under a policy the production machine must
be the heap explorer's twin (``tests/oracle.py``): the same recorded
``choices`` and ``frontiers``, bit-identical snapshots and statistics, the
same dispatch count, the same exception.
"""

from __future__ import annotations

import random

import pytest

from repro.core.factory import PROTOCOLS, make_machine
from repro.faults.plan import BUNDLED_PLANS, CRASH_PLANS
from repro.protocols.stache import StacheProtocol
from repro.sim.engine import CalendarEngine
from repro.tempest.machine import Machine, ReplayProcessor
from repro.tempest.tags import TagTable
from repro.tempest.tracefile import replay_session
from repro.util.config import MachineConfig
from repro.verify.interleave import (
    FifoPolicy,
    ReplayPolicy,
    SeededRandomPolicy,
)
from repro.verify.monitor import CoherenceViolation
from repro.verify.oracle import run_workload
from repro.verify.workload import ALL_PROTOCOLS, generate_workload

from tests.checkpoint import snapshot_machine
from tests.helpers import oracle_machine, run_one_phase
from tests.verify.test_fuzz import DroppedAck

CFG = MachineConfig(n_nodes=2, block_size=32, page_size=128)


@pytest.fixture
def built(monkeypatch):
    """Records every machine ``run_workload`` gets from ``make_machine``."""
    machines = []

    def spy(*args, **kwargs):
        machines.append(make_machine(*args, **kwargs))
        return machines[-1]

    monkeypatch.setattr("repro.verify.oracle.make_machine", spy)
    return machines


def _assert_the_one_simulator(machine, policy=None):
    assert type(machine.engine) is CalendarEngine
    assert machine.engine.policy is policy
    assert all(type(n.tags) is TagTable for n in machine.nodes)
    assert {type(p) for p in machine._procs} == {ReplayProcessor}


class TestOneSimulator:
    @pytest.mark.parametrize("build", [
        lambda: make_machine(CFG, "stache"),
        lambda: Machine(CFG, StacheProtocol),
    ], ids=["make_machine", "bare-machine"])
    def test_every_construction_lands_on_it(self, build):
        m = build()
        run_one_phase(m, {0: [("c", 1.0)]})
        _assert_the_one_simulator(m)


class TestRunWorkloadFollowsThePolicy:
    @pytest.mark.parametrize("policy", [None, FifoPolicy()],
                             ids=["none", "fifo"])
    def test_fifo_runs_on_the_calendar_path(self, built, policy):
        run_workload(generate_workload(0), "stache", policy, max_events=123_456)
        (machine,) = built
        assert machine.engine.default_max_events == 123_456
        _assert_the_one_simulator(machine)  # no policy installed: FIFO order

    @pytest.mark.parametrize("policy_factory", [
        lambda: SeededRandomPolicy(7), lambda: ReplayPolicy([1, 0]),
    ], ids=["seeded-random", "replay"])
    def test_any_other_policy_runs_on_the_exploring_drain(self, built,
                                                          policy_factory):
        policy = policy_factory()
        run_workload(generate_workload(0), "stache", policy, max_events=123_456)
        (machine,) = built
        assert machine.engine.default_max_events == 123_456
        _assert_the_one_simulator(machine, policy)
        assert policy.choices  # the engine consulted it

    def test_fifo_violation_carries_an_empty_replayable_schedule(
            self, monkeypatch):
        monkeypatch.setitem(PROTOCOLS, "stache", DroppedAck)
        violation = workload = None
        for seed in range(6):
            workload = generate_workload(seed)
            try:
                run_workload(workload, "stache")
            except CoherenceViolation as exc:
                violation = exc
                break
        assert violation is not None, "the sabotaged protocol was not caught"
        assert violation.schedule == []
        assert "(FIFO order)" in violation.report()
        with pytest.raises(CoherenceViolation) as replayed:
            run_workload(workload, "stache", ReplayPolicy(violation.schedule))
        for field in ("invariant", "detail", "phase", "seed"):
            assert getattr(replayed.value, field) == getattr(violation, field)


# -- production vs the heap explorer, choice for choice -------------------------

#: one policy of each kind per workload seed; replay indices deliberately
#: overshoot most frontiers (they clamp), the DFS prefix keeps recording
POLICIES = {
    "seeded-random": lambda seed: SeededRandomPolicy(1000 + seed),
    "replay": lambda seed: ReplayPolicy(
        [random.Random(seed).randrange(6) for _ in range(40)]),
    "dfs": lambda seed: ReplayPolicy([1, 0, 2, 1]),
}
PLANS = {None: None, "chaos": BUNDLED_PLANS["chaos"],
         "crash-storm": CRASH_PLANS["crash-storm"]}


def _outcome(build, workload, protocol, plan, policy):
    machine = build(workload.config, protocol, policy=policy)
    machine.engine.default_max_events = 500_000
    if plan is not None:
        plan.install(machine)
    stats = snap = error = None
    try:
        stats = replay_session(workload.session, machine).to_dict()
        snap = snapshot_machine(machine)
    except Exception as exc:  # the two machines must fail identically
        error = (type(exc), str(exc))
    return {"choices": policy.choices, "frontiers": policy.frontiers,
            "stats": stats, "snapshot": snap, "error": error,
            "dispatched": machine.engine.total_dispatched}


def _assert_twins(workload, protocol, plan, make_policy):
    ref = _outcome(oracle_machine, workload, protocol, plan, make_policy())
    got = _outcome(make_machine, workload, protocol, plan, make_policy())
    assert got == ref
    return ref


class TestPolicyDrainMatchesHeapExplorer:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize("plan", PLANS, ids=str)
    def test_fuzz_workloads_agree(self, plan, protocol):
        choice_points = 0
        for seed in range(16):
            workload = generate_workload(seed)
            if protocol not in workload.protocols:
                continue
            for make_policy in POLICIES.values():
                ref = _assert_twins(workload, protocol, PLANS[plan],
                                    lambda: make_policy(seed))
                choice_points += len(ref["choices"])
        assert choice_points > 100  # the comparison was not vacuous

    @pytest.mark.parametrize("kind", POLICIES)
    def test_a_broken_protocol_fails_identically(self, monkeypatch, kind):
        monkeypatch.setitem(PROTOCOLS, "stache", DroppedAck)
        errors = 0
        for seed in range(4):
            ref = _assert_twins(generate_workload(seed), "stache", None,
                                lambda: POLICIES[kind](seed))
            errors += ref["error"] is not None
        assert errors  # the deadlock was reached, on both, with one message
