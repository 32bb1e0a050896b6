"""The timing path is chosen from the engine, in one place, never by a flag.

``make_machine`` builds the compiled calendar-queue path unless it is
handed an engine that needs the reference processors; ``run_workload``
hands it one exactly when the tie-break policy is not plain FIFO.  A mixed
machine (reference processors on a calendar queue, or compiled processors
on a heap) cannot be built through the factory.
"""

from __future__ import annotations

import pytest

from repro.core.factory import PROTOCOLS, make_machine
from repro.fastpath import FastEngine, FastReplayProcessor, PackedTagTable
from repro.sim.engine import Engine
from repro.tempest.machine import ReplayProcessor
from repro.tempest.tags import TagTable
from repro.util.config import MachineConfig
from repro.verify.interleave import (
    ExplorerEngine,
    FifoPolicy,
    ReplayPolicy,
    SeededRandomPolicy,
)
from repro.verify.monitor import CoherenceViolation
from repro.verify.oracle import run_workload
from repro.verify.workload import generate_workload

from tests.helpers import run_one_phase
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


def _processor_types(machine) -> set[type]:
    """The processor classes that replayed the machine's last phase."""
    return {type(p) for p in machine._procs}


class TestMakeMachineSelectsByEngine:
    @pytest.mark.parametrize("engine", [None, FastEngine()],
                             ids=["no-engine", "fast-engine"])
    def test_calendar_engine_gets_the_compiled_path(self, engine):
        m = make_machine(CFG, "stache", engine=engine)
        assert isinstance(m.engine, FastEngine)
        assert all(type(n.tags) is PackedTagTable for n in m.nodes)
        run_one_phase(m, {0: [("c", 1.0)]})
        assert _processor_types(m) == {FastReplayProcessor}

    @pytest.mark.parametrize("engine_factory", [
        Engine, lambda: ExplorerEngine(SeededRandomPolicy(1)),
    ], ids=["heap", "explorer"])
    def test_any_other_engine_gets_the_reference_path(self, engine_factory):
        engine = engine_factory()
        m = make_machine(CFG, "stache", engine=engine)
        assert m.engine is engine
        assert all(type(n.tags) is TagTable for n in m.nodes)
        run_one_phase(m, {0: [("c", 1.0)]})
        assert _processor_types(m) == {ReplayProcessor}


class TestRunWorkloadFollowsThePolicy:
    @pytest.mark.parametrize("policy", [None, FifoPolicy()],
                             ids=["none", "fifo"])
    def test_fifo_runs_on_the_calendar_path(self, built, policy):
        run_workload(generate_workload(0), "stache", policy, max_events=123_456)
        (machine,) = built
        assert type(machine.engine) is FastEngine
        assert machine.engine.default_max_events == 123_456
        assert _processor_types(machine) == {FastReplayProcessor}

    @pytest.mark.parametrize("policy_factory", [
        lambda: SeededRandomPolicy(7), lambda: ReplayPolicy([1, 0]),
    ], ids=["seeded-random", "replay"])
    def test_any_other_policy_runs_on_the_explorer(self, built, policy_factory):
        policy = policy_factory()
        run_workload(generate_workload(0), "stache", policy, max_events=123_456)
        (machine,) = built
        assert type(machine.engine) is ExplorerEngine
        assert machine.engine.policy is policy
        assert machine.engine.default_max_events == 123_456
        assert _processor_types(machine) == {ReplayProcessor}

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
