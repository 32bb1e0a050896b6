"""Checkpoint-sliced preemption: pause a job at a quiescent boundary,
resume it anywhere, and get bit-identical observables.

Covers both layers: :func:`repro.farm.preempt.sliced_run` directly (the
worker-side mechanism) and farmed runs driven through a
:class:`~repro.farm.FarmController` (the coordinator-side valve), on the
synchronous inline transport (where the preemption point is deterministic)
and on local worker processes.
"""

import json

import pytest

from repro.corpus.signature import canonical
from repro.faults.campaign import run_campaign
from repro.faults.plan import BUNDLED_PLANS
from repro.farm import FarmController, FarmJob, InlineTransport, run_farm
from repro.farm.transport import _mp_context
from repro.farm.preempt import (
    deserialize_observables,
    serialize_observables,
    sliced_run,
)
from repro.obs.events import EventKind, EventTrace
from repro.verify.oracle import run_workload
from repro.verify.workload import generate_workload


@pytest.fixture(scope="module")
def chaos_reference():
    workload = generate_workload(0)
    plan = BUNDLED_PLANS["chaos"].with_(seed=7)
    return workload, plan, run_workload(workload, "stache", fault_plan=plan)


def same_observables(a, b) -> bool:
    return (a.readers == b.readers and a.writers == b.writers
            and a.image == b.image and a.stats.wall_time == b.stats.wall_time
            and len(a.fault_events) == len(b.fault_events))


def test_uninterrupted_sliced_run_matches_run_workload(chaos_reference):
    workload, plan, ref = chaos_reference
    status, obs = sliced_run(workload, "stache", fault_plan=plan)
    assert status == "done"
    assert same_observables(obs, ref)


def test_preempt_then_resume_is_bit_identical(chaos_reference):
    workload, plan, ref = chaos_reference
    calls = [0]

    def preempt_after_first_slice():
        calls[0] += 1
        return calls[0] > 1

    status, envelope = sliced_run(workload, "stache", fault_plan=plan,
                                  should_preempt=preempt_after_first_slice)
    assert status == "preempted"
    # the envelope is transport-safe
    envelope = json.loads(json.dumps(envelope))
    status, obs = sliced_run(workload, "stache", fault_plan=plan,
                             resume=envelope)
    assert status == "done"
    assert same_observables(obs, ref)


def test_envelope_survives_the_farm_wire_format(chaos_reference):
    """Checkpoint migration depends on envelopes being JSON-portable: an
    envelope through canonical JSON (the repo's one checksummed encoding)
    must still resume bit-identically, so any transport may carry it."""
    workload, plan, ref = chaos_reference
    calls = [0]

    def preempt_after_first_slice():
        calls[0] += 1
        return calls[0] > 1

    status, envelope = sliced_run(workload, "stache", fault_plan=plan,
                                  should_preempt=preempt_after_first_slice)
    assert status == "preempted"
    wire = json.loads(canonical({"payload": envelope}))["payload"]
    status, obs = sliced_run(workload, "stache", fault_plan=plan,
                             resume=wire)
    assert status == "done"
    assert same_observables(obs, ref)


def test_observables_serialization_round_trips(chaos_reference):
    _, _, ref = chaos_reference
    wire = json.loads(json.dumps(serialize_observables(ref)))
    back = deserialize_observables(wire)
    assert back.readers == ref.readers
    assert back.writers == ref.writers
    assert back.image == ref.image


@pytest.mark.skipif(_mp_context().get_start_method() != "fork",
                    reason="preempt flags are read by forked workers")
def test_controller_preempts_farmed_campaign_with_identical_report():
    kwargs = dict(seeds=1, variants=1, protocols=("stache",),
                  traces_dir=None, shrink=False)
    seq = run_campaign(**kwargs)

    controller = FarmController()
    tracer = EventTrace()
    # ask to preempt every cell job; each is requeued once with a resume
    # envelope and finished by whichever local worker picks it up
    for index in range(64):
        controller.preempt(index)
    par = run_campaign(jobs=2, farm_controller=controller, tracer=tracer,
                       **kwargs)

    assert json.dumps(par.to_dict(), sort_keys=True) \
        == json.dumps(seq.to_dict(), sort_keys=True)
    assert tracer.counts().get(EventKind.FARM_PREEMPT, 0) >= 1


def test_farm_result_counts_preemptions():
    controller = FarmController()
    controller.preempt(0)
    spec = {"workload": {"type": "seed", "seed": 0, "name": "seed0"},
            "w_index": 0, "plan_name": "chaos",
            "plan": BUNDLED_PLANS["chaos"].to_dict(), "variant": 0,
            "protocols": ["stache"], "shrink": False}
    job = FarmJob(index=0, kind="fault-cell", params=spec, preemptible=True)
    farm = run_farm([job], transport=InlineTransport(),
                    controller=controller)
    assert farm.preemptions == 1
    assert 0 in farm.results
