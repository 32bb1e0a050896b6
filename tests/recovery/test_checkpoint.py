"""Tests for deterministic checkpoint/restart.

The snapshot is the determinism oracle: two machines are equivalent iff
their snapshots are equal, and interrupting a session at a quiescent
point, restoring from the checkpoint, and replaying the rest must be
bit-identical to the uninterrupted run — under every protocol, with or
without injected faults.
"""

import hashlib
import json

import pytest

from repro.apps import water
from repro.core import make_machine
from repro.faults import CRASH_PLANS, FaultPlan
from repro.tempest.tracefile import replay_session
from repro.util import MachineConfig, SimulationError
from repro.verify.interleave import FifoPolicy
from repro.verify.workload import generate_workload

from tests.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    restore_into,
    restore_machine,
    save_checkpoint,
    snapshot_machine,
)
from tests.helpers import oracle_machine
from tests.oracle import Call

CHAOS = FaultPlan(name="chaos-lite", drop_rate=0.02, dup_rate=0.03,
                  delay_rate=0.05, delay_cycles=200.0, seed=11)
CRASH = CRASH_PLANS["crash"].with_(seed=5)


def _run_full(workload, protocol, plan=None):
    """Uninterrupted run; returns the end-of-run snapshot."""
    machine = make_machine(workload.config, protocol)
    if plan is not None:
        plan.install(machine)
    replay_session(workload.session, machine, finish=False)
    return snapshot_machine(machine)


def _policy_machine(config, protocol):
    """Production machine with a FIFO policy installed (same order)."""
    return make_machine(config, protocol, policy=FifoPolicy())


def _run_interrupted(workload, protocol, plan=None, cut=None,
                     builders=(make_machine, None)):
    """Run to ``cut`` events, checkpoint, restore, replay the rest.

    ``builders`` is the (before, after) pair of ``build(config, protocol)``
    callables — i.e. which simulator takes the snapshot and which one
    resumes it (``None``: whatever ``restore_machine`` builds).
    """
    events, regions = workload.session
    cut = cut if cut is not None else len(events) // 2
    machine = builders[0](workload.config, protocol)
    if plan is not None:
        plan.install(machine)
    # a cut can land mid-recovery (e.g. a restart still pending); step
    # forward to the next quiescent event boundary before checkpointing
    replay_session((events[:cut], regions), machine, finish=False)
    while True:
        try:
            snap = snapshot_machine(machine)
            break
        except SimulationError:
            if cut >= len(events):
                raise
            replay_session(([events[cut]], regions), machine,
                           regions=[], finish=False)
            cut += 1
    if builders[1] is None:
        resumed = restore_machine(snap)
    else:
        resumed = restore_into(builders[1](workload.config, protocol), snap)
    replay_session((events[cut:], regions), resumed,
                   regions=[], finish=False)
    return snap, snapshot_machine(resumed)


class TestSnapshotOracle:
    def test_identical_runs_have_equal_snapshots(self):
        w = generate_workload(0)
        assert _run_full(w, "stache") == _run_full(w, "stache")

    def test_snapshot_is_json_canonical(self, tmp_path):
        w = generate_workload(0)
        machine = make_machine(w.config, "predictive")
        CRASH.install(machine)
        replay_session(w.session, machine, finish=False)
        snap = save_checkpoint(machine, tmp_path / "ckpt.json")
        loaded = load_checkpoint(tmp_path / "ckpt.json")
        assert loaded == snap
        # the snapshot survives a round-trip through json itself
        assert json.loads(json.dumps(snap)) == snap

    def test_restore_is_a_fixed_point(self):
        w = generate_workload(0)
        for proto in w.protocols:
            snap = _run_full(w, proto, plan=CRASH)
            assert snapshot_machine(restore_machine(snap)) == snap


class TestInterruptedReplay:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_resume_is_bit_identical_fault_free(self, seed):
        w = generate_workload(seed)
        for proto in w.protocols:
            _, resumed = _run_interrupted(w, proto)
            assert resumed == _run_full(w, proto)

    @pytest.mark.parametrize("plan", [CHAOS, CRASH],
                             ids=["chaos-lite", "crash"])
    def test_resume_is_bit_identical_under_faults(self, plan):
        w = generate_workload(0)
        for proto in w.protocols:
            _, resumed = _run_interrupted(w, proto, plan=plan)
            assert resumed == _run_full(w, proto, plan=plan)

    @pytest.mark.parametrize("before,after", [
        (oracle_machine, None),
        (make_machine, _policy_machine),
        (_policy_machine, make_machine),
    ], ids=["heap-to-calendar", "calendar-to-explorer",
            "explorer-to-calendar"])
    @pytest.mark.parametrize("plan", [None, CHAOS, CRASH],
                             ids=["fault-free", "chaos-lite", "crash"])
    def test_resume_crosses_timing_paths(self, plan, before, after):
        """Checkpoints are representation-independent: a snapshot taken on
        the reference simulator resumes bit-identically in production, and
        one taken with a FIFO policy installed resumes bit-identically
        without one, and back."""
        w = generate_workload(0)
        for proto in w.protocols:
            _, resumed = _run_interrupted(w, proto, plan=plan,
                                          builders=(before, after))
            assert resumed == _run_full(w, proto, plan=plan)

    def test_production_snapshot_resumes_on_the_oracle(self):
        """``restore_into`` loads a snapshot onto a machine the caller
        built — here the reference simulator, under a crash plan."""
        w = generate_workload(0)
        for proto in w.protocols:
            _, resumed = _run_interrupted(
                w, proto, plan=CRASH, builders=(make_machine, oracle_machine))
            assert resumed == _run_full(w, proto, plan=CRASH)

    def test_resume_from_disk(self, tmp_path):
        w = generate_workload(0)
        events, regions = w.session
        cut = len(events) // 2
        machine = make_machine(w.config, "predictive")
        replay_session((events[:cut], regions), machine, finish=False)
        save_checkpoint(machine, tmp_path / "mid.json")
        resumed = restore_machine(load_checkpoint(tmp_path / "mid.json"))
        replay_session((events[cut:], regions), resumed,
                       regions=[], finish=False)
        assert snapshot_machine(resumed) == _run_full(w, "predictive")

    def test_every_prefix_resumes_identically(self):
        # exhaustive over one short workload: cut after each event
        w = generate_workload(1)
        events, _ = w.session
        want = {p: _run_full(w, p) for p in w.protocols}
        for proto in w.protocols:
            for cut in range(1, len(events)):
                _, resumed = _run_interrupted(w, proto, cut=cut)
                assert resumed == want[proto], f"cut={cut} proto={proto}"


class TestGuards:
    def test_mid_flight_snapshot_is_refused(self):
        w = generate_workload(0)
        machine = make_machine(w.config, "stache")
        replay_session(w.session, machine, finish=False)
        machine.engine.push_step(machine.engine.now + 10.0, Call(lambda: None))
        with pytest.raises(SimulationError, match="quiescent"):
            snapshot_machine(machine)

    def test_version_mismatch_is_refused(self):
        w = generate_workload(0)
        snap = _run_full(w, "stache")
        assert snap["version"] == CHECKPOINT_VERSION
        bad = dict(snap)
        bad["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(SimulationError, match="version"):
            restore_machine(bad)

    def test_finish_false_leaves_stats_open(self):
        w = generate_workload(0)
        machine = make_machine(w.config, "stache")
        stats = replay_session(w.session, machine, finish=False)
        assert stats is machine.stats
        # the machine is still live: snapshot, then close out normally
        snapshot_machine(machine)
        machine.finish()


class _Stop(Exception):
    pass


class TestPinnedBytes:
    """Checkpoint bytes of a predictive water run, pinned by SHA-256.

    Stopped after the second group (nothing pre-sent yet), after the
    fourth (one pre-send judged and closed), and right after the third
    group's pre-send (copies pending deferred judgment): the schedule
    lifecycle's state must serialise exactly as it always has.
    """

    @pytest.mark.parametrize("method,count,digest", [
        ("end_group", 2,
         "02ffaf04560773e61497ba75b8a07d8d4d855199938ce84ae37485db46275aae"),
        ("end_group", 4,
         "30c29db565c93209505c8536aa5be2f52054e356a73701edec5dc14487457c1a"),
        ("begin_group", 3,
         "857ac72799d0f2d33982e307d4d2e07a95ffd49c6efdcd76a749af09baff73a1"),
    ])
    def test_snapshot_digest(self, method, count, digest):
        machine = make_machine(MachineConfig(n_nodes=4, page_size=512),
                               "predictive")
        real, calls = getattr(machine, method), []

        def stop_after(*args):
            real(*args)
            calls.append(args)
            if len(calls) == count:
                raise _Stop

        setattr(machine, method, stop_after)
        with pytest.raises(_Stop):
            water.build(n=24, iterations=3, work_scale=8.0).run(
                machine, optimized=True)
        snap = json.dumps(snapshot_machine(machine), sort_keys=True)
        assert hashlib.sha256(snap.encode()).hexdigest() == digest
        if method == "begin_group":
            assert machine.protocol.life.pending
            assert machine.protocol.life.presented
