"""Degradation cooldown must survive LRU eviction (no eviction amnesty).

A chronically mispredicting schedule sits out ``cooldown`` instances.  If
capacity pressure evicts it mid-cooldown, the relearned schedule must
inherit the remaining cooldown — otherwise eviction would be an amnesty
and a degraded site would resume pre-sending immediately.
"""

from __future__ import annotations

from repro.core.schedule import CommSchedule, ScheduleStore


def cooled_schedule(directive: int, cooldown: int) -> CommSchedule:
    sched = CommSchedule(directive)
    sched.cooldown = cooldown
    return sched


def test_evicted_cooldown_carries_to_relearned_schedule():
    store = ScheduleStore(capacity=1)
    store.insert(cooled_schedule(1, cooldown=5))
    store.fetch(2)  # evicts directive 1 mid-cooldown
    assert 1 not in store
    relearned = store.fetch(1)  # evicts 2, recreates 1
    assert relearned.cooldown == 5


def test_carry_is_consumed_once():
    store = ScheduleStore(capacity=1)
    store.insert(cooled_schedule(1, cooldown=3))
    store.fetch(2)
    assert store.fetch(1).cooldown == 3
    store.fetch(2)  # evict again — but cooldown now lives on the schedule
    store[2].cooldown = 0
    again = store.fetch(1)
    assert again.cooldown == 3  # re-carried from the evicted live schedule


def test_non_degraded_eviction_leaves_no_carry():
    store = ScheduleStore(capacity=1)
    store.insert(cooled_schedule(1, cooldown=0))
    store.fetch(2)
    assert store._evicted_cooldowns == {}
    assert store.fetch(1).cooldown == 0


def test_insert_clears_stale_carry():
    store = ScheduleStore(capacity=1)
    store.insert(cooled_schedule(1, cooldown=9))
    store.fetch(2)
    assert store._evicted_cooldowns == {1: 9}
    # an authoritative insert (checkpoint restore / corpus warm) outranks
    # the carried value
    store.insert(cooled_schedule(1, cooldown=2))
    assert store._evicted_cooldowns == {}
    assert store[1].cooldown == 2


def test_checkpoint_snapshot_preserves_carried_cooldowns():
    from repro.core import make_machine
    from repro.util.config import MachineConfig

    from tests.checkpoint import _restore_predictive, _snapshot_predictive

    cfg = MachineConfig(n_nodes=2)
    src = make_machine(cfg, "predictive")
    store = src.protocol.schedules
    store.capacity = 1
    store.insert(cooled_schedule(1, cooldown=4))
    store.fetch(2)  # evicts directive 1 mid-cooldown
    snap = _snapshot_predictive(src)
    assert snap["evicted_cooldowns"] == [[1, 4]]

    dst = make_machine(cfg, "predictive")
    _restore_predictive(dst, snap)
    assert dst.protocol.schedules._evicted_cooldowns == {1: 4}
    assert dst.protocol.schedules.fetch(1).cooldown == 4
