"""Property tests for the bounded LRU ScheduleStore.

Three invariants must hold under arbitrary fetch sequences:

* **bounded**: the store never holds more than ``capacity`` schedules;
* **LRU order**: ``keys()`` lists directives least- to most-recently
  *fetched*, and the evicted victim is always the stalest one;
* **lossless relearning**: an evicted schedule, re-fetched and re-taught
  the same access history, snapshots identically to the original — eviction
  can cost faults, never correctness.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import CommSchedule, ScheduleStore

directive_ids = st.integers(min_value=0, max_value=30)
fetch_sequences = st.lists(directive_ids, min_size=0, max_size=120)
capacities = st.integers(min_value=1, max_value=8)

# one learning step: (block, requester, kind)
history_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.sampled_from("rw"),
    ),
    min_size=0,
    max_size=24,
)


def _reference_lru(seq: list[int], capacity: int) -> OrderedDict:
    """The obvious model: an OrderedDict trimmed from the stale end."""
    model: OrderedDict = OrderedDict()
    for d in seq:
        if d in model:
            model.move_to_end(d)
        else:
            model[d] = True
            while len(model) > capacity:
                model.popitem(last=False)
    return model


@settings(max_examples=200)
@given(seq=fetch_sequences, capacity=capacities)
def test_size_is_bounded(seq, capacity):
    store = ScheduleStore(capacity)
    for d in seq:
        store.fetch(d)
        assert len(store) <= capacity


@settings(max_examples=200)
@given(seq=fetch_sequences, capacity=capacities)
def test_lru_order_matches_reference_model(seq, capacity):
    store = ScheduleStore(capacity)
    for d in seq:
        store.fetch(d)
    model = _reference_lru(seq, capacity)
    assert [s.directive_id for s in store.values()] == list(model.keys())
    assert store.evictions == len(set(seq)) - len(model) + _re_admissions(
        seq, capacity
    )


def _re_admissions(seq: list[int], capacity: int) -> int:
    """How many fetches found their directive already evicted."""
    model: OrderedDict = OrderedDict()
    re_admitted = 0
    seen: set[int] = set()
    for d in seq:
        if d in model:
            model.move_to_end(d)
        else:
            if d in seen:
                re_admitted += 1
            seen.add(d)
            model[d] = True
            while len(model) > capacity:
                model.popitem(last=False)
    return re_admitted


@settings(max_examples=200)
@given(seq=fetch_sequences, capacity=capacities)
def test_reads_do_not_touch_recency(seq, capacity):
    store = ScheduleStore(capacity)
    for d in seq:
        store.fetch(d)
        if d in store:  # dict-flavoured reads must not reorder
            store[d]
            store.get(d)
    model = _reference_lru(seq, capacity)
    assert [s.directive_id for s in store.values()] == list(model.keys())


@settings(max_examples=150)
@given(history=history_steps, filler=st.integers(min_value=2, max_value=6))
def test_evicted_schedule_relearns_identically(history, filler):
    store = ScheduleStore(capacity=filler)
    first = store.fetch(0)
    first.begin_instance()
    for block, requester, kind in history:
        first.record(block, requester, kind)
    original = first.to_record()

    for d in range(1, filler + 1):  # push directive 0 out
        store.fetch(d)
    assert 0 not in store
    assert store.evictions >= 1

    relearned = store.fetch(0)
    assert relearned is not first  # a genuinely fresh schedule
    relearned.begin_instance()
    for block, requester, kind in history:
        relearned.record(block, requester, kind)
    assert relearned.to_record() == original


@settings(max_examples=100)
@given(seq=fetch_sequences)
def test_resident_schedules_keep_identity(seq):
    # while a directive stays resident, fetch always returns the same object
    store = ScheduleStore(capacity=64)  # nothing evicts at this size
    objects: dict[int, CommSchedule] = {}
    for d in seq:
        sched = store.fetch(d)
        assert objects.setdefault(d, sched) is sched
