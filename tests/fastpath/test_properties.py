"""Property tests: packed representations vs their reference twins.

Hypothesis drives random operation sequences through the packed structure
and the reference structure side by side; every observable output must
match.  The calendar-queue engine gets the same treatment in
``test_queue_properties.py``.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath.packed import NodeSet
from repro.tempest.tags import AccessTag, TagTable

from tests.oracle import DictTagTable

# --------------------------------------------------------------------------- #
# NodeSet vs set
# --------------------------------------------------------------------------- #

_NODE = st.integers(min_value=0, max_value=40)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("add"), _NODE),
        st.tuples(st.just("discard"), _NODE),
        st.tuples(st.just("update"), st.lists(_NODE, max_size=5)),
        st.tuples(st.just("intersection_update"), st.lists(_NODE, max_size=5)),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=25,
))
def test_nodeset_matches_set(ops):
    ref: set = set()
    packed = NodeSet()
    for op, arg in ops:
        if op == "clear":
            ref.clear()
            packed.clear()
        elif op == "intersection_update":
            ref.intersection_update(arg)
            packed.intersection_update(arg)
        elif op == "update":
            ref.update(arg)
            packed.update(arg)
        else:
            getattr(ref, op)(arg)
            getattr(packed, op)(arg)
        assert list(packed) == sorted(ref)  # always ascending
        assert len(packed) == len(ref)
        assert bool(packed) == bool(ref)


@settings(max_examples=60, deadline=None)
@given(a=st.lists(_NODE, max_size=8), b=st.lists(_NODE, max_size=8))
def test_nodeset_operator_algebra(a, b):
    ra, rb = set(a), set(b)
    pa, pb = NodeSet(a), NodeSet(b)
    # every operand mix — NodeSet with NodeSet (the native int-mask forms),
    # with a plain set, and reflected (the protocols do all three) — has
    # the builtin's value, is a NodeSet, and iterates ascending
    for op in (operator.or_, operator.and_, operator.sub):
        want = sorted(op(ra, rb))
        for got in (op(pa, pb), op(pa, rb), op(ra, pb)):
            assert type(got) is NodeSet
            assert list(got) == want
    for other in (pb, rb):
        assert (pa <= other) == (ra <= rb)
        assert pa.isdisjoint(other) == ra.isdisjoint(rb)
    assert pa - pb is not pa and list(pa) == sorted(ra)  # operands untouched
    assert (pa == pb) == (ra == rb)
    assert pa.copy() == pa and pa.copy() is not pa
    assert all(x in pa for x in ra)


def test_nodeset_algebra_keeps_set_semantics_off_the_mask_path():
    """Operands the int-mask forms cannot represent exactly fall back to the
    ``collections.abc.Set`` mixin, element by element, like builtin sets."""
    ns = NodeSet([1, 2])
    assert list(ns - {1.0}) == list(ns - {True}) == [2]   # equal, not int
    assert list(ns - {-1, 1}) == list(ns - [1]) == [2]   # negatives, lists
    assert list(ns & {True, 7}) == [1] and list(ns & (2, 9)) == [2]
    assert ns <= {1.0, 2, 3} and not ns <= {1, -2}
    assert ns.isdisjoint({-1, 3}) and not ns.isdisjoint([2])
    assert list(ns | {5}) == [1, 2, 5]
    with pytest.raises(ValueError):
        ns | {-1}  # no NodeSet can hold it


# --------------------------------------------------------------------------- #
# TagTable (byte array) vs DictTagTable (the reference, tests/oracle.py)
# --------------------------------------------------------------------------- #

_BLOCK = st.integers(min_value=0, max_value=120)
_TAG = st.sampled_from(list(AccessTag))


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("set"), _BLOCK, _TAG),
        st.tuples(st.just("get"), _BLOCK, st.none()),
        st.tuples(st.just("permits"), _BLOCK, st.sampled_from(["r", "w"])),
        st.tuples(st.just("downgrade"), _BLOCK, st.none()),
        st.tuples(st.just("invalidate"), _BLOCK, st.none()),
        st.tuples(st.just("clear"), st.none(), st.none()),
        st.tuples(st.just("reserve"), _BLOCK, st.none()),
    ),
    max_size=40,
))
def test_tag_table_matches_reference(ops):
    ref, packed = DictTagTable(node=0), TagTable(node=0)
    for op, a, b in ops:
        args = [x for x in (a, b) if x is not None]
        ref_out = getattr(ref, op)(*args)
        packed_out = getattr(packed, op)(*args)
        assert ref_out == packed_out, (op, args)
        assert len(packed) == len(ref)
    assert list(packed.items()) == sorted(ref.items())
    for tag in AccessTag:
        if tag is AccessTag.INVALID:
            continue
        assert packed.blocks_with_tag(tag) == sorted(ref.blocks_with_tag(tag))


def test_tag_table_clear_preserves_storage_identity():
    packed = TagTable(node=1)
    packed.set(7, AccessTag.READ_WRITE)
    data = packed._data
    packed.clear()
    assert packed._data is data  # crash recovery relies on this
    assert packed.get(7) is AccessTag.INVALID and len(packed) == 0
