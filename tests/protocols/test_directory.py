"""Tests for directory entries and their invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocols import Directory, DirEntry, DirState
from repro.protocols.writeupdate import UPDATE_SHARED
from repro.tempest.tags import AccessTag, TagTable
from repro.util import ProtocolError

from tests.oracle import check_directory, check_entry


class TestDirEntry:
    def test_starts_idle(self):
        e = DirEntry(block=1, home=0)
        assert e.state == DirState.IDLE
        check_entry(e)

    def test_idle_with_copies_is_invalid(self):
        e = DirEntry(block=1, home=0, sharers={2})
        with pytest.raises(ProtocolError):
            check_entry(e)

    def test_shared_requires_sharers(self):
        e = DirEntry(block=1, home=0, state=DirState.SHARED)
        with pytest.raises(ProtocolError):
            check_entry(e)
        e.sharers.add(1)
        check_entry(e)

    def test_shared_cannot_have_owner(self):
        e = DirEntry(block=1, home=0, state=DirState.SHARED, sharers={1}, owner=2)
        with pytest.raises(ProtocolError):
            check_entry(e)

    def test_home_not_its_own_sharer(self):
        e = DirEntry(block=1, home=0, state=DirState.SHARED, sharers={0})
        with pytest.raises(ProtocolError):
            check_entry(e)

    def test_exclusive_requires_remote_owner(self):
        e = DirEntry(block=1, home=0, state=DirState.EXCLUSIVE, owner=1)
        check_entry(e)
        e.owner = None
        with pytest.raises(ProtocolError):
            check_entry(e)

    def test_exclusive_owner_not_home(self):
        e = DirEntry(block=1, home=0, state=DirState.EXCLUSIVE, owner=0)
        with pytest.raises(ProtocolError):
            check_entry(e)

    def test_busy_requires_in_service(self):
        e = DirEntry(block=1, home=0, state=DirState.BUSY_INV)
        with pytest.raises(ProtocolError):
            check_entry(e)
        e.in_service = 3
        check_entry(e)

    def test_unknown_state_rejected(self):
        e = DirEntry(block=1, home=0, state="BOGUS")
        with pytest.raises(ProtocolError):
            check_entry(e)


class TestDirectory:
    def test_lazy_entry_creation(self):
        d = Directory(home_of=lambda b: b % 4)
        assert len(d) == 0
        e = d.entry(7)
        assert e.home == 3
        assert len(d) == 1
        assert d.entry(7) is e

    def test_check_all(self):
        d = Directory(home_of=lambda b: 0)
        d.entry(1)
        d.entry(2).state = DirState.SHARED  # malformed: no sharers
        with pytest.raises(ProtocolError):
            check_directory(d)

    def test_known_lists_entries(self):
        d = Directory(home_of=lambda b: 0)
        d.entry(1)
        d.entry(5)
        assert sorted(e.block for e in d.known()) == [1, 5]


@st.composite
def stable_entries(draw):
    """A random stable directory entry of a block homed on one of 1-6 nodes."""
    n = draw(st.integers(min_value=1, max_value=6))
    home = draw(st.integers(min_value=0, max_value=n - 1))
    remote = [node for node in range(n) if node != home]
    states = [DirState.IDLE]
    if remote:
        states += [DirState.SHARED, DirState.EXCLUSIVE, UPDATE_SHARED]
    state = draw(st.sampled_from(states))
    entry = DirEntry(block=draw(st.integers(min_value=0, max_value=200)),
                     home=home, state=state)
    if state == DirState.EXCLUSIVE:
        entry.owner = draw(st.sampled_from(remote))
    elif state != DirState.IDLE:
        entry.sharers.update(draw(st.sets(st.sampled_from(remote),
                                          min_size=1)))
    if state != UPDATE_SHARED:
        check_entry(entry)
    return n, entry


def tags_for(n, entry):
    """``entry``'s tags as the protocols install them and the invariant
    monitor checks them: the home holds the writable copy while IDLE or
    UPDATE_SHARED and a read-only one while SHARED; sharers hold read-only
    copies; an EXCLUSIVE owner holds the only copy."""
    tables = [TagTable(node) for node in range(n)]
    home_tag = {DirState.IDLE: AccessTag.READ_WRITE,
                DirState.SHARED: AccessTag.READ_ONLY,
                UPDATE_SHARED: AccessTag.READ_WRITE}.get(entry.state)
    if home_tag is not None:
        tables[entry.home].set(entry.block, home_tag)
    for sharer in entry.sharers:
        tables[sharer].set(entry.block, AccessTag.READ_ONLY)
    if entry.owner is not None:
        tables[entry.owner].set(entry.block, AccessTag.READ_WRITE)
    return tables


class TestPermitsSeam:
    """The pre-send planner's two permission oracles agree: the model asks
    the directory entry, the simulator its tags."""

    @given(stable_entries())
    def test_entry_permits_equal_tags(self, drawn):
        n, entry = drawn
        tables = tags_for(n, entry)
        for node in range(n):
            for kind in "rw":
                assert (entry.permits(node, kind)
                        == tables[node].permits(entry.block, kind)), (
                    node, kind, entry)
