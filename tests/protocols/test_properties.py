"""Property-based protocol tests: random phase workloads must preserve the
coherence invariants under every protocol.

Hypothesis generates arbitrary barrier-separated workloads (who reads/writes
which block in which phase, under directives or not) and we assert, after
every phase:

* **single-writer**: at most one READ_WRITE tag per block, and it excludes
  READ_ONLY tags elsewhere;
* **directory-tag agreement**: the home directory's stable state matches
  the tags actually installed;
* **liveness**: no run deadlocks (run_phase raises on dropped resumes);
* **conservation**: per-node time categories sum to wall time.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import make_machine
from repro.protocols.directory import DirState
from repro.tempest.machine import PhaseTrace
from repro.tempest.tags import AccessTag
from repro.util import MachineConfig

from tests.oracle import check_entry

N_NODES = 4
N_BLOCKS = 6

# one phase: per node, a few (kind, block) accesses
phase_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_NODES - 1),   # node
        st.sampled_from("rw"),                              # kind
        st.integers(min_value=0, max_value=N_BLOCKS - 1),   # block offset
    ),
    min_size=0,
    max_size=8,
)
workload_strategy = st.lists(phase_strategy, min_size=1, max_size=6)


def build_machine(protocol: str):
    m = make_machine(MachineConfig(n_nodes=N_NODES, page_size=512), protocol)
    region = m.addr_space.allocate("data", 512, home_policy=lambda p: 0)
    first = m.addr_space.block_of(region.base)
    for b in range(first, first + N_BLOCKS):
        m.nodes[0].tags.set(b, AccessTag.READ_WRITE)
    return m, first


def run_workload(m, first, workload, directives=False):
    for i, phase in enumerate(workload):
        ops = [[] for _ in range(N_NODES)]
        for node, kind, off in phase:
            ops[node].append((kind, first + off))
        if directives:
            m.begin_group(1 + i % 2)
        m.run_phase(PhaseTrace(f"p{i}", ops))
        if directives:
            m.end_group()


def check_invariants(m, first):
    for off in range(N_BLOCKS):
        block = first + off
        tags = [m.nodes[n].tags.get(block) for n in range(N_NODES)]
        writers = sum(t is AccessTag.READ_WRITE for t in tags)
        readers = sum(t is AccessTag.READ_ONLY for t in tags)
        assert writers <= 1, f"block {block}: multiple writers"
        if writers:
            assert readers == 0, f"block {block}: writer plus readers"
        entry = m.protocol.directory.entry(block)
        check_entry(entry)
        if entry.state == DirState.EXCLUSIVE:
            assert tags[entry.owner] is AccessTag.READ_WRITE
        elif entry.state == DirState.SHARED:
            for s in entry.sharers:
                assert tags[s] is AccessTag.READ_ONLY, (
                    f"block {block}: sharer {s} lost its copy"
                )


class TestStacheProperties:
    @given(workload_strategy)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_hold(self, workload):
        m, first = build_machine("stache")
        run_workload(m, first, workload)
        check_invariants(m, first)
        m.finish().check_conservation()


class TestPredictiveProperties:
    @given(workload_strategy)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_hold_with_directives(self, workload):
        m, first = build_machine("predictive")
        run_workload(m, first, workload, directives=True)
        check_invariants(m, first)
        m.finish().check_conservation()

    @staticmethod
    def _drop_conflicts(workload):
        """Keep each phase conflict-free: one writer per block, and a block
        is either read or written within a phase (the paper's 'independent
        parallel threads' assumption — conflict blocks are explicitly not
        optimized and need not converge)."""
        cleaned = []
        for phase in workload:
            written: set[int] = set()
            touched: set[int] = set()
            out = []
            for node, kind, off in phase:
                if kind == "w":
                    if off in touched:
                        continue
                    written.add(off)
                else:
                    if off in written:
                        continue
                out.append((node, kind, off))
                touched.add(off)
            cleaned.append(out)
        return cleaned

    @given(workload_strategy)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_repeating_workload_converges(self, workload):
        """After one warm-up replay, repeating the same conflict-free
        workload must not increase the per-replay miss count (schedules
        only help).

        The cold replay is excluded from the comparison: it starts from the
        allocation state, where the home owns every block, so a home access
        that hits for free there can legitimately miss on the next replay
        once a remote writer has taken the block — and schedules learn only
        from faults (test_hits_not_recorded), so nothing can anticipate an
        access that has never faulted.  One warm-up replay surfaces every
        such access; from there on, convergence must be monotone.

        Waste-driven degradation is pinned off for this property: on
        workloads where aliased directives legitimately pre-send blocks the
        next instance invalidates, a degrade/re-learn cycle makes the miss
        series oscillate by design (covered by tests/faults/
        test_degradation.py), which is not the monotone-learning property
        under test here.
        """
        workload = self._drop_conflicts(workload)
        m, first = build_machine("predictive")
        m.protocol.degrade_patience = 10 ** 9
        run_workload(m, first, workload, directives=True)  # cold start
        warmup = m.stats.misses
        run_workload(m, first, workload, directives=True)
        first_misses = m.stats.misses - warmup
        run_workload(m, first, workload, directives=True)
        second = m.stats.misses - warmup - first_misses
        run_workload(m, first, workload, directives=True)
        third = m.stats.misses - warmup - first_misses - second
        assert third <= second <= first_misses

    @given(workload_strategy)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_values_of_hits_plus_misses(self, workload):
        """Predictive and stache replay identical traces: the access counts
        must agree even though the hit/miss split differs."""
        totals = []
        for protocol in ("stache", "predictive"):
            m, first = build_machine(protocol)
            run_workload(m, first, workload, directives=True)
            totals.append(m.stats.local_hits + m.stats.misses)
        assert totals[0] == totals[1]


class TestWriteUpdateProperties:
    # write-update requires producer-owned writes: restrict writes to node 0
    # (the home of every block), reads to anyone.
    wu_phase = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=N_NODES - 1),
            st.sampled_from("rw"),
            st.integers(min_value=0, max_value=N_BLOCKS - 1),
        ).map(lambda t: (0, "w", t[2]) if t[1] == "w" else t),
        min_size=0,
        max_size=8,
    )

    @given(st.lists(wu_phase, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_consumers_never_invalidate(self, workload):
        """Under write-update, a registered consumer keeps a readable copy
        forever (updates refresh, never invalidate)."""
        m, first = build_machine("write-update")
        had_copy: set[tuple[int, int]] = set()
        for i, phase in enumerate(workload):
            ops = [[] for _ in range(N_NODES)]
            for node, kind, off in phase:
                ops[node].append((kind, first + off))
            m.run_phase(PhaseTrace(f"p{i}", ops))
            for n in range(1, N_NODES):
                for off in range(N_BLOCKS):
                    if m.nodes[n].tags.permits(first + off, "r"):
                        had_copy.add((n, first + off))
            for n, b in had_copy:
                assert m.nodes[n].tags.permits(b, "r")
        m.finish().check_conservation()
