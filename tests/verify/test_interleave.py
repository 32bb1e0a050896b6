"""Tests for tie-break policies, the engine's drain under a policy, and DFS enumeration."""

import pytest

from repro.sim.engine import CalendarEngine
from repro.verify import (
    FifoPolicy,
    ReplayPolicy,
    SeededRandomPolicy,
    explore_dfs,
    generate_workload,
    run_workload,
)

from tests.oracle import Call

# a policy chooses by the frontier's width alone
F2 = 2
F3 = 3


class TestPolicies:
    def test_fifo_always_picks_first(self):
        p = FifoPolicy()
        assert [p.pick(F2), p.pick(F3), p.pick(F2)] == [0, 0, 0]
        assert p.choices == [0, 0, 0]

    def test_singleton_frontier_is_not_a_choice_point(self):
        """The engine asks the policy only where two entries tie: one
        entry alone at each of two times records nothing."""
        p = SeededRandomPolicy(0)
        engine = CalendarEngine(policy=p)
        for t in (1.0, 2.0, 3.0, 3.0):
            engine.push_step(t, Call(lambda: None))
        assert engine.run() == 4
        assert p.frontiers == [2]
        assert len(p.choices) == 1

    def test_seeded_policy_is_reproducible(self):
        a, b = SeededRandomPolicy(42), SeededRandomPolicy(42)
        for f in (F2, F3, F3, F2, F3):
            assert a.pick(f) == b.pick(f)
        assert a.choices == b.choices

    def test_seeded_policies_differ_across_seeds(self):
        picks = {
            tuple(SeededRandomPolicy(s).pick(F3) for _ in range(8))
            for s in range(6)
        }
        assert len(picks) > 1

    def test_replay_follows_prefix_then_fifo(self):
        p = ReplayPolicy([1, 2])
        assert [p.pick(F2), p.pick(F3), p.pick(F3)] == [1, 2, 0]

    def test_replay_clamps_to_frontier(self):
        p = ReplayPolicy([5])
        assert p.pick(F2) == 1  # clamped to len - 1

    def test_choices_record_frontier_sizes(self):
        p = ReplayPolicy([1, 1])
        p.pick(F2)
        p.pick(F3)
        assert p.frontiers == [2, 3]


class TestExplorerEngine:
    def test_fifo_policy_matches_base_engine(self):
        """With FifoPolicy the drain dispatches as with no policy."""
        order_base, order_exp = [], []
        for engine, order in [(CalendarEngine(), order_base),
                              (CalendarEngine(policy=FifoPolicy()), order_exp)]:
            for label in ("a", "b", "c"):
                engine.push_step(10.0, Call(lambda l=label: order.append(l)))
            engine.push_step(5.0, Call(lambda: order.append("first")))
            engine.run()
        assert order_exp == order_base == ["first", "a", "b", "c"]

    def test_policy_reorders_same_time_events(self):
        order = []
        engine = CalendarEngine(policy=ReplayPolicy([2, 1]))
        for label in ("a", "b", "c"):
            engine.push_step(10.0, Call(lambda l=label: order.append(l)))
        engine.run()
        assert order == ["c", "b", "a"]

    def test_never_reorders_across_timestamps(self):
        order = []
        engine = CalendarEngine(policy=SeededRandomPolicy(7))
        for i, t in enumerate((3.0, 1.0, 2.0)):
            engine.push_step(t, Call(lambda i=i: order.append(i)))
        engine.run()
        assert order == [1, 2, 0]

    def test_cancelled_events_never_enter_the_frontier(self):
        order = []
        engine = CalendarEngine(policy=SeededRandomPolicy(3))
        engine.push_step(10.0, Call(lambda: order.append("keep")))
        dead = engine.push_step(10.0, Call(lambda: order.append("dead")))
        engine.cancel(10.0, dead)
        engine.run()
        assert order == ["keep"]

    def test_default_max_events_bounds_run(self):
        from repro.util import SimulationError

        engine = CalendarEngine(default_max_events=10, policy=FifoPolicy())

        def reschedule():
            engine.push_step(engine.now + 1.0, Call(reschedule))

        engine.push_step(0.0, Call(reschedule))
        with pytest.raises(SimulationError):
            engine.run()


class TestWorkloadExploration:
    def test_seeded_run_hits_real_choice_points(self):
        """The generated workloads actually produce same-time frontiers —
        without them the whole subsystem would be exploring nothing."""
        wl = generate_workload(2)
        policy = SeededRandomPolicy(9)
        run_workload(wl, "stache", policy)
        assert len(policy.choices) > 0
        assert max(policy.frontiers) >= 2

    def test_same_seed_same_interleaving(self):
        wl = generate_workload(4)
        records = []
        for _ in range(2):
            policy = SeededRandomPolicy(17)
            obs = run_workload(wl, "stache", policy)
            records.append((policy.choices[:], obs.stats.wall_time))
        assert records[0] == records[1]

    def test_explore_dfs_enumerates_distinct_schedules(self):
        wl = generate_workload(2)
        schedules = [
            choices
            for choices, _ in explore_dfs(
                lambda p: run_workload(wl, "stache", p),
                max_runs=10, max_depth=4,
            )
        ]
        assert 1 < len(schedules) <= 10
        assert len({tuple(s[:4]) for s in schedules}) == len(schedules)

    def test_explore_dfs_first_run_is_fifo(self):
        wl = generate_workload(2)
        gen = explore_dfs(lambda p: run_workload(wl, "stache", p), max_runs=1)
        choices, obs = next(gen)
        assert all(c == 0 for c in choices)
        assert obs.stats is not None

    def test_dfs_policy_records_beyond_prefix(self):
        p = ReplayPolicy([1])
        p.pick(F3)
        p.pick(F3)
        assert p.choices == [1, 0]
        assert p.frontiers == [3, 3]
