"""Tests for the fuzz campaign driver, shrinking, and — the point of the
whole subsystem — that deliberately broken protocols are caught with a
minimized, seed-replayable counterexample."""

import pytest

from repro.core.factory import PROTOCOLS
from repro.protocols.stache import StacheProtocol
from repro.tempest.tags import AccessTag
from repro.verify import (
    CoherenceViolation,
    ReplayPolicy,
    dfs_explore_seed,
    fuzz,
    generate_workload,
    replay_seed,
    run_workload,
    shrink_schedule,
    verify_trace_file,
)

# -- deliberately broken protocols -------------------------------------------------
#
# Both carry name="stache" so the invariant monitor applies the strict
# write-invalidate profile, exactly as it would to the protocol they sabotage.


class DroppedAck(StacheProtocol):
    """Swallows the first invalidation instead of acknowledging it.

    The victim's copy does get invalidated, but home waits forever for the
    missing ACK — the writer's fault never completes and the phase barrier
    deadlocks.  This is the classic lost-message protocol bug.
    """

    def __init__(self, machine):
        super().__init__(machine)
        self._dropped = False

    def cache_invalidate(self, msg, t):
        tags = self.machine.node(msg.dst).tags
        if not self._dropped and tags.get(msg.block) is not AccessTag.INVALID:
            self._dropped = True
            tags.invalidate(msg.block)
            return  # never sends the ACK
        super().cache_invalidate(msg, t)


class SkippedInvalidation(StacheProtocol):
    """Grants a writable copy without invalidating one of the sharers.

    The home quietly forgets one reader and proceeds as if it had been
    invalidated — leaving a stale read-only copy coexisting with the new
    writer.  The tag-level invariants (single-writer / lost-invalidation)
    must catch it at the next barrier.
    """

    def __init__(self, machine):
        super().__init__(machine)
        self._skipped = False

    def write_invalidates_readers(self, entry, msg, t):
        others = entry.sharers - {msg.src}
        if others and not self._skipped:
            self._skipped = True
            entry.sharers.discard(max(others))  # stale copy left behind
        super().write_invalidates_readers(entry, msg, t)


@pytest.fixture
def broken(monkeypatch):
    """Run the fuzzer against a sabotaged 'stache' implementation."""

    def install(cls):
        monkeypatch.setitem(PROTOCOLS, "stache", cls)

    return install


# -- clean campaigns ---------------------------------------------------------------


class TestCleanFuzz:
    def test_small_campaign_is_clean(self):
        report = fuzz(seeds=8)
        assert report.ok, report.summary()
        assert report.seeds == 8
        # every seed runs stache+predictive; even seeds add write-update
        assert report.runs == 8 * 2 + 4

    def test_summary_renders(self):
        report = fuzz(seeds=2)
        text = report.summary()
        assert "2 seed(s)" in text
        assert "no coherence violations" in text

    def test_summary_of_no_runs_says_nothing_ran(self):
        report = fuzz(seeds=0)
        assert report.runs == 0
        text = report.summary()
        assert "nothing ran" in text
        assert "no coherence violations" not in text

    def test_replay_seed_reruns_one_seed(self):
        report = replay_seed(5)
        assert report.ok
        assert report.seeds == 1

    def test_dfs_explores_clean_seed(self):
        executed, violations = dfs_explore_seed(2, "stache", max_runs=6)
        assert executed > 1
        assert violations == []

    def test_dfs_skips_incompatible_dialect(self):
        # odd seeds are remote-write workloads; write-update cannot run them
        executed, violations = dfs_explore_seed(1, "write-update")
        assert (executed, violations) == (0, [])


# -- broken protocols are caught ---------------------------------------------------


class TestBrokenProtocolsCaught:
    def test_dropped_ack_caught_with_minimized_counterexample(self, broken):
        """Acceptance: a dropped invalidation ack yields a violation whose
        schedule is shrunk to a minimal prefix and replays from its seed."""
        broken(DroppedAck)
        report = fuzz(seeds=6, protocols=["stache"], shrink=True)
        assert not report.ok
        rec = report.violations[0]
        assert rec.violation.invariant in ("deadlock", "quiescence")
        assert rec.minimized_schedule is not None
        assert rec.minimized_schedule == []  # FIFO alone reproduces the bug

        # seed-replayable: regenerate the workload from the recorded seed and
        # rerun the minimized schedule — the violation must reproduce
        workload = generate_workload(rec.seed)
        with pytest.raises(CoherenceViolation) as ei:
            run_workload(workload, "stache",
                         ReplayPolicy(rec.minimized_schedule))
        assert ei.value.invariant == rec.violation.invariant
        assert ei.value.seed == rec.seed

    def test_dropped_ack_report_names_the_replay_command(self, broken):
        broken(DroppedAck)
        report = fuzz(seeds=6, protocols=["stache"])
        text = report.violations[0].report()
        assert f"--replay {report.violations[0].seed}" in text
        assert "minimized" in text

    def test_skipped_invalidation_trips_tag_invariants(self, broken):
        """A stale read-only copy coexisting with a writer must be caught by
        the tag-table checks, not just the deadlock detector."""
        broken(SkippedInvalidation)
        report = fuzz(seeds=10, protocols=["stache"], shrink=False)
        assert not report.ok
        invariants = {r.violation.invariant for r in report.violations}
        assert invariants & {"single-writer", "lost-invalidation",
                             "directory-agreement"}

    def test_dfs_also_finds_the_dropped_ack(self, broken):
        broken(DroppedAck)
        found = []
        for seed in range(0, 8):
            _, violations = dfs_explore_seed(seed, "stache", max_runs=8)
            found.extend(violations)
            if found:
                break
        assert found
        assert found[0].minimized_schedule is not None

    def test_clean_after_fixture_restores_real_protocol(self):
        """The monkeypatch must not leak: the shipped stache is clean."""
        report = fuzz(seeds=2, protocols=["stache"])
        assert report.ok, report.summary()


# -- shrinking mechanics -----------------------------------------------------------


class TestShrinkSchedule:
    def test_shrinks_to_failing_prefix(self):
        # failure is triggered by any schedule whose first 3 entries are kept
        minimal, runs = shrink_schedule(lambda p: len(p) >= 3,
                                        [1, 2, 1, 0, 2, 1, 0, 0])
        assert minimal == [1, 2, 1]
        assert runs >= 2

    def test_empty_schedule_failure_short_circuits(self):
        minimal, runs = shrink_schedule(lambda p: True, [1, 2, 3])
        assert minimal == []
        assert runs == 1

    def test_trailing_fifo_defaults_trimmed(self):
        # fails whenever the prefix contains a 1 anywhere
        minimal, _ = shrink_schedule(lambda p: 1 in p, [0, 1, 0, 0, 0])
        assert minimal == [0, 1]

    def test_invariant_full_schedule_must_fail(self):
        minimal, _ = shrink_schedule(lambda p: p == [1, 1], [1, 1])
        assert minimal == [1, 1]


# -- bundled traces ----------------------------------------------------------------


class TestBundledTraces:
    def test_bundled_traces_verify_clean(self):
        import glob

        paths = sorted(glob.glob("examples/traces/*.trace"))
        assert len(paths) == 3
        for path in paths:
            report = verify_trace_file(path)
            assert report.ok, f"{path}:\n{report.summary()}"

    def test_bundled_traces_match_their_generators(self, tmp_path):
        """The checked-in traces are exactly what the generator emits, so
        --regen-traces is idempotent."""
        from pathlib import Path

        from repro.tempest.tracefile import save_session
        from repro.verify import make_bundled_sessions

        for name, wl in make_bundled_sessions().items():
            bundled = Path("examples/traces") / name
            fresh = tmp_path / f"regen-{name}"
            save_session(wl.events, fresh, regions=wl.regions)
            assert fresh.read_bytes() == bundled.read_bytes(), name
