"""Tests for the differential oracle and workload generator."""

import pytest

from repro.tempest.tracefile import load_session, save_session
from repro.verify import (
    ALL_PROTOCOLS,
    INVALIDATE_PROTOCOLS,
    CoherenceViolation,
    Observables,
    differential_check,
    expected_observables,
    generate_workload,
    run_workload,
)


class TestWorkloadGeneration:
    def test_deterministic_per_seed(self):
        a, b = generate_workload(9), generate_workload(9)
        assert a.config == b.config
        assert a.regions == b.regions
        assert [(e[0],) + ((e[1].ops,) if e[0] == "phase" else e[1:])
                for e in a.events] == \
               [(e[0],) + ((e[1].ops,) if e[0] == "phase" else e[1:])
                for e in b.events]

    def test_dialects_split_by_parity(self):
        assert generate_workload(6).protocols == ALL_PROTOCOLS
        assert generate_workload(7).protocols == INVALIDATE_PROTOCOLS

    def test_home_owned_seeds_write_only_at_home(self):
        wl = generate_workload(6)
        homes = wl.regions[0]["homes"]
        bpp = wl.config.page_size // wl.config.block_size
        for ev in wl.events:
            if ev[0] != "phase":
                continue
            for node, ops in enumerate(ev[1].ops):
                for op in ops:
                    if op[0] == "w":
                        page = op[1] // bpp - 1  # page 0 is reserved
                        assert homes[page] == node

    def test_at_most_one_writer_per_block_per_phase(self):
        """The property that makes the final memory image trace-determined."""
        for seed in range(12):
            wl = generate_workload(seed)
            for ev in wl.events:
                if ev[0] != "phase":
                    continue
                writers: dict[int, int] = {}
                for node, ops in enumerate(ev[1].ops):
                    for op in ops:
                        if op[0] == "w":
                            assert writers.setdefault(op[1], node) == node
                            writers[op[1]] = node

    def test_sessions_survive_the_tracefile_round_trip(self, tmp_path):
        wl = generate_workload(6)
        path = tmp_path / "wl.trace"
        save_session(wl.events, path, regions=wl.regions)
        events, regions = load_session(path)
        assert regions == wl.regions
        assert len(events) == len(wl.events)


class TestRunWorkload:
    def test_observables_match_ground_truth(self):
        wl = generate_workload(2)
        obs = run_workload(wl, "stache")
        want = expected_observables(wl)
        assert obs.readers == want["readers"]
        assert obs.writers == want["writers"]
        assert obs.image == want["image"]

    def test_all_protocols_agree_on_home_owned_seed(self):
        wl = generate_workload(6)
        observed = {p: run_workload(wl, p) for p in wl.protocols}
        differential_check(wl, observed)  # must not raise

    def test_remote_write_seed_exercises_exclusive_paths(self):
        wl = generate_workload(7)
        obs = run_workload(wl, "stache")
        assert obs.stats.misses > 0
        differential_check(wl, {"stache": obs})


class TestDifferentialCheck:
    def test_mismatched_image_is_a_violation(self):
        wl = generate_workload(6)
        obs = run_workload(wl, "stache")
        block = next(iter(obs.image))
        writer, count = obs.image[block]
        obs.image[block] = (writer, count + 1)  # phantom extra write
        with pytest.raises(CoherenceViolation) as ei:
            differential_check(wl, {"stache": obs})
        assert ei.value.invariant == "differential"
        assert "memory image" in ei.value.detail

    def test_mismatched_readers_is_a_violation(self):
        wl = generate_workload(6)
        obs = run_workload(wl, "stache")
        block = next(iter(obs.readers))
        obs.readers[block] = set(obs.readers[block]) | {99}
        with pytest.raises(CoherenceViolation) as ei:
            differential_check(wl, {"stache": obs})
        assert "reader sets" in ei.value.detail

    def test_empty_observables_flagged(self):
        wl = generate_workload(6)
        with pytest.raises(CoherenceViolation):
            differential_check(wl, {"stache": Observables(protocol="stache")})
