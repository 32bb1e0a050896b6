"""Determinism regression: identical runs must be byte-identical.

The engine's FIFO tie-break makes a run a pure function of (program,
MachineConfig, protocol).  This is the repo's whole-pipeline regression for
that property: the quickstart workload (compile a C** stencil, simulate it)
run twice must produce byte-identical statistics and byte-identical recorded
session traces.  And under *different* seeded tie-break orders — legal
alternative interleavings of the same workload — the coherence-invariant
monitor must stay clean even though timing may differ.
"""

from __future__ import annotations

import json

import pytest

from repro.core import make_machine
from repro.cstar import compile_source
from repro.tempest.tracefile import record_regions, save_session
from repro.util import MachineConfig
from repro.verify import InvariantMonitor, SeededRandomPolicy

# a scaled-down version of the quickstart Jacobi stencil (same shape:
# unstructured neighbor reads bracketed by compiler directives)
QUICKSTART_SOURCE = """
aggregate Grid(float)[][];

parallel init(Grid g parallel, float v) {
  g[#0][#1] = v + #0 * 0.1 + #1 * 0.01;
}

parallel sweep(Grid g parallel, Grid src, int n) {
  if (#0 > 0 && #0 < n - 1 && #1 > 0 && #1 < n - 1) {
    g[#0][#1] = 0.25 * (src[#0+1][#1] + src[#0-1][#1]
                      + src[#0][#1+1] + src[#0][#1-1]);
  }
}

main() {
  let n = 8;
  Grid a(8, 8);
  Grid b(8, 8);
  init(a, 1.0);
  init(b, 1.0);
  for (i = 0; i < 3; i = i + 1) {
    sweep(a, b, n);
    sweep(b, a, n);
  }
}
"""

CONFIG = MachineConfig(n_nodes=4, page_size=512)


def run_quickstart(protocol: str = "predictive"):
    """One full pipeline run; returns (stats, recorded session, regions)."""
    program = compile_source(QUICKSTART_SOURCE)
    machine = make_machine(CONFIG, protocol)
    machine.recorder = session = []
    env = program.run(machine, optimized=True)
    stats = env.finish()
    return stats, session, record_regions(machine)


def stats_fingerprint(stats) -> bytes:
    """A byte-exact serialization of everything user-visible in RunStats."""
    payload = {
        "wall_time": stats.wall_time,
        "summary": [[str(c) for c in row] for row in stats.summary_rows()],
        "phases": [
            (p.phase_name, p.directive_id, p.wall_start, p.wall_end,
             p.misses, p.hits, p.messages)
            for p in stats.phases
        ],
        "nodes": [
            {
                "cycles": {c.value: n.cycles[c] for c in n.cycles},
                "read_misses": n.read_misses,
                "write_misses": n.write_misses,
                "local_hits": n.local_hits,
                "messages_sent": n.messages_sent,
                "bytes_sent": n.bytes_sent,
            }
            for n in stats.nodes
        ],
    }
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.parametrize("protocol", ["stache", "predictive"])
def test_same_config_twice_is_byte_identical(tmp_path, protocol):
    stats_a, session_a, regions_a = run_quickstart(protocol)
    stats_b, session_b, regions_b = run_quickstart(protocol)

    assert stats_fingerprint(stats_a) == stats_fingerprint(stats_b)

    save_session(session_a, tmp_path / "a.trace", regions=regions_a)
    save_session(session_b, tmp_path / "b.trace", regions=regions_b)
    assert (tmp_path / "a.trace").read_bytes() == (tmp_path / "b.trace").read_bytes()


def test_different_tiebreak_orders_keep_invariants_clean():
    """Two adversarial interleavings of the quickstart workload: timing may
    shift, but the invariant monitor must never fire."""
    for seed in (11, 97):
        policy = SeededRandomPolicy(seed)
        program = compile_source(QUICKSTART_SOURCE)
        machine = make_machine(CONFIG, "predictive", policy=policy)
        monitor = InvariantMonitor(seed=seed, policy=policy).attach(machine)
        env = program.run(machine, optimized=True)
        env.finish()
        monitor.check(machine, phase="end-of-run")
        assert monitor.checks_run > 1  # the phase hook actually ran


def test_seeded_orders_are_reproducible():
    """The same tie-break seed reproduces the same interleaving decisions."""
    records = []
    for _ in range(2):
        policy = SeededRandomPolicy(1234)
        program = compile_source(QUICKSTART_SOURCE)
        machine = make_machine(CONFIG, "stache", policy=policy)
        env = program.run(machine, optimized=False)
        stats = env.finish()
        records.append((list(policy.choices), stats_fingerprint(stats)))
    assert records[0] == records[1]
