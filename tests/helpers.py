"""Shared test fixtures: small machines with owner-homed regions."""

from __future__ import annotations

from repro.core import make_machine
from repro.core.factory import PROTOCOLS
from repro.sim.stats import RunStats, TimeCategory
from repro.tempest.machine import Machine, PhaseTrace
from repro.tempest.tags import AccessTag
from repro.util import MachineConfig

from tests.oracle import OracleMachine


def oracle_machine(config: MachineConfig, protocol: str = "stache",
                   policy=None) -> Machine:
    """``make_machine``'s twin on the reference simulator (heap engine,
    op-at-a-time processor, dict tags; ``tests/oracle.py``) — the oracle
    the production path is differentially tested against."""
    return OracleMachine(config, PROTOCOLS[protocol], policy=policy)


def small_machine(
    protocol: str = "stache",
    n_nodes: int = 2,
    block_size: int = 32,
    home_node: int = 0,
    n_pages: int = 4,
    **cfg_kwargs,
) -> tuple[Machine, int]:
    """A machine with one region homed entirely on ``home_node``.

    Returns (machine, first_block).  The home node's tags are initialized to
    READ_WRITE for every block of the region, as at program start.
    """
    cfg = MachineConfig(n_nodes=n_nodes, block_size=block_size, **cfg_kwargs)
    m = make_machine(cfg, protocol)
    region = m.addr_space.allocate("data", n_pages * cfg.page_size,
                                   home_policy=lambda p: home_node)
    first = m.addr_space.block_of(region.base)
    nblocks = region.size // cfg.block_size
    for b in range(first, first + nblocks):
        m.nodes[home_node].tags.set(b, AccessTag.READ_WRITE)
    return m, first


def idle_ops(n_nodes: int, busy: dict[int, list] | None = None) -> list[list]:
    """Per-node op lists: empty except for the nodes in ``busy``."""
    ops: list[list] = [[] for _ in range(n_nodes)]
    if busy:
        for node, node_ops in busy.items():
            ops[node] = node_ops
    return ops


def run_one_phase(m: Machine, busy: dict[int, list], name: str = "phase") -> None:
    m.run_phase(PhaseTrace(name, idle_ops(m.config.n_nodes, busy)))


def check_phase_conservation(stats: RunStats, tol: float = 1e-6) -> None:
    """Assert the per-phase cycle breakdowns telescope to the node totals.

    Each phase records the across-node delta of every category
    accumulator, so summing the phases must reproduce the across-node
    totals exactly (up to float tolerance).  Guards the schema the
    analytical model predicts into.
    """
    phase_totals: dict[str, float] = {}
    for p in stats.phases:
        for key, cycles in p.cycles.items():
            phase_totals[key] = phase_totals.get(key, 0.0) + cycles
    for c in TimeCategory:
        node_total = sum(n.cycles[c] for n in stats.nodes)
        phase_total = phase_totals.get(c.value, 0.0)
        if abs(node_total - phase_total) > tol * max(1.0, node_total):
            raise AssertionError(
                f"category {c.value}: phases sum to {phase_total}, "
                f"nodes sum to {node_total}"
            )


def metric_series(registry, name: str) -> list[dict]:
    """The ``to_dict()`` records of every series of metric ``name``, in the
    document's order (sorted by labels)."""
    return [m for m in registry.to_dict()["metrics"] if m["name"] == name]


def metric_value(registry, name: str, **labels) -> float:
    """The value of one counter or gauge series (0.0 when absent)."""
    want = {k: str(v) for k, v in labels.items()}
    return next((m["value"] for m in metric_series(registry, name)
                 if m["labels"] == want), 0.0)
