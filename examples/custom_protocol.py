#!/usr/bin/env python3
"""Writing a custom coherence protocol in the teapot framework.

The paper's predictive protocol is itself "a delta over Stache" written in
Teapot.  This example shows the same extensibility at user level: a
**read-broadcast** protocol that, whenever any node fetches a block, also
pushes copies to every node that has *ever* read it (a simpler, stateless
cousin of the predictive protocol — no compiler directives needed, but it
over-shares: every historical reader gets every block forever, the
deletion problem §3.3 describes).

The example runs a repetitive multi-consumer workload under Stache, the
custom protocol, and the real predictive protocol, and prints the misses
and wall time of each.  The punchline: the reactive broadcast barely helps,
because all consumers fault in the same phase — their requests race the
pushed copies.  Only *pre-sending before the phase begins* (which needs the
compiler's directive to know where a phase begins) converts those misses
into hits; that interplay is the paper's core claim.

Run:  python examples/custom_protocol.py
"""

from repro.protocols.directory import DirEntry, DirState
from repro.protocols.messages import MessageKind as MK
from repro.protocols.stache import StacheProtocol
from repro.protocols.teapot import transition
from repro.tempest.machine import Machine, PhaseTrace
from repro.tempest.network import Message
from repro.tempest.tags import AccessTag
from repro.util import MachineConfig


class ReadBroadcastProtocol(StacheProtocol):
    """Stache + push to historical readers on every read fill."""

    name = "read-broadcast"

    def __init__(self, machine: Machine) -> None:
        super().__init__(machine)
        #: block -> every node that ever read it
        self.ever_readers: dict[int, set[int]] = {}

    @transition(DirState.IDLE, MK.GET_RO)
    @transition(DirState.SHARED, MK.GET_RO)
    def read_from_home(self, entry: DirEntry, msg: Message, t: float) -> None:
        readers = self.ever_readers.setdefault(entry.block, set())
        readers.add(msg.src)
        # serve the requester through the normal path ...
        self.grant_ro(entry, msg.src, t)
        # ... and push copies to everyone else who ever read this block
        for node in sorted(readers):
            if node in (msg.src, entry.home):
                continue
            if self.machine.node(node).tags.permits(entry.block, "r"):
                continue
            entry.grant_read(node, self.shared_state)
            self.send(
                Message(MK.DATA_RO, src=entry.home, dst=node,
                        block=entry.block,
                        payload_bytes=self.config.block_size),
                t,
            )

    def cache_install(self, msg: Message, t: float) -> None:
        # pushed copies arrive unrequested (or while the node is waiting on
        # some other block): install without completing a fault
        out = self.outstanding.get(msg.dst)
        if out is None or out[1] != msg.block:
            self.machine.node(msg.dst).tags.set(
                msg.block,
                AccessTag.READ_ONLY if msg.kind == MK.DATA_RO
                else AccessTag.READ_WRITE,
            )
            return
        super().cache_install(msg, t)


def workload(machine: Machine, iterations: int = 6) -> None:
    """One producer (node 0), three consumers, repeating every iteration."""
    cfg = machine.config
    region = machine.addr_space.allocate("data", 2 * cfg.page_size,
                                         home_policy=lambda p: 0)
    first = machine.addr_space.block_of(region.base)
    blocks = list(range(first, first + 16))
    for b in blocks:
        machine.nodes[0].tags.set(b, AccessTag.READ_WRITE)
    n = cfg.n_nodes
    for it in range(iterations):
        machine.begin_group(1)
        ops = [[] for _ in range(n)]
        for consumer in (1, 2, 3):
            ops[consumer] = [("r", b) for b in blocks]
        machine.run_phase(PhaseTrace(f"consume#{it}", ops))
        machine.end_group()
        machine.begin_group(2)
        ops = [[] for _ in range(n)]
        ops[0] = [("w", b) for b in blocks]
        machine.run_phase(PhaseTrace(f"produce#{it}", ops))
        machine.end_group()


def main() -> None:
    from repro.core.predictive import PredictiveProtocol

    cfg = MachineConfig(n_nodes=4, page_size=512)
    for name, factory in [
        ("stache (write-invalidate)", StacheProtocol),
        ("read-broadcast (custom)", ReadBroadcastProtocol),
        ("predictive (the paper)", PredictiveProtocol),
    ]:
        machine = Machine(cfg, factory)
        workload(machine)
        stats = machine.finish()
        print(f"{name:<28} wall={stats.wall_time:>10,.0f}  "
              f"misses={stats.misses:>4}  hit rate={stats.hit_rate:.1%}")


if __name__ == "__main__":
    main()
