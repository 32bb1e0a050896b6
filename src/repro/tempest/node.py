"""A processing node: tags, statistics, and protocol-handler occupancy.

Blizzard runs protocol handlers in software; each message a node receives
occupies it for ``handler_cost`` cycles.  We model the handler as a dedicated
serial resource per node (a network-interface / protocol co-processor in the
style of Typhoon): messages to the same node are serviced FIFO, so a home node
swamped by requests — e.g. Water's n/2 readers of one molecule — becomes a
real bottleneck, which is one of the effects pre-sending removes.
"""

from __future__ import annotations

from repro.sim.stats import NodeStats
from repro.tempest.tags import TagTable


class Node:
    """State owned by one node of the simulated machine."""

    def __init__(self, node_id: int, stats: NodeStats | None = None):
        self.id = node_id
        self.tags = TagTable(node_id)
        self.stats = stats if stats is not None else NodeStats(node_id)
        #: time until which the protocol-handler resource is busy
        self.handler_busy_until: float = 0.0
        #: optional fault hook: () -> extra cycles for the next handler service
        self.stall_hook = None

    def service_handler(self, arrival: float, cost: float) -> float:
        """Occupy the handler resource for ``cost`` cycles; FIFO service.

        Returns the completion time (when the handler's effects take place).
        A fault-injection ``stall_hook``, when attached, may lengthen any
        individual service to model a slow or wedged protocol processor.
        """
        if self.stall_hook is not None:
            cost += self.stall_hook()
        start = max(arrival, self.handler_busy_until)
        done = start + cost
        self.handler_busy_until = done
        return done

    def reset_for_restart(self) -> None:
        """Cold-start after a crash: caches empty, handler idle.

        Statistics survive (they describe the whole run, crashes included);
        home-memory contents are rebuilt by the recovery protocol.
        """
        self.tags.clear()
        self.handler_busy_until = 0.0

    def __repr__(self) -> str:
        return f"<Node {self.id} tags={len(self.tags)}>"
