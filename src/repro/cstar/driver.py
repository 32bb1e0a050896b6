"""Executor for (placed) flow trees with embedded-frontend payloads.

Walks a :mod:`repro.cstar.flow` tree, logging runtime directives at
:class:`~repro.cstar.flow.FlowGroup` boundaries and running parallel calls
through the recording runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cstar.flow import (
    FlowCall,
    FlowGroup,
    FlowIf,
    FlowLoop,
    FlowNode,
    FlowSeq,
    FlowStmt,
)
from repro.cstar.runtime import CStarRuntime
from repro.util.errors import SimulationError


@dataclass
class Env:
    """Execution environment shared by setup, bodies, and sequential steps."""

    runtime: CStarRuntime
    params: dict[str, Any] = field(default_factory=dict)
    #: free-form application state (trees, element lists, iteration counters)
    state: dict[str, Any] = field(default_factory=dict)
    #: the machine the recording was replayed on (None during the value pass)
    machine: Any = None

    def agg(self, name: str):
        return self.runtime.aggregates[name]

    @property
    def config(self):
        """What the value pass may depend on: ``n_nodes`` and ``page_size``."""
        return self.runtime.config

    def finish(self):
        return self.machine.finish()


def execute(node: FlowNode, env: Env) -> None:
    """Execute one flow node (and its subtree)."""
    if isinstance(node, FlowSeq):
        for child in node.children:
            execute(child, env)
    elif isinstance(node, FlowStmt):
        if callable(node.payload):
            node.payload(env)
    elif isinstance(node, FlowGroup):
        env.runtime.begin_group(node.directive_id)
        try:
            execute(node.body, env)
        finally:
            env.runtime.end_group()
    elif isinstance(node, FlowLoop):
        spec = node.payload
        if spec is None:
            raise SimulationError("embedded loop without a LoopSpec payload")
        count = spec.trip_count(env)
        if count is not None:
            for _ in range(count):
                execute(node.body, env)
        else:
            if spec.cond is None:
                raise SimulationError("LoopSpec needs a count or a cond")
            while spec.cond(env):
                execute(node.body, env)
    elif isinstance(node, FlowIf):
        cond = node.payload
        if not callable(cond):
            raise SimulationError("embedded if without a condition payload")
        execute(node.then_body if cond(env) else node.else_body, env)
    elif isinstance(node, FlowCall):
        spec = node.payload
        if spec is None or spec.body is None:
            raise SimulationError(f"call site {node!r} has no executable payload")
        over = env.agg(spec.over)
        snapshot = [env.agg(n) for n in spec.snapshot]
        elements = spec.elements(env) if spec.elements is not None else None
        env.runtime.par_call(
            lambda ctx: spec.body(ctx, env),
            over=over,
            snapshot_of=snapshot,
            name=spec.function,
            elements=elements,
        )
    else:
        raise SimulationError(f"cannot execute flow node {node!r}")
