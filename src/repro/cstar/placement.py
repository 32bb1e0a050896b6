"""Directive placement (paper §4.3).

A parallel call requires a communication schedule and a preceding
predictive-protocol phase if, for any Aggregate:

1. the call is *reached by unstructured accesses* (of that aggregate) and
   includes *owner write accesses* to it — the writes will fault to
   invalidate remote copies, which the pre-send phase can anticipate; or
2. the call itself includes unstructured accesses, reached or not.

The placement then runs the paper's coalescing optimization, "an inside-out
pass on the CFG to coalesce neighboring phases that include only home
accesses", which also "moves schedules out of loops that contain only home
accesses" (the center-of-mass loop of Barnes, Figure 4) — amortizing one
pre-send over several parallel calls.

The result is a transformed flow tree in which spans of calls are wrapped in
:class:`~repro.cstar.flow.FlowGroup` nodes, each carrying the
:class:`~repro.core.directives.Directive` whose schedule persists across
dynamic executions of that program point.  Groups never nest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.directives import Directive
from repro.cstar.dataflow import ReachingUnstructured
from repro.cstar.flow import (
    FlowCall,
    FlowGroup,
    FlowIf,
    FlowLoop,
    FlowNode,
    FlowSeq,
    FlowStmt,
    iter_calls,
)
from repro.util.errors import CompileError


@dataclass
class PhaseGroup:
    """One placed directive and the call sites its schedule covers."""

    directive: Directive
    site_ids: list[int] = field(default_factory=list)
    hoisted: bool = False  # True if the group wraps a whole loop

    def __repr__(self) -> str:
        h = " hoisted" if self.hoisted else ""
        return f"<PhaseGroup {self.directive} sites={self.site_ids}{h}>"


@dataclass
class PlacementResult:
    root: FlowNode
    groups: list[PhaseGroup]
    needs_schedule: dict[int, bool]  # per call site_id
    analysis: ReachingUnstructured

    def group_of(self, site_id: int) -> PhaseGroup | None:
        for g in self.groups:
            if site_id in g.site_ids:
                return g
        return None

    def describe(self) -> str:
        """A human-readable placement report (compiler -v output)."""
        lines = [f"{len(self.groups)} phase group(s) placed:"]
        for g in self.groups:
            calls = {
                c.site_id: c.function for c in iter_calls(self.root)
            }
            names = [calls.get(s, "?") for s in g.site_ids]
            kind = "hoisted loop" if g.hoisted else "phase"
            lines.append(
                f"  {g.directive}: {kind} covering {names}"
            )
        return "\n".join(lines)


def _call_needs(analysis: ReachingUnstructured, call: FlowCall) -> bool:
    s = call.summary
    if s.unstructured():
        return True  # rule 2
    reaching = analysis.reaching_set(call)
    return bool(s.owner_writes() & reaching)  # rule 1


def _is_home_only(node: FlowNode) -> bool:
    return all(c.summary.is_home_only() for c in iter_calls(node))


def place_directives(root: FlowNode, label_prefix: str = "") -> PlacementResult:
    """Analyze ``root`` and return the directive-annotated program."""
    analysis = ReachingUnstructured(root)
    needs: dict[int, bool] = {
        c.site_id: _call_needs(analysis, c) for c in iter_calls(root)
    }
    groups: list[PhaseGroup] = []

    def needs_any(node: FlowNode) -> bool:
        return any(needs[c.site_id] for c in iter_calls(node))

    next_id = iter(range(1, 1 << 30))

    def new_group(members: list[FlowNode], hoisted: bool) -> FlowGroup:
        # Ids are allocated per compilation, not from the process-global
        # counter: compiling the same source twice must yield identical
        # programs (directive ids key schedules only within one machine).
        d = Directive(id=next(next_id), label=label_prefix + "phase")
        g = PhaseGroup(directive=d, hoisted=hoisted)
        for m in members:
            g.site_ids.extend(c.site_id for c in iter_calls(m))
        groups.append(g)
        return FlowGroup(directive_id=d.id, body=FlowSeq(list(members)))

    def transform(node: FlowNode, in_group: bool) -> FlowNode:
        if isinstance(node, (FlowStmt, FlowCall)):
            return node
        if isinstance(node, FlowIf):
            return FlowIf(
                then_body=_seq(transform(node.then_body, in_group)),
                else_body=_seq(transform(node.else_body, in_group)),
                payload=node.payload,
            )
        if isinstance(node, FlowLoop):
            # Hoisting is decided by the parent sequence; reaching here means
            # the loop was not hoisted (or we are already inside a group).
            return FlowLoop(
                body=_seq(transform(node.body, in_group)), payload=node.payload
            )
        if isinstance(node, FlowSeq):
            if in_group:
                return FlowSeq([transform(c, True) for c in node.children])
            return _group_sequence(node)
        if isinstance(node, FlowGroup):
            raise CompileError("directive placement run twice on one tree")
        raise CompileError(f"unknown flow node {node!r}")

    def _seq(node: FlowNode) -> FlowSeq:
        return node if isinstance(node, FlowSeq) else FlowSeq([node])

    def _groupable(child: FlowNode) -> str:
        """Classify a sequence child for run formation.

        * "anchor"  — home-only and requires a schedule (or a hoistable
          home-only loop containing such calls): starts/extends a group;
        * "neutral" — can be absorbed into a surrounding group (sequential
          statements, home-only calls without schedules);
        * "breaker" — ends any open run (unstructured calls, ifs, loops with
          unstructured accesses).
        """
        if isinstance(child, FlowStmt):
            return "neutral"
        if isinstance(child, FlowCall):
            if not child.summary.is_home_only():
                return "breaker"
            return "anchor" if needs[child.site_id] else "neutral"
        if isinstance(child, FlowLoop):
            if _is_home_only(child) and needs_any(child):
                return "anchor"  # hoist the schedule out of the loop
            return "breaker"
        return "breaker"  # FlowIf and anything else

    def _group_sequence(seq: FlowSeq) -> FlowSeq:
        out: list[FlowNode] = []
        i = 0
        children = seq.children
        n = len(children)
        while i < n:
            child = children[i]
            kind = _groupable(child)
            if kind != "anchor":
                if kind == "breaker" and isinstance(child, FlowCall):
                    # unstructured call: its own (single-call) phase group
                    out.append(new_group([child], hoisted=False))
                else:
                    out.append(transform(child, False))
                i += 1
                continue
            # grow a run of [anchor | neutral]* ending at the last anchor
            j = i
            last_anchor = i
            while j < n:
                k = _groupable(children[j])
                if k == "anchor":
                    last_anchor = j
                elif k != "neutral":
                    break
                j += 1
            members = [
                transform(c, True) for c in children[i : last_anchor + 1]
            ]
            hoisted = any(isinstance(c, FlowLoop) for c in children[i : last_anchor + 1])
            out.append(new_group(members, hoisted=hoisted))
            i = last_anchor + 1
        return FlowSeq(out)

    new_root = transform(root, False)
    return PlacementResult(
        root=new_root, groups=groups, needs_schedule=needs, analysis=analysis
    )
