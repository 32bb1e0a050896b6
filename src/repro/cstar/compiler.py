"""The C** compiler driver: source text -> analyzed, directive-placed program.

Pipeline: lex/parse (:mod:`parser`) -> semantic + access-pattern analysis
(:mod:`sema`, paper §4.2) -> lower ``main`` to a flow tree with call-site
access summaries substituted for actuals (paper §4.3: "mapping parallel
function data access lists back to function call sites") -> reaching
unstructured accesses dataflow + directive placement (:mod:`placement`).

:class:`CompiledProgram` can then run on a simulated machine with
(``optimized=True``) or without (``optimized=False``) the predictive-protocol
directives — the two program versions the paper's figures compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cstar import astnodes as A
from repro.cstar.access import Access, AccessSummary
from repro.cstar.driver import Env, execute
from repro.cstar.embedded import CallSpec, LoopSpec
from repro.cstar.flow import FlowCall, FlowIf, FlowLoop, FlowNode, FlowSeq, FlowStmt
from repro.cstar.interp import BodyInterp, eval_scalar
from repro.cstar.parser import parse
from repro.cstar.placement import PlacementResult, place_directives
from repro.cstar.recording import record, replay
from repro.cstar.sema import FunctionInfo, ProgramInfo, analyze
from repro.tempest.machine import Machine
from repro.util.errors import CompileError


def _site_summary(info: FunctionInfo, actuals: dict[str, str]) -> AccessSummary:
    """The callee's access summary with formal aggregate names replaced by
    the actual aggregate variables of this call site."""
    out = AccessSummary(info.decl.name)
    for acc in info.summary:
        out.add(Access(actuals[acc.aggregate], acc.kind, acc.locality))
    return out


class CompiledProgram:
    """A compiled C** program, ready to execute on a machine."""

    def __init__(self, info: ProgramInfo):
        self.info = info
        self.flow: FlowSeq = self._lower_main()
        self.placement: PlacementResult = place_directives(self.flow)

    # -- introspection ---------------------------------------------------------

    @property
    def summaries(self) -> dict[str, AccessSummary]:
        return {name: fi.summary for name, fi in self.info.functions.items()}

    def describe(self) -> str:
        lines = [f"compiled program: {len(self.info.functions)} parallel function(s)"]
        for name, fi in sorted(self.info.functions.items()):
            lines.append(f"  {name}: {list(fi.summary)}")
        lines.append(self.placement.describe())
        return "\n".join(lines)

    # -- lowering ------------------------------------------------------------------

    def _lower_main(self) -> FlowSeq:
        return FlowSeq(self._lower_block(self.info.program.main.body))

    def _lower_block(self, stmts) -> list[FlowNode]:
        out: list[FlowNode] = []
        for s in stmts:
            out.extend(self._lower_stmt(s))
        return out

    def _lower_stmt(self, s: A.Node) -> list[FlowNode]:
        if isinstance(s, A.Let) or isinstance(s, A.AssignVar):
            def run_assign(env: Env, s=s) -> None:
                env.state["vars"][s.name] = eval_scalar(s.value, env.state["vars"], env)

            return [FlowStmt(payload=run_assign)]
        if isinstance(s, A.NewAggregate):
            decl = self.info.agg_decls[s.type_name]

            def run_new(env: Env, s=s, decl=decl) -> None:
                dims = [int(eval_scalar(d, env.state["vars"], env)) for d in s.dims]
                env.runtime.aggregate(s.name, dims, dtype=decl.base_type)

            return [FlowStmt(payload=run_new)]
        if isinstance(s, A.If):
            def cond(env: Env, s=s) -> bool:
                return bool(eval_scalar(s.cond, env.state["vars"], env))

            return [
                FlowIf(
                    then_body=FlowSeq(self._lower_block(s.then_body)),
                    else_body=FlowSeq(self._lower_block(s.else_body)),
                    payload=cond,
                )
            ]
        if isinstance(s, A.For):
            def run_init(env: Env, s=s) -> None:
                env.state["vars"][s.init.name] = eval_scalar(
                    s.init.value, env.state["vars"], env
                )

            def loop_cond(env: Env, s=s) -> bool:
                return bool(eval_scalar(s.cond, env.state["vars"], env))

            def run_step(env: Env, s=s) -> None:
                env.state["vars"][s.step.name] = eval_scalar(
                    s.step.value, env.state["vars"], env
                )

            body = self._lower_block(s.body)
            body.append(FlowStmt(payload=run_step))
            return [
                FlowStmt(payload=run_init),
                FlowLoop(body=FlowSeq(body), payload=LoopSpec(cond=loop_cond)),
            ]
        if isinstance(s, A.While):
            def while_cond(env: Env, s=s) -> bool:
                return bool(eval_scalar(s.cond, env.state["vars"], env))

            return [
                FlowLoop(
                    body=FlowSeq(self._lower_block(s.body)),
                    payload=LoopSpec(cond=while_cond),
                )
            ]
        if isinstance(s, A.ParCallStmt):
            return [self._lower_call(s)]
        raise CompileError(f"cannot lower statement {s!r}")

    def _lower_call(self, s: A.ParCallStmt) -> FlowCall:
        info = self.info.functions[s.func]
        params = info.decl.params
        # formal aggregate name -> actual aggregate variable name
        actuals: dict[str, str] = {}
        scalar_args: list[tuple[str, A.Node]] = []
        for arg, p in zip(s.args, params):
            if p.name in info.agg_params:
                assert isinstance(arg, A.Name)  # checked in sema
                actuals[p.name] = arg.ident
            else:
                scalar_args.append((p.name, arg))

        over_name = actuals[info.parallel_param]
        snapshot = tuple(sorted(set(actuals.values())))

        def body(ctx, env: Env, info=info, actuals=actuals, scalar_args=scalar_args):
            # scalars are loop-invariant within one phase: evaluate once per
            # phase, not once per element (memoized on the phase counter)
            memo = env.state.setdefault("_call_scalars", {})
            key = (id(info), env.runtime.phase_count)
            scalars = memo.get(key)
            if scalars is None:
                memo.clear()
                scalars = {
                    name: eval_scalar(expr, env.state["vars"])
                    for name, expr in scalar_args
                }
                memo[key] = scalars
            aggs = {formal: env.agg(actual) for formal, actual in actuals.items()}
            BodyInterp(ctx, scalars, aggs).exec_block(info.decl.body)

        spec = CallSpec(
            function=s.func, over=over_name, snapshot=snapshot, body=body
        )
        return FlowCall(
            function=s.func,
            summary=_site_summary(info, actuals),
            payload=spec,
        )

    # -- execution ----------------------------------------------------------------------

    def execute(self, env: Env, optimized: bool = True) -> None:
        """The value pass: walk the (placed) flow tree of ``main``."""
        env.state["vars"] = {}
        execute(self.placement.root if optimized else self.flow, env)

    def run(
        self,
        machine: Machine,
        optimized: bool = True,
        params: dict[str, Any] | None = None,
    ) -> Env:
        recording = record(
            machine.config, lambda env: self.execute(env, optimized), params)
        return replay(recording, machine, optimized)


def compile_source(source: str) -> CompiledProgram:
    """Compile C** source text."""
    return CompiledProgram(analyze(parse(source)))
