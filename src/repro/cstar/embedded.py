"""The embedded C** frontend.

The paper's applications (Adaptive, Barnes, Water) use C++ pointer structures
our textual mini-language does not model, but the *compiler analysis never
looks below the level of access summaries on a control-flow graph* (its
Figure 4).  This frontend therefore lets an application written in Python
declare exactly that information — each parallel function's
:class:`~repro.cstar.access.AccessSummary` and the ``main`` flow tree — and
feeds it through the very same dataflow and directive-placement passes as
the textual compiler.  Invocation bodies are Python callables executed under
the recording runtime.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.cstar.access import Access, AccessKind, AccessSummary, Locality
from repro.cstar.driver import Env, execute
from repro.cstar.flow import FlowCall, FlowIf, FlowLoop, FlowSeq, FlowStmt
from repro.cstar.placement import PlacementResult, place_directives
from repro.cstar.recording import check_variant, record, record_program, replay
from repro.cstar.runtime import ElementContext
from repro.tempest.machine import Machine
from repro.util.errors import CompileError


def access(aggregate: str, kind: str, locality: str) -> Access:
    """Shorthand: ``access("dual", "r", "non-home")``."""
    return Access(
        aggregate,
        AccessKind.READ if kind == "r" else AccessKind.WRITE,
        Locality.HOME if locality == "home" else Locality.NON_HOME,
    )


@dataclass
class CallSpec:
    """Runtime payload of an embedded parallel call site."""

    function: str
    over: str
    snapshot: tuple[str, ...] = ()
    #: body(ctx, env) — invoked once per element
    body: Callable[[ElementContext, Env], None] | None = None
    #: optional element-set restriction: elements(env) -> iterable of indices
    elements: Callable[[Env], Iterable[tuple[int, ...]]] | None = None


@dataclass
class LoopSpec:
    """Runtime payload of an embedded loop: fixed count or predicate."""

    count: int | Callable[[Env], int] | None = None
    cond: Callable[[Env], bool] | None = None

    def trip_count(self, env: Env) -> int | None:
        if self.count is None:
            return None
        return self.count(env) if callable(self.count) else self.count


class EmbeddedProgram:
    """An application declared at the compiler's level of abstraction."""

    def __init__(self, name: str, setup: Callable[[Env], None]):
        self.name = name
        self.setup = setup
        self.functions: dict[str, AccessSummary] = {}
        self._bodies: dict[str, Callable] = {}
        self.main: FlowSeq | None = None
        self._placement: PlacementResult | None = None
        #: ``(app module, build kwargs)`` when an application's ``build``
        #: made this program (see :func:`keyed_build`): its recording is
        #: shared through :func:`~repro.cstar.recording.record_program`
        self.identity: tuple[Any, dict] | None = None

    # -- declaring parallel functions ---------------------------------------------

    def parallel(
        self,
        name: str,
        accesses: Sequence[Access],
        body: Callable[[ElementContext, Env], None],
    ) -> str:
        if name in self.functions:
            raise CompileError(f"parallel function {name!r} already declared")
        self.functions[name] = AccessSummary(name, accesses)
        self._bodies[name] = body
        return name

    # -- building main ------------------------------------------------------------

    def call(
        self,
        function: str,
        over: str,
        snapshot: Sequence[str] = (),
        elements: Callable[[Env], Iterable] | None = None,
    ) -> FlowCall:
        if function not in self.functions:
            raise CompileError(f"call to undeclared parallel function {function!r}")
        spec = CallSpec(
            function=function,
            over=over,
            snapshot=tuple(snapshot),
            body=self._bodies[function],
            elements=elements,
        )
        return FlowCall(function=function, summary=self.functions[function], payload=spec)

    @staticmethod
    def stmt(fn: Callable[[Env], None]) -> FlowStmt:
        return FlowStmt(payload=fn)

    @staticmethod
    def seq(*nodes) -> FlowSeq:
        return FlowSeq(list(nodes))

    @staticmethod
    def loop(count, *nodes) -> FlowLoop:
        """loop(10, ...) or loop(lambda env: env.params["iters"], ...) or
        loop(LoopSpec(cond=...), ...)."""
        spec = count if isinstance(count, LoopSpec) else LoopSpec(count=count)
        return FlowLoop(body=FlowSeq(list(nodes)), payload=spec)

    @staticmethod
    def if_(cond: Callable[[Env], bool], then_nodes, else_nodes=()) -> FlowIf:
        return FlowIf(
            then_body=FlowSeq(list(then_nodes)),
            else_body=FlowSeq(list(else_nodes)),
            payload=cond,
        )

    def build(self, *nodes) -> None:
        self.main = FlowSeq(list(nodes))

    # -- compile & run ----------------------------------------------------------------

    def compile(self) -> PlacementResult:
        """Run access analysis + dataflow + directive placement (cached)."""
        if self.main is None:
            raise CompileError(f"program {self.name!r} has no main")
        if self._placement is None:
            self._placement = place_directives(self.main, label_prefix=f"{self.name}:")
        return self._placement

    def execute(self, env: Env, optimized: bool = True) -> None:
        """The value pass: declare aggregates, then walk the flow tree."""
        self.setup(env)
        execute(self.compile().root if optimized else self.main, env)

    def run(
        self,
        machine: Machine,
        params: dict[str, Any] | None = None,
        optimized: bool = True,
    ) -> Env:
        """Execute on ``machine``: record (or reuse) the value pass, replay it.

        ``optimized=True`` runs the directive-annotated program (the paper's
        "optimized communication" versions); ``False`` runs the same program
        with no directives (the unoptimized baseline), regardless of
        protocol.  ``params`` or a program without a build identity make the
        recording private to this run.
        """
        cfg = machine.config
        if self.identity is not None and not params:
            app, kwargs = self.identity
            recording = record_program(app, kwargs, n_nodes=cfg.n_nodes,
                                       page_size=cfg.page_size)
        else:
            recording = record(
                cfg, lambda env: self.execute(env, optimized), params)
        return replay(recording, machine, optimized)


def keyed_build(build: Callable[..., EmbeddedProgram]):
    """Decorator for an application module's ``build``: rejects a variant
    the module's ``VARIANTS`` does not list, and stamps the program with
    ``(module, bound kwargs)`` so every bar of a figure shares one
    recording per placement."""
    signature = inspect.signature(build)

    @functools.wraps(build)
    def stamped(*args, **kwargs) -> EmbeddedProgram:
        app = sys.modules[build.__module__]
        arguments = dict(signature.bind(*args, **kwargs).arguments)
        check_variant(app, arguments.get("variant", "cstar"))
        prog = build(*args, **kwargs)
        prog.identity = (app, arguments)
        return prog

    return stamped
