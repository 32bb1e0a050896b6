"""The structured event-tracing bus.

Instrumented sites across the simulator emit typed, timestamped events
through a :class:`Tracer` attached to the machine (``machine.obs``), the
network, and the engine.  The contract at every site is::

    obs = self.machine.obs
    if obs.enabled:
        obs.emit(EventKind.MISS_BEGIN, t, node=node, block=block, kind=kind)

With tracing off (the default), ``machine.obs`` is :data:`NULL_TRACER` and
the site costs one attribute load plus one falsy check — nothing is
allocated, formatted, or stored.  :mod:`repro.obs.overhead` measures that
guard cost and the CI asserts the disabled path stays under 5% of a seed
run's wall time.

Events carry the *simulated* timestamp of the thing they describe (cycles,
not host time) plus the phase context the tracer maintains — the phase's
base name, its iteration ordinal (how many times that phase has executed),
and the covering directive — so exporters and the profiler can attribute
every event to (phase, iteration) without re-deriving run structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


class EventKind:
    """The event taxonomy (plain strings: cheap to emit, stable to export).

    Grouped by the layer that emits them; docs/OBSERVABILITY.md documents
    each kind's attributes.
    """

    # phase / directive structure (machine)
    PHASE_BEGIN = "phase.begin"
    PHASE_END = "phase.end"
    GROUP_BEGIN = "group.begin"
    GROUP_END = "group.end"
    PRESEND_PHASE = "presend.phase"
    BARRIER_ARRIVE = "barrier.arrive"
    BARRIER_RELEASE = "barrier.release"

    # trace front end (repro.cstar.recording): a program run closes with
    # ``frontend.replay``, preceded by ``frontend.record`` when this run paid
    # for the value pass instead of reusing a cached recording
    FRONTEND_RECORD = "frontend.record"
    FRONTEND_REPLAY = "frontend.replay"

    # shared-data accesses (base protocol / replay processor)
    MISS_BEGIN = "miss.begin"
    MISS_END = "miss.end"

    # wire traffic (network)
    MSG_SEND = "msg.send"
    MSG_RECV = "msg.recv"
    MSG_DROP = "msg.drop"
    MSG_DUP = "msg.dup"

    # coherence actions (protocols)
    INVALIDATE = "cache.inv"
    RECALL = "cache.recall"

    # predictive protocol / schedule store
    PRESEND_MSG = "presend.msg"
    PRESEND_CONSUMED = "presend.consumed"
    PRESEND_WASTE = "presend.waste"
    PRESEND_OUTCOME = "presend.outcome"
    SCHED_DEGRADE = "schedule.degrade"
    SCHED_EVICT = "schedule.evict"
    SCHED_FLUSH = "schedule.flush"
    SCHED_STALE = "schedule.stale"
    SCHED_CORRUPT = "schedule.corrupt"
    SCHED_WARM = "schedule.warm"

    # schedule corpus (host-side durable store; ``ts`` is 0.0 — corpus
    # operations happen outside any simulated clock)
    CORPUS_HIT = "corpus.hit"
    CORPUS_MISS = "corpus.miss"
    CORPUS_STORE = "corpus.store"
    CORPUS_QUARANTINE = "corpus.quarantine"
    CORPUS_EVICT = "corpus.evict"
    CORPUS_RECOVER = "corpus.recover"
    CORPUS_FALLBACK = "corpus.fallback"

    # resilient transport
    RETRY = "transport.retry"
    TIMEOUT = "transport.timeout"
    DUP_SUPPRESSED = "transport.dup"

    # crash-stop recovery
    CRASH = "node.crash"
    DETECT = "node.detect"
    RESTART = "node.restart"
    REISSUE = "node.reissue"

    # discrete-event engine
    ENGINE_RUN = "engine.run"

    # analytical model (repro.model; host-side like the corpus, ``ts`` is
    # 0.0 — predictions happen outside any simulated clock)
    MODEL_PREDICT = "model.predict"
    MODEL_CALIBRATE = "model.calibrate"
    MODEL_VALIDATE = "model.validate"
    MODEL_SWEEP = "model.sweep"

    # campaign farm (coordinator; ``ts`` is host seconds since farm start
    # and ``node`` is the worker id — parallel campaigns have no single
    # simulated clock to stamp)
    FARM_WORKER_UP = "farm.worker.up"
    FARM_WORKER_DOWN = "farm.worker.down"
    FARM_DISPATCH = "farm.dispatch"
    FARM_STEAL = "farm.steal"
    FARM_DONE = "farm.done"
    FARM_RETRY = "farm.retry"

    @classmethod
    def all_kinds(cls) -> frozenset[str]:
        return frozenset(
            v for k, v in vars(cls).items()
            if isinstance(v, str) and not k.startswith("_")
        )


@dataclass(slots=True)
class TraceEvent:
    """One emitted event.

    ``ts`` is simulated cycles; ``node`` is the node the event belongs to
    (None for machine-global events such as barrier releases).  ``phase``,
    ``iteration``, and ``directive`` are the tracer's context at emission
    time; ``attrs`` holds the kind-specific payload.
    """

    ts: float
    kind: str
    node: int | None = None
    phase: str | None = None
    iteration: int | None = None
    directive: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"ts": self.ts, "kind": self.kind}
        if self.node is not None:
            d["node"] = self.node
        if self.phase is not None:
            d["phase"] = self.phase
        if self.iteration is not None:
            d["iteration"] = self.iteration
        if self.directive is not None:
            d["directive"] = self.directive
        if self.attrs:
            d["attrs"] = self.attrs
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TraceEvent":
        return cls(
            ts=d["ts"], kind=d["kind"], node=d.get("node"),
            phase=d.get("phase"), iteration=d.get("iteration"),
            directive=d.get("directive"), attrs=d.get("attrs", {}),
        )


class Tracer:
    """The sink interface instrumented sites talk to.

    ``enabled`` is the one flag every site checks; the base class is the
    disabled no-op sink.  Subclasses that set ``enabled = True`` receive
    every event through :meth:`emit` and the phase-context callbacks.
    """

    enabled: bool = False

    def emit(self, kind: str, ts: float, node: int | None = None,
             **attrs: Any) -> None:
        """Record one event (no-op when disabled)."""

    def begin_phase(self, name: str, directive: int | None,
                    ts: float) -> None:
        """A phase starts: establish (phase, iteration) context and emit."""

    def end_phase(self, ts: float, **attrs: Any) -> None:
        """The phase's barrier released: emit and clear the context."""

    def set_directive(self, directive: int | None) -> None:
        """The covering compiler directive changed (begin_group/end_group)."""


#: The shared disabled sink; ``machine.obs`` defaults to this.
NULL_TRACER = Tracer()


class EventTrace(Tracer):
    """A recording tracer: stores every event in emission order.

    Maintains the (phase, iteration) context: iteration is the per-base-name
    execution ordinal (``sweep#1``/``sweep#2`` from the runtime both map to
    base ``sweep`` with iterations 1, 2, ...), which is what the profiler
    and the timeline exporters group by.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._phase: str | None = None
        self._iteration: int | None = None
        self._directive: int | None = None
        self._iterations_of: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- emission ------------------------------------------------------------

    def emit(self, kind: str, ts: float, node: int | None = None,
             **attrs: Any) -> None:
        self.events.append(TraceEvent(
            ts=ts, kind=kind, node=node, phase=self._phase,
            iteration=self._iteration, directive=self._directive,
            attrs=attrs,
        ))

    # -- phase context ---------------------------------------------------------

    @staticmethod
    def base_name(phase_name: str) -> str:
        """Strip the runtime's ``#<count>`` suffix: ``sweep#3`` -> ``sweep``."""
        base, _, tail = phase_name.rpartition("#")
        return base if base and tail.isdigit() else phase_name

    def begin_phase(self, name: str, directive: int | None,
                    ts: float) -> None:
        base = self.base_name(name)
        iteration = self._iterations_of.get(base, 0) + 1
        self._iterations_of[base] = iteration
        self._phase = base
        self._iteration = iteration
        self._directive = directive
        self.emit(EventKind.PHASE_BEGIN, ts, raw_name=name)

    def end_phase(self, ts: float, **attrs: Any) -> None:
        self.emit(EventKind.PHASE_END, ts, **attrs)
        self._phase = None
        self._iteration = None

    def set_directive(self, directive: int | None) -> None:
        self._directive = directive

    # -- queries ---------------------------------------------------------------

    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        want = set(kinds)
        return [ev for ev in self.events if ev.kind in want]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out


class CountingTracer(Tracer):
    """An enabled sink that only counts emissions (for the overhead bound).

    Each count approximates one guard execution on the disabled path: a site
    that emits N events under this tracer runs its ``obs.enabled`` check N
    times when tracing is off.
    """

    enabled = True

    def __init__(self) -> None:
        self.emitted = 0

    def emit(self, kind: str, ts: float, node: int | None = None,
             **attrs: Any) -> None:
        self.emitted += 1

    def begin_phase(self, name: str, directive: int | None, ts: float) -> None:
        self.emitted += 1

    def end_phase(self, ts: float, **attrs: Any) -> None:
        self.emitted += 1


def events_to_dicts(events: Iterable[TraceEvent]) -> list[dict[str, Any]]:
    return [ev.to_dict() for ev in events]
