"""Host-time spans recorded from outside the program.

The traced run of a workload wraps the public callables that cross each
layer boundary (see ``e2e_layers.BOUNDARIES``) with :meth:`Tracer.wrap`.
Every call becomes one span — name, start, end, parent, run id — kept in
memory and dumped when the child ends.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover, so the self
times of one run's spans sum to the duration of its root span (host-time
conservation, the wall-clock twin of the simulator's cycle conservation).

Nothing here imports ``repro``: the arithmetic is testable on synthetic
spans, and a boundary that no longer resolves is reported, not raised.
"""

from __future__ import annotations

import contextlib
import importlib
from time import perf_counter
from typing import Callable, Iterable, NamedTuple


#: the root span of a traced body; its self time is the benchmark's own glue
#: plus program time no span below claims (``bench.unattributed_pct``)
ROOT_SPAN = "e2e.body"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list; -1 for a root
    run: str


class Tracer:
    """In-memory span and counter recorder for one child process."""

    def __init__(self) -> None:
        self._rows: list[list] = []  # [name, start, end, parent, run]
        self._open: list[int] = []
        #: stamped on every span and counter; the body and each probe that
        #: follows it use different ids so probes never pollute body numbers
        self.run = "body"
        self.counters: dict[tuple[str, str], float] = {}
        #: "module:attr" targets that did not resolve when wrapped
        self.missing: list[str] = []
        #: layers with at least one wrapped boundary
        self.live: set[str] = set()
        self._patched: list[tuple[object, str, Callable]] = []

    # -- recording -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self._rows)
        row = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.run]
        self._rows.append(row)
        self._open.append(idx)
        row[1] = perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self._rows[idx][2] = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, amount: float = 1) -> None:
        key = (self.run, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def counter(self, name: str, run: str = "body") -> float:
        return self.counters.get((run, name), 0)

    def open_name(self) -> str | None:
        """Name of the innermost span still open."""
        return self._rows[self._open[-1]][0] if self._open else None

    def spans(self, run: str | None = None) -> list[Span]:
        """Closed spans, re-indexed so ``parent`` stays valid after filtering."""
        keep = [i for i, r in enumerate(self._rows)
                if run is None or r[4] == run]
        remap = {old: new for new, old in enumerate(keep)}
        return [Span(r[0], r[1], r[2], remap.get(r[3], -1), r[4])
                for r in (self._rows[i] for i in keep)]

    # -- boundary wrapping -----------------------------------------------------

    def wrap(self, target: str, layer: str, after: Callable | None = None,
             namer: Callable[..., str] | None = None) -> bool:
        """Replace ``module:attr[.attr]`` with a span-recording wrapper.

        Spans are named ``layer``, or ``namer(*args, **kwargs)`` when the
        name depends on the call.  ``after(tracer, result, args, kwargs)``
        records counts at the same boundary.  Returns False (and notes the
        target in :attr:`missing`) when the target does not resolve.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return False
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            idx = begin(layer if namer is None else namer(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))
        self.live.add(layer)
        return True

    def unwrap_all(self) -> None:
        """Restore every wrapped callable (in-process users: the self-tests)."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)


class NullTracer:
    """The tracing-off stand-in: a span costs one no-op call."""

    _NO_SPAN = contextlib.nullcontext()

    def span(self, name: str):
        return self._NO_SPAN


NULL = NullTracer()


# -- self-time arithmetic ------------------------------------------------------


def _covered(lo: float, hi: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, edge), min(stop, hi)
        if stop > start:
            total += stop - start
            edge = stop
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start)
        - _covered(span.start, span.end, children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, self seconds, and inclusive seconds.

    Inclusive time counts only the outermost span of a name, so a wrapped
    function that calls another wrapped function of the same layer is not
    counted twice.
    """
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        row = out.setdefault(span.name,
                             {"count": 0, "self_s": 0.0, "total_s": 0.0})
        row["count"] += 1
        row["self_s"] += own[i]
        up = span.parent
        while up >= 0 and spans[up].name != span.name:
            up = spans[up].parent
        if up < 0:
            row["total_s"] += span.end - span.start
    return out


def root_seconds(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.parent < 0)
