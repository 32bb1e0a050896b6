"""Overhead guard: the disabled-tracing path must stay near-free.

Every instrumentation site in the simulator follows the same convention::

    obs = self.machine.obs
    if obs.enabled:
        obs.emit(...)

With tracing off (``obs`` is :data:`~repro.obs.events.NULL_TRACER`) a site
costs one attribute load plus one falsy check — no event object, no
dispatch.  This module turns that claim into a measurable bound:

1. run a seed benchmark workload untraced and time it;
2. run the identical workload under a :class:`~repro.obs.events.CountingTracer`
   to count how many guard sites actually fire;
3. microbenchmark the guard itself (attribute load + ``.enabled`` check on a
   disabled tracer) to get a per-site cost;
4. bound the disabled-path overhead as ``sites x per-site cost / untraced
   wall time`` and assert it is under the budget (default 5%).

The analytic bound is deliberate: directly diffing two wall-clock runs of a
small simulation measures allocator noise, not the guard.  Counting real
sites against a measured per-site cost is stable under CI jitter while still
failing loudly if someone puts event construction, string formatting, or a
dict build on the disabled path — any of those multiplies the per-site cost
past the budget.

Run as a script (the CI smoke job does)::

    python -m repro.bench.overhead --check
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.apps import water
from repro.bench.figures import WATER_CFG, WATER_KW
from repro.bench.harness import VersionSpec, run_version
from repro.obs.events import NULL_TRACER, CountingTracer

#: disabled-tracing overhead budget, as a fraction of untraced runtime
BUDGET = 0.05


@dataclass(frozen=True)
class OverheadReport:
    """The measured bound and everything that went into it."""

    workload: str
    untraced_seconds: float
    guard_sites: int
    per_guard_seconds: float
    budget: float = BUDGET

    @property
    def bound(self) -> float:
        """Upper bound on the disabled-path overhead fraction."""
        return (self.guard_sites * self.per_guard_seconds
                / self.untraced_seconds)

    @property
    def ok(self) -> bool:
        return self.bound < self.budget

    def render(self) -> str:
        return (
            f"workload            {self.workload}\n"
            f"untraced run        {self.untraced_seconds * 1e3:.1f} ms\n"
            f"guard sites fired   {self.guard_sites}\n"
            f"cost per guard      {self.per_guard_seconds * 1e9:.1f} ns\n"
            f"overhead bound      {self.bound * 100:.3f}% "
            f"(budget {self.budget * 100:.0f}%)\n"
            f"verdict             {'OK' if self.ok else 'OVER BUDGET'}"
        )


def _bench_run(tracer=None) -> float:
    """One seed water run (Figure 7's optimized bar); returns wall seconds."""
    spec = VersionSpec("overhead-probe", water, "predictive", True,
                       WATER_CFG.with_(block_size=32), dict(WATER_KW))
    t0 = time.perf_counter()
    run_version(spec, tracer=tracer)
    return time.perf_counter() - t0


def measure_guard_cost(iterations: int = 200_000) -> float:
    """Seconds per disabled guard (attribute load + ``.enabled`` check)."""

    class _Holder:
        __slots__ = ("obs",)

        def __init__(self) -> None:
            self.obs = NULL_TRACER

    holder = _Holder()
    fired = 0
    t0 = time.perf_counter()
    for _ in range(iterations):
        obs = holder.obs  # the exact shape of every instrumentation site
        if obs.enabled:
            fired += 1  # pragma: no cover - NULL_TRACER is disabled
    elapsed = time.perf_counter() - t0
    assert fired == 0
    return elapsed / iterations


def measure_overhead(repeats: int = 3) -> OverheadReport:
    """Bound the disabled-tracing overhead on a seed water/predictive run."""
    counting = CountingTracer()
    _bench_run(tracer=counting)
    untraced = min(_bench_run() for _ in range(repeats))
    per_guard = min(measure_guard_cost() for _ in range(repeats))
    return OverheadReport(
        workload="water predictive opt (fig7, block=32)",
        untraced_seconds=untraced,
        guard_sites=counting.emitted,
        per_guard_seconds=per_guard,
    )


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.overhead",
        description="bound the disabled-tracing overhead of the "
                    "instrumented simulator",
    )
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if the bound exceeds the budget")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")
    report = measure_overhead(repeats=args.repeats)
    print(report.render())
    if args.check and not report.ok:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
