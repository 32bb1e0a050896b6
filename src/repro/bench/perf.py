"""Wall-clock benchmarks and regression gate for the compiled fast path.

The suite times the Table-1 workloads (the Figure 5-7 configurations from
:mod:`repro.bench.figures`) on both the reference path and the compiled
fast path (:mod:`repro.fastpath`), plus a lock-step microbenchmark that
isolates pure per-event engine overhead.  Every pair of runs must agree on
``wall_time`` and ``total_dispatched`` — the fast path is bit-identical by
contract, so any divergence is a hard error, not a perf number.

Snapshots (``benchmarks/BENCH_baseline.json`` / ``BENCH_fastpath.json``,
schema :data:`BENCH_SCHEMA`) embed the per-workload timings, the measured
speedups, and the runs' stats as a ``repro.metrics/v1`` registry.  The
regression gate (:func:`compare_snapshots`) is **ratio-based**: absolute
seconds are machine-dependent, but the fastpath/baseline speedup measured
in one process is stable, so CI re-measures the quick profile and fails
when a speedup falls more than ``tolerance`` below the committed one.

See ``docs/PERFORMANCE.md`` for the measured trajectory and the analysis
of why the bit-identical 1:1 event mandate bounds the achievable speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import make_machine
from repro.obs.metrics import MetricsRegistry, registry_from_run
from repro.sim.stats import RunStats
from repro.tempest.machine import PhaseTrace
from repro.util.config import MachineConfig
from repro.util.errors import SimulationError

BENCH_SCHEMA = "repro.bench/v1"

#: synthetic pseudo-app label for the engine microbenchmark
MICROBENCH = "microbench/lockstep"


@dataclass(frozen=True)
class BenchCase:
    """One benchmarked workload configuration."""

    label: str
    app: str  # app module name under repro.apps, or MICROBENCH
    protocol: str
    optimized: bool
    block_size: int
    build_kwargs: dict
    profile: str  # "full" (committed numbers) or "quick" (CI gate)


def _figure_cases() -> list[BenchCase]:
    from repro.bench.figures import (
        ADAPTIVE_KW,
        BARNES_KW,
        WATER_KW,
    )

    full = [
        BenchCase("adaptive/stache-unopt (32)", "adaptive", "stache", False,
                  32, dict(ADAPTIVE_KW), "full"),
        BenchCase("adaptive/predictive-opt (32)", "adaptive", "predictive",
                  True, 32, dict(ADAPTIVE_KW), "full"),
        BenchCase("barnes/predictive-opt (32)", "barnes", "predictive", True,
                  32, dict(BARNES_KW), "full"),
        BenchCase("water/stache-unopt (64)", "water", "stache", False,
                  64, dict(WATER_KW), "full"),
        BenchCase("water/predictive-opt (32)", "water", "predictive", True,
                  32, dict(WATER_KW), "full"),
        BenchCase("water/predictive-opt (256)", "water", "predictive", True,
                  256, dict(WATER_KW), "full"),
        BenchCase(MICROBENCH, MICROBENCH, "predictive", True, 32, {}, "full"),
    ]
    quick = [
        BenchCase("adaptive/quick (32)", "adaptive", "predictive", True,
                  32, dict(ADAPTIVE_KW, iterations=3), "quick"),
        BenchCase("water/quick (32)", "water", "predictive", True,
                  32, dict(WATER_KW, iterations=2), "quick"),
        BenchCase(MICROBENCH + " quick", MICROBENCH, "predictive", True, 32,
                  dict(ops=20_000), "quick"),
    ]
    return full + quick


def table1_cases(profile: str | None = None) -> list[BenchCase]:
    """The benchmark matrix; ``profile`` filters to "full" or "quick"."""
    cases = _figure_cases()
    if profile is None:
        return cases
    return [c for c in cases if c.profile == profile]


def _case_config(case: BenchCase) -> MachineConfig:
    from repro.bench.figures import ADAPTIVE_CFG, BARNES_CFG, WATER_CFG

    base = {
        "adaptive": ADAPTIVE_CFG,
        "barnes": BARNES_CFG,
        "water": WATER_CFG,
        MICROBENCH: MachineConfig(n_nodes=8, page_size=512),
    }[case.app]
    return base.with_(block_size=case.block_size)


@dataclass
class CaseResult:
    case: BenchCase
    fast: bool
    sim_seconds: float
    total_seconds: float
    wall_cycles: float
    events: int
    stats: RunStats


def _run_microbench(case: BenchCase, fast: bool) -> tuple[float, RunStats, int]:
    """Pure engine overhead: all nodes compute in lock step, one op per
    dispatch (every op advances time past the peers' horizon)."""
    cfg = _case_config(case)
    ops_per_node = int(case.build_kwargs.get("ops", 100_000))
    machine = make_machine(cfg, case.protocol, fast=fast)
    trace = PhaseTrace(
        "micro", [[("c", 1.0)] * ops_per_node
                  for _ in range(cfg.n_nodes)]
    )
    t0 = time.perf_counter()
    machine.run_phase(trace)
    elapsed = time.perf_counter() - t0
    stats = machine.finish()
    return elapsed, stats, machine.engine.total_dispatched


def _run_app(case: BenchCase, fast: bool,
             warm=None) -> tuple[float, float, RunStats, int]:
    """One timed run; returns (sim_seconds, total_seconds, stats, events).

    ``sim_seconds`` covers ``run_phase`` + ``begin_group`` only — the part
    the fast path accelerates; the front end (app physics, recording,
    replay materialization) is identical Python on both paths and would
    only dilute the ratio.  ``total_seconds`` is one *cold* command — build,
    record the value pass, replay, finish — so the recording cache is
    emptied first: a warm repeat would silently drop the front end.
    """
    import repro.apps as apps
    from repro.cstar.recording import clear_cache

    clear_cache()
    app = getattr(apps, case.app)
    prog = app.build(**case.build_kwargs)
    machine = make_machine(_case_config(case), case.protocol, fast=fast,
                           warm=warm)

    sim = [0.0]
    inner_run_phase = machine.run_phase
    inner_begin_group = machine.begin_group

    def run_phase(trace):
        t0 = time.perf_counter()
        try:
            return inner_run_phase(trace)
        finally:
            sim[0] += time.perf_counter() - t0

    def begin_group(directive_id):
        t0 = time.perf_counter()
        try:
            return inner_begin_group(directive_id)
        finally:
            sim[0] += time.perf_counter() - t0

    machine.run_phase = run_phase
    machine.begin_group = begin_group
    t0 = time.perf_counter()
    env = prog.run(machine, optimized=case.optimized)
    stats = env.finish()
    total = time.perf_counter() - t0
    return sim[0], total, stats, machine.engine.total_dispatched


def run_case(case: BenchCase, fast: bool, repeats: int = 3,
             warm=None) -> CaseResult:
    """Best-of-``repeats`` timing of one case on one path.

    ``warm`` (corpus schedule records) must be supplied to *both* paths of
    a pair identically — the ref/fast bit-identity check compares their
    simulated results, and warming only one side would be a false
    divergence.  The microbenchmark has no shared data and ignores it.
    """
    best_sim = best_total = float("inf")
    stats = None
    events = 0
    for _ in range(max(1, repeats)):
        if case.app == MICROBENCH:
            elapsed, stats, events = _run_microbench(case, fast)
            sim_s = total_s = elapsed
        else:
            sim_s, total_s, stats, events = _run_app(case, fast, warm=warm)
        best_sim = min(best_sim, sim_s)
        best_total = min(best_total, total_s)
    return CaseResult(case, fast, best_sim, best_total,
                      stats.wall_time, events, stats)


def measure(cases, repeats: int = 3):
    """Run every case on both paths; enforce simulated-result equality.

    Returns ``[(reference, fastpath), ...]`` pairs.  A ``wall_time`` or
    event-count divergence means the fast path broke its bit-identical
    contract and raises immediately — perf numbers for a wrong simulation
    are meaningless.
    """
    pairs = []
    for case in cases:
        ref = run_case(case, fast=False, repeats=repeats)
        fst = run_case(case, fast=True, repeats=repeats)
        if ref.wall_cycles != fst.wall_cycles or ref.events != fst.events:
            raise SimulationError(
                f"fast path diverged on {case.label!r}: "
                f"wall {ref.wall_cycles} vs {fst.wall_cycles}, "
                f"events {ref.events} vs {fst.events}"
            )
        pairs.append((ref, fst))
    return pairs


def _workload_row(result: CaseResult, paired: CaseResult | None) -> dict:
    """One ``repro.bench/v1`` workload row.

    ``sim_seconds`` is the best-of-repeats time inside ``run_phase`` +
    ``begin_group``; ``total_seconds`` is the best-of-repeats time of the
    whole command with a cold front end (value pass recorded, then
    replayed — see :func:`_run_app`).  ``speedup_*`` compare against the
    paired baseline run; only ``speedup_sim`` is gated.
    """
    case = result.case
    row = {
        "label": case.label,
        "app": case.app,
        "protocol": case.protocol,
        "optimized": case.optimized,
        "block_size": case.block_size,
        "profile": case.profile,
        "sim_seconds": result.sim_seconds,
        "total_seconds": result.total_seconds,
        "wall_cycles": result.wall_cycles,
        "events": result.events,
    }
    if paired is not None:
        row["speedup_sim"] = paired.sim_seconds / result.sim_seconds
        row["speedup_total"] = paired.total_seconds / result.total_seconds
    return row


def snapshot(pairs, mode: str, repeats: int) -> dict:
    """Serialize one path's results (``mode`` = "baseline" | "fastpath").

    Fastpath rows carry ``speedup_*`` relative to the paired baseline run
    from the same process.  Run stats ride along as a ``repro.metrics/v1``
    registry so the snapshot round-trips through
    :meth:`~repro.obs.metrics.MetricsRegistry.from_dict`.
    """
    if mode not in ("baseline", "fastpath"):
        raise ValueError(f"unknown snapshot mode {mode!r}")
    fast = mode == "fastpath"
    rows = []
    registries = []
    for ref, fst in pairs:
        own, other = (fst, ref) if fast else (ref, fst)
        rows.append(_workload_row(own, other if fast else None))
        registries.append(registry_from_run(
            own.stats, bench=own.case.label, path=mode,
            protocol=own.case.protocol, block_size=own.case.block_size,
        ))
    return {
        "schema": BENCH_SCHEMA,
        "mode": mode,
        "repeats": repeats,
        "workloads": rows,
        "metrics": MetricsRegistry.merge_all(registries).to_dict(),
    }


def load_snapshot(doc: dict) -> dict:
    """Validate a snapshot document (schema + embedded metrics registry)."""
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"unsupported bench schema {doc.get('schema')!r}; "
            f"expected {BENCH_SCHEMA!r}"
        )
    MetricsRegistry.from_dict(doc["metrics"])  # raises on a bad registry
    return doc


def compare_snapshots(committed: dict, measured: dict,
                      tolerance: float = 0.15) -> list[str]:
    """The regression gate: measured speedups vs the committed snapshot.

    Returns a list of human-readable regressions (empty = pass).  A
    workload regresses when its measured ``speedup_sim`` falls more than
    ``tolerance`` (fractionally) below the committed value; committed
    workloads the measurement skipped are ignored (CI runs the quick
    profile only), as are newly added ones (no baseline yet).
    """
    load_snapshot(committed)
    load_snapshot(measured)
    old = {w["label"]: w for w in committed["workloads"]}
    problems = []
    for row in measured["workloads"]:
        base = old.get(row["label"])
        if base is None:
            continue
        was, now = base.get("speedup_sim"), row.get("speedup_sim")
        if was is None or now is None:
            continue
        if now < was * (1.0 - tolerance):
            problems.append(
                f"{row['label']}: fastpath speedup regressed "
                f"{was:.2f}x -> {now:.2f}x "
                f"(> {tolerance:.0%} below the committed snapshot)"
            )
    return problems


# -- campaign farm sharding ---------------------------------------------------
#
# One farm job = one case timed on both paths, so the bit-identity check
# stays local to the worker and the payload is plain JSON.  Host timings
# are machine-load-dependent and therefore NOT part of the determinism
# contract; the simulated results (wall_cycles, events, metrics) are, and
# the farm differential tests compare exactly those.


def case_to_spec(case: BenchCase, repeats: int = 1) -> dict:
    """A transport-safe (JSON) form of one case for ``repro.farm`` params."""
    return {
        "label": case.label, "app": case.app, "protocol": case.protocol,
        "optimized": case.optimized, "block_size": case.block_size,
        "build_kwargs": dict(case.build_kwargs), "profile": case.profile,
        "repeats": repeats,
    }


def spec_to_case(spec: dict) -> BenchCase:
    return BenchCase(spec["label"], spec["app"], spec["protocol"],
                     spec["optimized"], spec["block_size"],
                     dict(spec["build_kwargs"]), spec["profile"])


def _path_payload(result: CaseResult, mode: str) -> dict:
    case = result.case
    return {
        "sim_seconds": result.sim_seconds,
        "total_seconds": result.total_seconds,
        "wall_cycles": result.wall_cycles,
        "events": result.events,
        "metrics": registry_from_run(
            result.stats, bench=case.label, path=mode,
            protocol=case.protocol, block_size=case.block_size,
        ).to_dict(),
    }


def bench_case_job(spec: dict) -> dict:
    """Farm job body: time one case on both paths; returns a JSON payload.

    The fast path's bit-identity check runs inside the job, so a diverging
    worker fails its job (and the whole farm) immediately.  ``spec`` may
    carry a coordinator-computed ``"warm"`` corpus envelope, applied to
    both paths identically.
    """
    case = spec_to_case(spec)
    repeats = int(spec.get("repeats", 1))
    warm = spec.get("warm")
    ref = run_case(case, fast=False, repeats=repeats, warm=warm)
    fst = run_case(case, fast=True, repeats=repeats, warm=warm)
    if ref.wall_cycles != fst.wall_cycles or ref.events != fst.events:
        raise SimulationError(
            f"fast path diverged on {case.label!r}: "
            f"wall {ref.wall_cycles} vs {fst.wall_cycles}, "
            f"events {ref.events} vs {fst.events}"
        )
    return {
        "case": case_to_spec(case),
        "ref": _path_payload(ref, "baseline"),
        "fast": _path_payload(fst, "fastpath"),
    }


def measure_payloads(cases, repeats: int = 3, jobs: int = 1,
                     tracer=None, progress=None, corpus=None) -> list[dict]:
    """:func:`measure` in payload form, optionally sharded across a farm.

    ``jobs=1`` runs :func:`bench_case_job` in-process per case (the same
    computation the farm workers do), so the parallel path differs only in
    where the work ran.  ``corpus`` warms each case's schedule-learning
    protocol from the durable store (lookup coordinator-side, read-only —
    the perf suite never harvests; use the figure harness or verify runs
    to populate the corpus).
    """
    specs = [case_to_spec(case, repeats) for case in cases]
    if corpus is not None:
        from repro.corpus import bench_key, supports_warm

        for case, spec in zip(cases, specs):
            if case.app == MICROBENCH or not supports_warm(case.protocol):
                continue
            cfg = _case_config(case)
            entry = corpus.lookup(
                bench_key(case.app, case.protocol, cfg,
                          optimized=case.optimized,
                          build_kwargs=dict(case.build_kwargs)),
                cfg.n_nodes,
            )
            if entry is not None:
                spec["warm"] = entry["records"]
    if jobs > 1 and len(specs) > 1:
        from repro.farm import FarmJob, run_farm

        farm = run_farm(
            [FarmJob(index=i, kind="bench-case", params=spec)
             for i, spec in enumerate(specs)],
            n_workers=jobs, tracer=tracer, progress=progress,
        )
        return [farm.results[i] for i in range(len(specs))]
    return [bench_case_job(spec) for spec in specs]


def snapshot_from_payloads(payloads, mode: str, repeats: int) -> dict:
    """:func:`snapshot` over farm payloads (same document structure)."""
    if mode not in ("baseline", "fastpath"):
        raise ValueError(f"unknown snapshot mode {mode!r}")
    fast = mode == "fastpath"
    rows = []
    registries = []
    for payload in payloads:
        own = payload["fast"] if fast else payload["ref"]
        row = dict(payload["case"])
        row.pop("repeats", None)
        row.update(
            sim_seconds=own["sim_seconds"], total_seconds=own["total_seconds"],
            wall_cycles=own["wall_cycles"], events=own["events"],
        )
        if fast:
            other = payload["ref"]
            row["speedup_sim"] = other["sim_seconds"] / own["sim_seconds"]
            row["speedup_total"] = (other["total_seconds"]
                                    / own["total_seconds"])
        rows.append(row)
        registries.append(MetricsRegistry.from_dict(own["metrics"]))
    return {
        "schema": BENCH_SCHEMA,
        "mode": mode,
        "repeats": repeats,
        "workloads": rows,
        "metrics": MetricsRegistry.merge_all(registries).to_dict(),
    }


def render_payloads(payloads) -> str:
    from repro.util.tables import format_table

    rows = []
    for payload in payloads:
        ref, fst = payload["ref"], payload["fast"]
        rows.append([
            payload["case"]["label"],
            payload["case"]["profile"],
            ref["sim_seconds"],
            fst["sim_seconds"],
            ref["sim_seconds"] / fst["sim_seconds"],
            ref["total_seconds"] / fst["total_seconds"],
            float(ref["events"]),
        ])
    return format_table(
        ["workload", "profile", "ref sim s", "fast sim s",
         "sim speedup", "total speedup", "events"],
        rows,
        floatfmt=".3g",
        title="fast path vs reference (best-of-N wall clock)",
    )


def _bench_sim_doc(payloads) -> list[dict]:
    """The deterministic (simulated-only) projection of bench payloads."""
    return [
        {
            "label": p["case"]["label"],
            "wall_cycles": p["ref"]["wall_cycles"],
            "events": p["ref"]["events"],
            "ref_metrics": p["ref"]["metrics"],
            "fast_metrics": p["fast"]["metrics"],
        }
        for p in payloads
    ]


def farm_scaling(jobs_curve=(1, 2, 4, 8), *, fuzz_seeds: int = 300,
                 fault_seeds: int = 3, progress=None) -> dict:
    """Measure the farm's wall-clock scaling curve; returns a snapshot doc.

    Runs the verify fuzz sweep, the fault campaign, and the quick bench
    matrix at every worker count in ``jobs_curve``, asserting each parallel
    report is byte-identical to its sequential (``jobs=1``) report before
    recording the timing.  The document uses the :data:`BENCH_SCHEMA`
    snapshot format with ``mode: "farm"`` — rows are labelled
    ``<sweep>/jobs=N`` with ``speedup_sim`` relative to the sweep's own
    sequential run, so :func:`compare_snapshots` gates on it unchanged.
    ``host_cpus`` records how much hardware parallelism the measuring host
    actually had (a 1-core host can only show ~1.0x).
    """
    import json
    import os

    from repro.faults.campaign import run_campaign
    from repro.verify.fuzz import fuzz

    # sweep sizes are chosen so each sequential run takes seconds, not
    # milliseconds — otherwise worker startup dominates and the curve
    # measures process-spawn cost instead of campaign throughput
    tiny = [
        BenchCase(f"tiny{i}/lockstep", MICROBENCH, "predictive", True, 32,
                  dict(ops=8_000), "quick")
        for i in range(8)
    ]
    sweeps = [
        ("verify-fuzz",
         lambda jobs: fuzz(seeds=fuzz_seeds, jobs=jobs),
         lambda report: report.to_dict()),
        ("faults-sweep",
         lambda jobs: run_campaign(seeds=fault_seeds, variants=1,
                                   traces_dir=None, shrink=False, jobs=jobs),
         lambda report: report.to_dict()),
        ("bench-cases",
         lambda jobs: measure_payloads(tiny, repeats=1, jobs=jobs),
         _bench_sim_doc),
    ]
    rows = []
    registries = []
    for name, run, canon in sweeps:
        base_doc = None
        base_elapsed = None
        for jobs in jobs_curve:
            if progress:
                progress(f"[farm-scaling] {name} at jobs={jobs} ...")
            t0 = time.perf_counter()
            result = run(jobs)
            elapsed = time.perf_counter() - t0
            doc = json.dumps(canon(result), sort_keys=True)
            if base_doc is None:
                base_doc, base_elapsed = doc, elapsed
                if hasattr(result, "metrics"):
                    registries.append(result.metrics)
            elif doc != base_doc:
                raise SimulationError(
                    f"farm run of {name!r} at jobs={jobs} diverged from "
                    f"its sequential report"
                )
            rows.append({
                "label": f"{name}/jobs={jobs}",
                "profile": "farm",
                "workers": jobs,
                "sim_seconds": elapsed,
                "total_seconds": elapsed,
                "speedup_sim": base_elapsed / elapsed,
                "equal_to_sequential": True,
            })
    return {
        "schema": BENCH_SCHEMA,
        "mode": "farm",
        "repeats": 1,
        "host_cpus": os.cpu_count(),
        "workloads": rows,
        "metrics": MetricsRegistry.merge_all(registries).to_dict(),
    }


def render_pairs(pairs) -> str:
    from repro.util.tables import format_table

    rows = []
    for ref, fst in pairs:
        rows.append([
            ref.case.label,
            ref.case.profile,
            ref.sim_seconds,
            fst.sim_seconds,
            ref.sim_seconds / fst.sim_seconds,
            ref.total_seconds / fst.total_seconds,
            float(ref.events),
        ])
    return format_table(
        ["workload", "profile", "ref sim s", "fast sim s",
         "sim speedup", "total speedup", "events"],
        rows,
        floatfmt=".3g",
        title="fast path vs reference (best-of-N wall clock)",
    )
