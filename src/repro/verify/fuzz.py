"""The fuzz driver: many seeds x protocols x interleavings, with shrinking.

One *seed* names one generated workload (:mod:`repro.verify.workload`) and
one pseudo-random tie-break schedule per protocol.  Every run executes under
the invariant monitor; home-owned seeds additionally cross-check all
protocols through the differential oracle.  A failure is captured as a
:class:`~repro.verify.monitor.CoherenceViolation` and then **shrunk**: the
recorded tie-break schedule is bisected to the shortest prefix that still
reproduces a violation (the suffix falls back to deterministic FIFO), so
counterexamples replay from a handful of choices instead of thousands.

``repro verify`` (see :mod:`repro.cli`) is a thin front-end over
:func:`fuzz` and :func:`verify_trace_file`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.farm.coordinator import run_jobs
from repro.farm.jobs import FarmJob, derive_seed
from repro.obs.metrics import MetricsRegistry, registry_from_run
from repro.tempest.tracefile import load_session
from repro.util.config import MachineConfig
from repro.verify.interleave import ReplayPolicy, SeededRandomPolicy, explore_dfs
from repro.verify.monitor import CoherenceViolation
from repro.verify.oracle import Observables, differential_check, run_workload
from repro.verify.workload import (
    ALL_PROTOCOLS,
    Workload,
    generate_workload,
)

FUZZ_SCHEMA = "repro.fuzz/v1"


@dataclass
class ViolationRecord:
    """One caught violation plus its minimized replay schedule."""

    seed: int
    protocol: str
    violation: CoherenceViolation
    minimized_schedule: list[int] | None = None
    shrink_runs: int = 0

    def report(self) -> str:
        lines = [self.violation.report()]
        if self.minimized_schedule is not None:
            lines.append(
                f"  minimized: {len(self.minimized_schedule)} choice(s) "
                f"{self.minimized_schedule} (shrunk in {self.shrink_runs} reruns)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "protocol": self.protocol,
            "violation": self.violation.to_dict(),
            "minimized_schedule": self.minimized_schedule,
            "shrink_runs": self.shrink_runs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ViolationRecord":
        return cls(
            seed=data["seed"], protocol=data["protocol"],
            violation=CoherenceViolation.from_dict(data["violation"]),
            minimized_schedule=data["minimized_schedule"],
            shrink_runs=data["shrink_runs"],
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz campaign."""

    seeds: int = 0
    runs: int = 0
    protocols: tuple = ALL_PROTOCOLS
    violations: list[ViolationRecord] = field(default_factory=list)
    #: per-run simulator metrics, labelled by protocol, merged across seeds
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"fuzzed {self.seeds} seed(s), {self.runs} run(s) across "
            f"protocols {', '.join(self.protocols)} in {self.elapsed:.1f}s"
        ]
        if self.ok:
            lines.append("no coherence violations found")
        else:
            lines.append(f"{len(self.violations)} VIOLATION(S):")
            for rec in self.violations:
                lines.append(rec.report())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Canonical JSON-safe report — everything except wall-clock time.

        This is the determinism surface: a farmed campaign's ``to_dict``
        must equal the sequential campaign's byte for byte (``elapsed`` is
        host time, so it is deliberately excluded).
        """
        return {
            "schema": FUZZ_SCHEMA,
            "seeds": self.seeds,
            "runs": self.runs,
            "protocols": list(self.protocols),
            "ok": self.ok,
            "violations": [rec.to_dict() for rec in self.violations],
            "metrics": self.metrics.to_dict(),
        }


def shrink_schedule(
    fails: Callable[[list[int]], bool], schedule: list[int]
) -> tuple[list[int], int]:
    """Bisect ``schedule`` to a minimal failing prefix.

    ``fails(prefix)`` reruns the workload with ``prefix`` as the tie-break
    schedule (FIFO beyond it) and reports whether a violation reproduces.
    Returns ``(minimal_prefix, reruns)``.
    """
    runs = 0

    def check(prefix: list[int]) -> bool:
        nonlocal runs
        runs += 1
        return fails(prefix)

    if check([]):
        return [], runs
    lo, hi = 0, len(schedule)  # invariant: fails at hi, passes at lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if check(schedule[:mid]):
            hi = mid
        else:
            lo = mid
    minimal = schedule[:hi]
    # a trailing 0 is the FIFO default — dropping it cannot change the run,
    # but confirm by rerun in case the bisection landed on a fluke
    while minimal and minimal[-1] == 0 and check(minimal[:-1]):
        minimal = minimal[:-1]
    return minimal, runs


def _fails_with(workload: Workload, protocol: str) -> Callable[[list[int]], bool]:
    def fails(prefix: list[int]) -> bool:
        try:
            run_workload(workload, protocol, ReplayPolicy(prefix))
        except CoherenceViolation:
            return True
        return False

    return fails


def fuzz_seed_job(spec: dict) -> dict:
    """Run one seed's complete fuzz work; a pure function of ``spec``.

    ``spec`` is transport-safe (``{"seed", "protocols", "shrink"}``, plus
    the optional corpus envelope: ``"warm"`` maps protocol names to
    schedule records seeded before the run, ``"harvest"`` asks the job to
    return the learned records) and the result is a JSON-safe dict — this
    is the unit the campaign farm ships to workers, and the exact same
    function the sequential path folds, which is what makes ``--jobs N``
    reports byte-identical to ``--jobs 1``.  Warm envelopes are computed
    coordinator-side (the worker never opens the corpus), so a farmed
    campaign warms identically however the seeds are sharded.

    Each protocol's tie-break stream is seeded with
    ``derive_seed(seed, protocol)``: a stable hash of the run's identity,
    so protocols no longer share one interleaving stream and a sharded
    campaign explores exactly the orders the sequential one would.
    """
    seed = int(spec["seed"])
    protocols = tuple(spec["protocols"])
    shrink = bool(spec["shrink"])
    warm = spec.get("warm", {})
    harvest = bool(spec.get("harvest"))
    workload = generate_workload(seed)
    run_protocols = [p for p in workload.protocols if p in protocols]
    registry = MetricsRegistry()
    out: dict = {"seed": seed, "runs": 0, "violations": [], "progress": [],
                 "harvest": {}}
    observed: dict[str, Observables] = {}
    for protocol in run_protocols:
        policy = SeededRandomPolicy(derive_seed(seed, protocol))
        out["runs"] += 1
        try:
            obs = run_workload(workload, protocol, policy,
                               warm=warm.get(protocol), harvest=harvest)
        except CoherenceViolation as violation:
            rec = ViolationRecord(seed=seed, protocol=protocol, violation=violation)
            if shrink and violation.schedule:
                rec.minimized_schedule, rec.shrink_runs = shrink_schedule(
                    _fails_with(workload, protocol), violation.schedule
                )
            elif shrink:
                rec.minimized_schedule, rec.shrink_runs = [], 0
            out["violations"].append(rec.to_dict())
            out["progress"].append(
                f"seed {seed} [{protocol}]: VIOLATION ({violation.invariant})"
            )
            continue
        observed[protocol] = obs
        registry.update(registry_from_run(obs.stats, protocol=protocol))
        if harvest and obs.harvest:
            out["harvest"][protocol] = obs.harvest
    if observed:
        try:
            differential_check(workload, observed)
        except CoherenceViolation as violation:
            out["violations"].append(
                ViolationRecord(seed=seed, protocol=violation.protocol,
                                violation=violation).to_dict()
            )
            out["progress"].append(f"seed {seed}: DIFFERENTIAL mismatch")
    out["metrics"] = registry.to_dict()
    return out


def _fold_seed_result(report: FuzzReport, result: dict,
                      progress: Callable[[str], None] | None) -> None:
    """Fold one :func:`fuzz_seed_job` result into the campaign report."""
    report.seeds += 1
    report.runs += result["runs"]
    for rec in result["violations"]:
        report.violations.append(ViolationRecord.from_dict(rec))
    report.metrics.update(MetricsRegistry.from_dict(result["metrics"]))
    if progress:
        for message in result["progress"]:
            progress(message)


def fuzz(
    seeds: int = 50,
    protocols: Sequence[str] | None = None,
    first_seed: int = 0,
    shrink: bool = True,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    tracer=None,
    corpus=None,
) -> FuzzReport:
    """Fuzz ``seeds`` workloads under adversarial interleavings.

    ``jobs > 1`` shards the seeds across a local worker farm
    (:func:`repro.farm.coordinator.run_farm`).  The folded report's :meth:`~FuzzReport.to_dict` is byte-identical to the
    sequential one.  ``tracer`` (farm runs only) receives the farm's
    lifecycle events.  ``corpus`` (a :func:`repro.corpus.open_corpus`
    handle) warm-starts each seed's schedule-learning protocols from
    persisted schedules and harvests what the fault-free runs learned back
    into the store; all corpus traffic happens coordinator-side, so farmed
    and sequential campaigns warm identically and workers stay stateless.
    """
    report = FuzzReport(protocols=tuple(protocols) if protocols else ALL_PROTOCOLS)
    t0 = time.perf_counter()
    specs = [
        {"seed": seed, "protocols": list(report.protocols), "shrink": shrink}
        for seed in range(first_seed, first_seed + seeds)
    ]
    #: seed -> protocol -> (corpus key, n_nodes), for the harvest fold
    corpus_keys: dict[int, dict[str, tuple[str, int]]] = {}
    if corpus is not None:
        from repro.corpus import supports_warm, workload_key

        for spec in specs:
            workload = generate_workload(spec["seed"])
            spec["harvest"] = True
            spec["warm"] = {}
            keys = corpus_keys[spec["seed"]] = {}
            for protocol in report.protocols:
                if protocol not in workload.protocols:
                    continue
                if not supports_warm(protocol):
                    continue
                key = workload_key(workload, protocol)
                keys[protocol] = (key, workload.config.n_nodes)
                entry = corpus.lookup(key, workload.config.n_nodes)
                if entry is not None:
                    spec["warm"][protocol] = entry["records"]
    results = run_jobs(
        [FarmJob(index=i, kind="fuzz-seed", params=spec)
         for i, spec in enumerate(specs)],
        jobs, tracer=tracer, progress=progress)
    for i, result in enumerate(results):
        _fold_seed_result(report, result, progress)
        if corpus is not None:
            _store_harvest(corpus, result,
                           corpus_keys.get(result["seed"], {}))
        if progress and i % 25 == 24:
            progress(f"... {i + 1}/{seeds} seeds")
    report.elapsed = time.perf_counter() - t0
    return report


def _store_harvest(corpus, result: dict,
                   keys: dict[str, tuple[str, int]]) -> None:
    """Persist one seed job's learned schedules (fault-free learning only)."""
    for protocol, records in sorted((result.get("harvest") or {}).items()):
        known = keys.get(protocol)
        if known is None or not records:
            continue
        key, n_nodes = known
        corpus.store(key, {"protocol": protocol, "n_nodes": n_nodes,
                           "records": records})


def replay_seed(seed: int, protocols: Sequence[str] | None = None) -> FuzzReport:
    """Re-run exactly one seed (the replay path printed in violations)."""
    return fuzz(seeds=1, first_seed=seed, protocols=protocols)


def dfs_explore_seed(
    seed: int,
    protocol: str,
    max_runs: int = 64,
    max_depth: int = 10,
) -> tuple[int, list[ViolationRecord]]:
    """Systematically enumerate interleavings of one workload (bounded DFS).

    Returns ``(schedules_executed, violations)``.  A protocol the workload's
    dialect does not support (write-update needs home-owned writes) explores
    zero schedules.
    """
    workload = generate_workload(seed)
    if protocol not in workload.protocols:
        return 0, []
    violations: list[ViolationRecord] = []
    executed = 0

    def run_once(policy):
        return run_workload(workload, protocol, policy)

    gen = explore_dfs(run_once, max_runs=max_runs, max_depth=max_depth)
    while True:
        try:
            next(gen)
        except StopIteration:
            break
        except CoherenceViolation as violation:
            rec = ViolationRecord(seed=seed, protocol=protocol, violation=violation)
            rec.minimized_schedule, rec.shrink_runs = shrink_schedule(
                _fails_with(workload, protocol), violation.schedule
            )
            violations.append(rec)
            break
        executed += 1
    return executed, violations


# -- bundled-trace verification --------------------------------------------------


def verify_trace_file(
    path: str | Path,
    protocols: Sequence[str] = ALL_PROTOCOLS,
    config: MachineConfig | None = None,
    seeds_per_protocol: int = 2,
) -> FuzzReport:
    """Replay a saved session file under each protocol + several orders.

    The session must carry its recorded regions (``record_regions``) so homes
    can be restored.  Each protocol runs once in FIFO order and then under
    ``seeds_per_protocol`` seeded-random interleavings, all monitored.
    """
    events, regions = load_session(path)
    n_nodes = next(len(ev[1].ops) for ev in events if ev[0] == "phase")
    cfg = config or MachineConfig(n_nodes=n_nodes, block_size=32, page_size=128)
    report = FuzzReport(protocols=tuple(protocols))
    t0 = time.perf_counter()
    workload = Workload(seed=-1, config=cfg, events=events, regions=regions,
                        protocols=tuple(protocols))
    observed: dict[str, Observables] = {}
    for protocol in protocols:
        policies = [None] + [SeededRandomPolicy(s) for s in range(seeds_per_protocol)]
        for policy in policies:
            report.runs += 1
            try:
                obs = run_workload(workload, protocol, policy)
            except CoherenceViolation as violation:
                report.violations.append(
                    ViolationRecord(seed=-1, protocol=protocol, violation=violation)
                )
                continue
            observed[protocol] = obs
            report.metrics.update(registry_from_run(obs.stats, protocol=protocol))
    if observed:
        try:
            differential_check(workload, observed)
        except CoherenceViolation as violation:
            report.violations.append(
                ViolationRecord(seed=-1, protocol=violation.protocol,
                                violation=violation)
            )
    report.seeds = 1
    report.elapsed = time.perf_counter() - t0
    return report
