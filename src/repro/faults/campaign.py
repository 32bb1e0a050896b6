"""Fault campaigns: verify coherence survives every fault plan, and shrink
the plans that break it.

A campaign is the robustness mirror of :func:`repro.verify.fuzz.fuzz`: it
runs workloads (generated fuzz sessions plus the bundled ``examples/traces``
sessions) under each fault plan and protocol with the invariant monitor
attached, cross-checks survivors against the trace-determined ground truth
(the *fault-free* memory image — faults may slow a run down, never change
what it computes), and expects the deliberately unrecoverable plan to fail
fast with a structured :class:`~repro.util.errors.TransportTimeout`.

A failing stochastic run is replayed through a **scripted** plan built from
its recorded injection history, then minimized by :func:`shrink_events` —
the fault-domain analogue of the tie-break schedule bisection in
:func:`repro.verify.fuzz.shrink_schedule`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.farm.coordinator import run_jobs
from repro.farm.jobs import FarmJob, derive_seed
from repro.faults.plan import (
    BUNDLED_PLANS,
    CRASH_PLANS,
    UNRECOVERABLE_PLAN,
    FaultEvent,
    FaultPlan,
    save_plan,
)
from repro.obs.metrics import MetricsRegistry, registry_from_run
from repro.tempest.tracefile import load_session
from repro.util.config import MachineConfig
from repro.util.errors import TransportTimeout
from repro.verify.monitor import CoherenceViolation
from repro.verify.oracle import (
    Observables,
    deserialize_observables,
    differential_check,
    run_workload,
    serialize_observables,
)
from repro.verify.workload import ALL_PROTOCOLS, Workload, generate_workload

#: default location of the bundled sessions, relative to the repo root
DEFAULT_TRACES_DIR = Path("examples/traces")

FAULTS_SCHEMA = "repro.faultcampaign/v1"


@dataclass
class FaultFailure:
    """One workload x plan x protocol combination that broke."""

    plan: str
    protocol: str
    workload: str
    violation: CoherenceViolation
    injected: int = 0
    minimized_events: list | None = None
    shrink_runs: int = 0
    #: ready-to-replay scripted plan (the minimal script when shrinking
    #: succeeded, else the full recorded history); save_plan-able
    scripted_plan: FaultPlan | None = None

    def report(self) -> str:
        lines = [
            f"[{self.plan} / {self.protocol} / {self.workload}] "
            f"{self.injected} fault(s) injected:",
            self.violation.report(),
        ]
        if self.minimized_events is not None:
            lines.append(
                f"  minimal reproducer: {len(self.minimized_events)} fault "
                f"event(s) (shrunk in {self.shrink_runs} reruns):"
            )
            for ev in self.minimized_events:
                lines.append(f"    - {ev.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "plan": self.plan,
            "protocol": self.protocol,
            "workload": self.workload,
            "violation": self.violation.to_dict(),
            "injected": self.injected,
            "minimized_events": (
                [ev.to_dict() for ev in self.minimized_events]
                if self.minimized_events is not None else None
            ),
            "shrink_runs": self.shrink_runs,
            "scripted_plan": (self.scripted_plan.to_dict()
                              if self.scripted_plan is not None else None),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultFailure":
        return cls(
            plan=data["plan"], protocol=data["protocol"],
            workload=data["workload"],
            violation=CoherenceViolation.from_dict(data["violation"]),
            injected=data["injected"],
            minimized_events=(
                [FaultEvent.from_dict(ev) for ev in data["minimized_events"]]
                if data["minimized_events"] is not None else None
            ),
            shrink_runs=data["shrink_runs"],
            scripted_plan=(FaultPlan.from_dict(data["scripted_plan"])
                           if data["scripted_plan"] is not None else None),
        )


@dataclass
class FaultCampaignReport:
    """Aggregate outcome of one fault campaign."""

    plans: int = 0
    workloads: int = 0
    runs: int = 0
    failures: list[FaultFailure] = field(default_factory=list)
    #: None = not checked; True = failed fast with full context as required
    unrecoverable_ok: bool | None = None
    #: per-run simulator metrics labelled by (plan, protocol), merged
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures and self.unrecoverable_ok is not False

    def to_dict(self) -> dict:
        """Canonical JSON-safe report, excluding wall-clock ``elapsed``.

        The determinism surface for the campaign farm: a ``--jobs N`` run's
        ``to_dict`` must equal the sequential run's byte for byte.
        """
        return {
            "schema": FAULTS_SCHEMA,
            "plans": self.plans,
            "workloads": self.workloads,
            "runs": self.runs,
            "ok": self.ok,
            "unrecoverable_ok": self.unrecoverable_ok,
            "failures": [fail.to_dict() for fail in self.failures],
            "metrics": self.metrics.to_dict(),
        }

    def summary(self) -> str:
        lines = [
            f"fault campaign: {self.plans} plan(s) x {self.workloads} "
            f"workload(s), {self.runs} run(s) in {self.elapsed:.1f}s"
        ]
        if self.unrecoverable_ok is not None:
            lines.append(
                "unrecoverable plan: "
                + ("failed fast with structured context (as required)"
                   if self.unrecoverable_ok
                   else "DID NOT fail as required")
            )
        if not self.failures:
            lines.append("no coherence violations under any fault plan")
        else:
            lines.append(f"{len(self.failures)} FAILURE(S):")
            for fail in self.failures:
                lines.append(fail.report())
        return "\n".join(lines)


def shrink_events(
    fails: Callable[[list], bool], events: Sequence, max_runs: int = 64
) -> tuple[list | None, int]:
    """Minimize a failing injection history (greedy delta debugging).

    ``fails(subset)`` reruns the workload under a scripted plan containing
    exactly ``subset`` and reports whether a violation reproduces.  Returns
    ``(minimal_events, reruns)`` — or ``(None, reruns)`` when even the full
    scripted history does not reproduce (a run the script cannot capture,
    e.g. genuinely policy-dependent), in which case minimization is skipped.
    """
    events = list(events)
    runs = 0

    def check(subset: list) -> bool:
        nonlocal runs
        runs += 1
        return fails(subset)

    if not events or not check(events):
        # empty history, or the scripted replay does not reproduce —
        # nothing trustworthy to minimize
        return None, runs
    chunk = max(1, len(events) // 2)
    while runs < max_runs:
        i = 0
        reduced = False
        while i < len(events) and runs < max_runs:
            candidate = events[:i] + events[i + chunk:]
            if len(candidate) < len(events) and check(candidate):
                events = candidate
                reduced = True
            else:
                i += chunk
        if not reduced and chunk == 1:
            break
        if not reduced:
            chunk = max(1, chunk // 2)
    return events, runs


def _load_trace_workload(path: Path) -> Workload:
    events, regions = load_session(path)
    n_nodes = next(len(ev[1].ops) for ev in events if ev[0] == "phase")
    cfg = MachineConfig(n_nodes=n_nodes, block_size=32, page_size=128)
    return Workload(seed=-1, config=cfg, events=events, regions=regions,
                    protocols=tuple(ALL_PROTOCOLS))


def _resolve_workload(wspec: dict) -> Workload:
    """Rebuild a cell's workload from its transport-safe description."""
    if wspec["type"] == "seed":
        return generate_workload(wspec["seed"])
    return _load_trace_workload(Path(wspec["path"]))


def _dump_script(directory: str | Path, fail: FaultFailure) -> Path:
    """Archive one failure's scripted reproducer as JSON."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{fail.plan}_{fail.protocol}_{fail.workload}".replace(".", "-")
    path = directory / f"{stem}.json"
    save_plan(fail.scripted_plan, path)
    return path


def _check_unrecoverable(workload: Workload, protocol: str) -> bool:
    """The hopeless plan must fail fast with full structured context."""
    try:
        run_workload(workload, protocol, fault_plan=UNRECOVERABLE_PLAN)
    except CoherenceViolation as violation:
        cause = violation.__cause__
        return (
            violation.invariant == "transport-timeout"
            and isinstance(cause, TransportTimeout)
            and cause.node is not None
            and cause.block is not None
            and cause.event is not None
        )
    return False


def _build_failure(workload: Workload, w_name: str, plan_name: str,
                   protocol: str, plan: FaultPlan,
                   violation: CoherenceViolation, shrink: bool,
                   warm=None) -> FaultFailure:
    """Capture one failing run: script its injection history and shrink it.

    ``warm`` must be whatever the failing run was seeded with — shrinking
    replays have to reproduce the original machine exactly, corpus
    warm-start included.
    """
    fail = FaultFailure(
        plan=plan_name, protocol=protocol, workload=w_name,
        violation=violation,
        injected=len(getattr(violation, "fault_events", [])),
    )
    if shrink and getattr(violation, "fault_events", None):
        scripted = plan.as_scripted(violation.fault_events)
        fail.scripted_plan = scripted

        def fails(subset) -> bool:
            try:
                run_workload(workload, protocol,
                             fault_plan=scripted.with_(events=tuple(subset)),
                             warm=warm)
            except CoherenceViolation:
                return True
            return False

        fail.minimized_events, fail.shrink_runs = shrink_events(
            fails, violation.fault_events
        )
        if fail.minimized_events is not None:
            fail.scripted_plan = scripted.with_(
                events=tuple(fail.minimized_events)
            )
    return fail


def run_fault_cell(spec: dict) -> dict:
    """Run one campaign cell — (workload x plan x variant) across protocols.

    A pure function of the transport-safe ``spec``; the sequential loop
    and farm workers make this same call, so a farmed campaign's folded
    report is byte-identical to the sequential one.  Returns a JSON-safe
    result dict (``runs``/``failures``/``metrics``).
    """
    workload = _resolve_workload(spec["workload"])
    w_name = spec["workload"]["name"]
    base_plan = FaultPlan.from_dict(spec["plan"])
    plan_name, variant = spec["plan_name"], spec["variant"]
    shrink = spec["shrink"]
    warm_by_protocol = spec.get("warm") or {}
    done: list[dict] = []

    for protocol in spec["protocols"]:
        plan = base_plan.with_(seed=derive_seed(
            base_plan.seed, w_name, plan_name, variant, protocol
        ))
        warm = warm_by_protocol.get(protocol)
        try:
            obs = run_workload(workload, protocol, fault_plan=plan, warm=warm)
        except CoherenceViolation as violation:
            failure = _build_failure(workload, w_name, plan_name, protocol,
                                     plan, violation, shrink, warm=warm)
            done.append({"failure": failure.to_dict()})
            continue
        registry = registry_from_run(obs.stats, plan=plan_name,
                                     protocol=protocol)
        done.append({"failure": None,
                     "obs": serialize_observables(obs),
                     "metrics": registry.to_dict()})
    return _finish_cell(workload, w_name, plan_name, done)


def _finish_cell(workload: Workload, w_name: str, plan_name: str,
                 done: list[dict]) -> dict:
    """Differential-check a cell's survivors and package the cell result."""
    result: dict = {"runs": len(done), "failures": [], "metrics": None}
    registry = MetricsRegistry()
    observed: dict[str, Observables] = {}
    for run_res in done:
        if run_res["failure"] is not None:
            result["failures"].append(run_res["failure"])
        else:
            obs = deserialize_observables(run_res["obs"])
            observed[obs.protocol] = obs
            registry.update(MetricsRegistry.from_dict(run_res["metrics"]))
    if observed:
        try:
            differential_check(workload, observed)
        except CoherenceViolation as violation:
            result["failures"].append(FaultFailure(
                plan=plan_name, protocol=violation.protocol,
                workload=w_name, violation=violation,
            ).to_dict())
    result["metrics"] = registry.to_dict()
    return result


def run_fault_probe(spec: dict) -> dict:
    """The unrecoverable fail-fast probe as a farmable job."""
    workload = _resolve_workload(spec["workload"])
    return {"unrecoverable_ok": _check_unrecoverable(workload, "stache")}


def _fold_cell_result(report: FaultCampaignReport, result: dict,
                      progress: Callable[[str], None] | None,
                      dump_scripts: str | Path | None) -> None:
    """Fold one cell result into the report, in canonical cell order."""
    report.runs += result["runs"]
    for fdict in result["failures"]:
        fail = FaultFailure.from_dict(fdict)
        report.failures.append(fail)
        if dump_scripts is not None and fail.scripted_plan:
            _dump_script(dump_scripts, fail)
        if progress:
            if fail.violation.invariant == "differential":
                progress(f"{fail.plan}/{fail.workload}: DIFFERENTIAL mismatch")
            else:
                progress(f"{fail.plan}/{fail.protocol}/{fail.workload}: "
                         f"FAILURE ({fail.violation.invariant})")
    report.metrics.update(MetricsRegistry.from_dict(result["metrics"]))


def _workload_warm(corpus, workload: Workload, wspec: dict,
                   run_protocols: Sequence[str]) -> dict:
    """Coordinator-side corpus lookups for one workload's warm envelope.

    Derives the same identity (``fuzz/seed<N>`` / ``trace/<name>``) as the
    verify harness, so campaigns warm from exactly what fault-free verify
    runs harvested.
    """
    from repro.corpus import supports_warm, workload_key

    warm: dict = {}
    for protocol in run_protocols:
        if not supports_warm(protocol):
            continue
        entry = corpus.lookup(
            workload_key(workload, protocol, name=wspec.get("name")),
            workload.config.n_nodes,
        )
        if entry is not None:
            warm[protocol] = entry["records"]
    return warm


def run_campaign(
    plans: dict[str, FaultPlan] | None = None,
    seeds: int = 2,
    protocols: Sequence[str] | None = None,
    variants: int = 1,
    traces_dir: str | Path | None = DEFAULT_TRACES_DIR,
    shrink: bool = True,
    check_unrecoverable: bool = True,
    progress: Callable[[str], None] | None = None,
    dump_scripts: str | Path | None = None,
    jobs: int = 1,
    tracer=None,
    corpus=None,
) -> FaultCampaignReport:
    """Run every (plan x workload x protocol) combination under the monitor.

    ``variants`` reseeds each plan that many times per workload, multiplying
    the distinct injection histories explored; every run's injection seed is
    a stable :func:`repro.farm.jobs.derive_seed` hash of the run's identity
    (plan seed, workload, plan name, variant, protocol), so any subset or
    sharding of the campaign injects exactly what the full sequential
    campaign would.  Survivors of each (plan, workload) pair are
    cross-checked against the fault-free ground truth via the differential
    oracle.  ``dump_scripts`` names a directory into which each failure's
    scripted reproducer (shrunk when possible) is written as JSON for
    offline replay (:func:`repro.faults.plan.load_plan`).  ``jobs > 1``
    shards the campaign cells across a local worker farm
    (:func:`repro.farm.coordinator.run_farm`) with a byte-identical folded
    report; ``tracer`` then receives the farm's lifecycle events.
    ``corpus`` warm-starts every cell's schedule-learning protocols from
    the durable corpus (lookups happen coordinator-side, embedded in the
    transport-safe specs, so farmed and sequential campaigns warm
    identically).  Campaigns are **read-only** corpus consumers: what a
    run learns under injected faults is poisoned by them, so nothing is
    harvested back.
    """
    plans = plans if plans is not None else dict(BUNDLED_PLANS)
    report = FaultCampaignReport(plans=len(plans))
    t0 = time.perf_counter()

    workloads: list[tuple[str, Workload, dict]] = [
        (f"seed{s}", generate_workload(s),
         {"type": "seed", "seed": s, "name": f"seed{s}"})
        for s in range(seeds)
    ]
    if traces_dir is not None:
        traces_dir = Path(traces_dir)
        if traces_dir.is_dir():
            for path in sorted(traces_dir.glob("*.trace")):
                workloads.append((path.name, _load_trace_workload(path),
                                  {"type": "trace", "path": str(path),
                                   "name": path.name}))
    report.workloads = len(workloads)

    cells: list[dict] = []
    for w_index, (w_name, workload, wspec) in enumerate(workloads):
        run_protocols = [
            p for p in workload.protocols
            if protocols is None or p in protocols
        ]
        warm = (_workload_warm(corpus, workload, wspec, run_protocols)
                if corpus is not None else {})
        for plan_name, base_plan in plans.items():
            for variant in range(variants):
                cell = {
                    "workload": wspec, "w_index": w_index,
                    "plan_name": plan_name, "plan": base_plan.to_dict(),
                    "variant": variant, "protocols": run_protocols,
                    "shrink": shrink,
                }
                if warm:
                    cell["warm"] = warm
                cells.append(cell)
    probe = ({"workload": workloads[0][2]}
             if check_unrecoverable and workloads else None)

    farm_jobs = [
        FarmJob(index=i, kind="fault-cell", params=spec)
        for i, spec in enumerate(cells)
    ]
    if probe is not None:
        farm_jobs.append(FarmJob(index=len(cells), kind="fault-probe",
                                 params=probe))
    results = run_jobs(farm_jobs, jobs, tracer=tracer, progress=progress)

    last_w = -1
    for i, result in enumerate(results):
        if "unrecoverable_ok" in result:
            report.unrecoverable_ok = result["unrecoverable_ok"]
            report.runs += 1
            continue
        w_index = cells[i]["w_index"]
        if progress and last_w >= 0 and w_index != last_w:
            progress(f"... workload {last_w + 1}/{len(workloads)} done")
        last_w = w_index
        _fold_cell_result(report, result, progress, dump_scripts)
    if progress and last_w >= 0:
        progress(f"... workload {last_w + 1}/{len(workloads)} done")

    report.elapsed = time.perf_counter() - t0
    return report
