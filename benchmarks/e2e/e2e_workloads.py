"""The six end-to-end workloads, written against the bound surface only.

Each workload is ``setup`` (imports, spec/plan/calibration construction —
reported as ``setup_s``), ``body`` (first bound-surface call to last check —
reported as ``wall_s``) and an optional untimed ``post`` (the model's
held-out simulator comparison).  Bodies call one level below argparse and
touch nothing but the bound surface listed in README.md, so internal
refactors of the program do not break the benchmark.

Why these six and why these sizes is recorded next to each entry of
:data:`WORKLOADS`; README.md carries the same table with the layer each one
stresses.  Sizes are for 2 cores / CPython 3.11; ``smoke`` sizes (≤1 s each)
exist only for the self-tests.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from e2e_spans import NULL

ROOT = Path(__file__).resolve().parents[2]
CALIBRATION = ROOT / "benchmarks" / "MODEL_calibration.json"

#: held-out model-vs-simulator wall budget (the repo's own model WALL_BUDGET)
HELDOUT_WALL_BUDGET = 0.10

#: the frozen Figure-7 Water inputs (build kwargs, MachineConfig kwargs),
#: shared by model_sweep and the traced run's obs/corpus probes
WATER_KW = dict(n=96, iterations=4, work_scale=60.0)
WATER_CFG = dict(n_nodes=8, page_size=512, per_byte_cost=0.6)


def fast_kwargs(fn: Callable) -> dict:
    """``{"fast": True}`` while ``fn`` still takes the flag, else ``{}``.

    Every simulator workload runs the fastest bit-identical production
    path.  The probe looks at the signature, never at a workload name, so
    the "one engine" refactor that deletes ``fast=`` needs no edit here.
    """
    return {"fast": True} if "fast" in inspect.signature(fn).parameters else {}


def engine_path(*fns: Callable) -> str:
    """Provenance string for the engine path the probed callables select."""
    return "fast=True" if any(fast_kwargs(fn) for fn in fns) else "default"


def canonical_sha256(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Outcome:
    """What one body run produced: op accounting plus the exact metrics."""

    ops: int = 0
    failed_ops: int = 0
    failures: list = field(default_factory=list)
    sim_cycles: float = 0.0
    remote_misses: int = 0
    #: workload-specific exact results (report digests, registry counters)
    extra: dict = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failed_ops += 1
            self.failures.append(what)

    def bar(self, label: str, stats) -> None:
        """One simulated bar: an op that must end with a positive wall."""
        self.sim_cycles += stats.wall_time
        self.remote_misses += stats.misses
        self.op(math.isfinite(stats.wall_time) and stats.wall_time > 0,
                f"{label}: wall {stats.wall_time!r}")

    def to_dict(self) -> dict:
        return {"ops": self.ops, "failed_ops": self.failed_ops,
                "failures": self.failures[:20],
                "sim_cycles": self.sim_cycles,
                "remote_misses": self.remote_misses, "extra": self.extra}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict  # profile -> size parameters handed to setup
    setup: Callable  # (seed, size) -> inputs
    body: Callable  # (inputs, tracer) -> Outcome
    post: Callable | None = None  # (inputs, outcome) -> None, untimed
    #: ops charged to a child that crashed before reporting its own count
    nominal_ops: dict = field(default_factory=dict)


# -- figures -------------------------------------------------------------------


def _figures_setup(seed: int, size: dict) -> dict:
    from repro.bench import figures as F

    pairs = [(F.fig5_adaptive, F.check_fig5), (F.fig6_barnes, F.check_fig6),
             (F.fig7_water, F.check_fig7)][:size["figures"]]
    return {"pairs": pairs, "engine_path": engine_path(pairs[0][0])}


def _figures_body(inp: dict, tracer=NULL) -> Outcome:
    out = Outcome()
    for figure, check in inp["pairs"]:
        with tracer.span("bench.figures"):
            fig = figure(jobs=1, **fast_kwargs(figure))
        for version in fig.versions:
            out.bar(f"{fig.name} {version.spec.label}", version.stats)
        try:
            with tracer.span("bench.figures"):
                check(fig)
        except AssertionError as exc:
            out.op(False, f"{check.__name__}: {exc!r}")
        else:
            out.op(True, check.__name__)
    return out


# -- scale ---------------------------------------------------------------------


def _scale_setup(seed: int, size: dict) -> dict:
    from repro.apps import adaptive, water
    from repro.bench.harness import VersionSpec, run_specs
    from repro.util.config import MachineConfig

    a_cfg = MachineConfig(n_nodes=size["adaptive_nodes"], page_size=512,
                          per_byte_cost=0.6)
    a_kw = dict(size=size["adaptive_mesh"], iterations=size["adaptive_iters"],
                threshold=0.05, work_scale=8.0)
    w_cfg = MachineConfig(n_nodes=size["water_nodes"], page_size=512,
                          per_byte_cost=0.6)
    w_kw = dict(n=size["water_n"], iterations=size["water_iters"],
                work_scale=60.0)
    groups = {
        "adaptive": [
            VersionSpec("adaptive unopt (32)", adaptive, "stache", False,
                        a_cfg.with_(block_size=32), a_kw),
            VersionSpec("adaptive unopt (256)", adaptive, "stache", False,
                        a_cfg.with_(block_size=256), a_kw),
            VersionSpec("adaptive opt (32)", adaptive, "predictive", True,
                        a_cfg.with_(block_size=32), a_kw),
            VersionSpec("adaptive opt (256)", adaptive, "predictive", True,
                        a_cfg.with_(block_size=256), a_kw),
        ],
        "water": [
            VersionSpec("water unopt (64)", water, "stache", False,
                        w_cfg.with_(block_size=64), w_kw),
            VersionSpec("water opt (32)", water, "predictive", True,
                        w_cfg.with_(block_size=32), w_kw),
        ],
    }
    return {"groups": groups, "run_specs": run_specs,
            "engine_path": engine_path(run_specs)}


def _scale_body(inp: dict, tracer=NULL) -> Outcome:
    out = Outcome()
    run_specs = inp["run_specs"]
    for app, specs in inp["groups"].items():
        with tracer.span("bench.harness"):
            results = run_specs(specs, jobs=1, **fast_kwargs(run_specs))
        for result in results:
            out.bar(result.spec.label, result.stats)
        opt = [r for r in results if r.spec.optimized]
        unopt = [r for r in results if not r.spec.optimized]
        out.op(min(r.wall for r in opt) < min(r.wall for r in unopt),
               f"{app}: best optimized wall < best unoptimized wall")
        wait = "Remote data wait"
        out.op(min(r.breakdown()[wait] for r in opt)
               < min(r.breakdown()[wait] for r in unopt),
               f"{app}: optimized remote wait < unoptimized remote wait")
    return out


# -- engine_lockstep -----------------------------------------------------------


def _lockstep_setup(seed: int, size: dict) -> dict:
    from repro.core import make_machine
    from repro.tempest.machine import PhaseTrace
    from repro.util.config import MachineConfig

    nodes, ops = size["nodes"], size["ops_per_node"]
    return {
        "make_machine": make_machine,
        "config": MachineConfig(n_nodes=nodes),
        "trace": PhaseTrace("lockstep",
                            [[("c", 1.0)] * ops for _ in range(nodes)]),
        "expected": nodes * ops,
        "engine_path": engine_path(make_machine),
    }


def _lockstep_body(inp: dict, tracer=NULL) -> Outcome:
    out = Outcome()
    make_machine = inp["make_machine"]
    machine = make_machine(inp["config"], "predictive",
                           **fast_kwargs(make_machine))
    machine.run_phase(inp["trace"])
    stats = machine.finish()
    out.bar("lockstep", stats)
    dispatched = machine.engine.total_dispatched
    out.op(dispatched == inp["expected"],
           f"dispatched {dispatched} != {inp['expected']}")
    return out


# -- campaign / campaign_farm --------------------------------------------------


def _campaign_setup(seed: int, size: dict) -> dict:
    from repro.faults import BUNDLED_PLANS, CRASH_PLANS, run_campaign
    from repro.verify.fuzz import fuzz

    return {
        "fuzz": fuzz, "run_campaign": run_campaign,
        "bundled": dict(BUNDLED_PLANS), "crash": dict(CRASH_PLANS),
        "first_seed": seed * 100_000, "size": size,
        "engine_path": engine_path(run_campaign),
    }


def _registry_total(doc: dict, name: str) -> float:
    """Sum one series of a ``repro.metrics/v1`` document over all labels."""
    return sum(m["sum"] if m["type"] == "histogram" else m["value"]
               for m in doc["metrics"] if m["name"] == name)


def _campaign_body(inp: dict, tracer=NULL) -> Outcome:
    out = Outcome()
    size, jobs = inp["size"], inp["size"]["jobs"]
    run_campaign = inp["run_campaign"]
    common = dict(traces_dir=None, shrink=False, jobs=jobs,
                  **fast_kwargs(run_campaign))
    with tracer.span("verify.fuzz"):
        fuzzed = inp["fuzz"](seeds=size["fuzz_seeds"],
                             first_seed=inp["first_seed"], shrink=False,
                             jobs=jobs)
    with tracer.span("faults.campaign"):
        bundled = run_campaign(inp["bundled"], seeds=size["fault_seeds"],
                               variants=size["variants"], **common)
    with tracer.span("recovery.crash_campaign"):
        crash = run_campaign(inp["crash"], seeds=size["crash_seeds"],
                             variants=size["variants"], **common)
    digests, counters = {}, {}
    for label, report, failed_key in (("fuzz", fuzzed, "violations"),
                                      ("faults", bundled, "failures"),
                                      ("crash", crash, "failures")):
        doc = report.to_dict()
        out.ops += doc["runs"]
        out.failed_ops += len(doc[failed_key])
        out.failures += [f"{label}: {f}" for f in doc[failed_key][:5]]
        out.op(bool(report.ok), f"{label} report not ok")
        digests[label] = canonical_sha256(doc)
        registry = doc["metrics"]
        # campaign reports carry merged registries, not RunStats: simulated
        # cycles are the sum of every phase's wall cycles
        out.sim_cycles += _registry_total(registry, "phase.wall_cycles")
        out.remote_misses += int(_registry_total(registry, "node.read_misses")
                                 + _registry_total(registry, "node.write_misses"))
        counters[label] = {
            "runs": doc["runs"],
            **{key: _registry_total(registry, f"node.{key}")
               for key in ("transport_retries", "transport_timeouts",
                           "duplicates_suppressed", "crashes",
                           "reissued_requests")},
        }
    out.extra = {"digests": digests, "counters": counters}
    return out


# -- model_sweep ---------------------------------------------------------------

_MODEL_VERSIONS = (("stache", False), ("predictive", True))


def _model_setup(seed: int, size: dict) -> dict:
    from repro.apps import adaptive, barnes, water
    from repro.bench.sweeps import sweep_grid
    from repro.model import load_calibration
    from repro.util.config import MachineConfig

    # the frozen Figure 5/6/7 inputs (repro.bench.figures), restated here so
    # the workload depends on values, not on that module's constant names
    apps = {
        "water": (water, WATER_KW, MachineConfig(**WATER_CFG)),
        "adaptive": (adaptive, dict(size=16, iterations=10, threshold=0.05,
                                    work_scale=8.0),
                     MachineConfig(n_nodes=8, page_size=512,
                                   per_byte_cost=0.6)),
        "barnes": (barnes, dict(n=128, iterations=3, theta=0.6, dt=0.15,
                                vel_scale=1.0, work_scale=5.0),
                   MachineConfig(n_nodes=8, page_size=1024,
                                 per_byte_cost=1.15)),
    }
    apps = {name: apps[name] for name in size["apps"]}
    rng = random.Random(seed)
    heldout = []
    for _ in range(size["heldout"]):
        name = rng.choice(sorted(apps))
        heldout.append({
            "app": name, "version": rng.choice(_MODEL_VERSIONS),
            "point": {axis: [rng.choice(values)]
                      for axis, values in size["heldout_axes"].items()},
        })
    return {
        "sweep_grid": sweep_grid, "apps": apps, "axes": size["axes"],
        "calibration": load_calibration(CALIBRATION), "heldout": heldout,
        "engine_path": engine_path(sweep_grid),
    }


def _model_grid(inp: dict, name: str, version: tuple, axes: dict,
                backend: str, tracer=NULL) -> list[dict]:
    app, build_kwargs, config = inp["apps"][name]
    protocol, optimized = version
    sweep_grid = inp["sweep_grid"]
    extra = ({"calibration": inp["calibration"]} if backend == "model"
             else fast_kwargs(sweep_grid))
    with tracer.span("bench.sweeps"):
        return sweep_grid(app, build_kwargs, base_config=config, axes=axes,
                          backend=backend, protocol=protocol,
                          optimized=optimized, **extra)["rows"]


def _model_body(inp: dict, tracer=NULL) -> Outcome:
    out = Outcome()
    points = 0
    for name in inp["apps"]:
        for version in _MODEL_VERSIONS:
            for row in _model_grid(inp, name, version, inp["axes"], "model",
                                   tracer):
                points += 1
                wall = row["wall_time"]
                out.op(math.isfinite(wall) and wall > 0,
                       f"{name}/{version[0]} point {row}: wall {wall!r}")
    out.extra["points"] = points
    return out


def _model_post(inp: dict, out: Outcome) -> None:
    """Simulate the seed-drawn held-out points; compare to the model.

    ``sim_cycles``/``remote_misses`` of this workload come from these
    simulator runs only — never from model output.
    """
    worst = 0.0
    for held in inp["heldout"]:
        args = (inp, held["app"], held["version"], held["point"])
        model = _model_grid(*args, "model")[0]
        sim = _model_grid(*args, "sim")[0]
        out.sim_cycles += sim["wall_time"]
        out.remote_misses += sim["misses"]
        err = abs(model["wall_time"] - sim["wall_time"]) / sim["wall_time"]
        worst = max(worst, err)
        out.op(err <= HELDOUT_WALL_BUDGET,
               f"held-out {held['app']}/{held['version'][0]} {held['point']}: "
               f"model wall off by {err:.1%}")
    out.extra["heldout_wall_err_pct"] = worst * 100.0


# -- registry ------------------------------------------------------------------

_COST_AXES = {
    "msg_latency": [250, 1000, 4000],
    "per_byte_cost": [0.15, 0.3, 0.6, 1.2],
    "fault_cost": [50, 100, 200],
}
#: held-out points are drawn where the committed calibration is valid: every
#: one of the 576 points of this sub-grid was simulated once and is within
#: HELDOUT_WALL_BUDGET (worst 7.4%), so no seed can draw a failing point and
#: the comparison is a regression guard — a model or simulator change that
#: moves one of them past the budget fails — not a fresh accuracy estimate.
#: At the timed grid's edges the model drifts (Water 9.8% at latency 4000,
#: Barnes 12-30% at 250/500, Water 12% at 8000): timed, never checked
_HELDOUT_COST_AXES = dict(_COST_AXES, msg_latency=[1000, 2000])
_SMOKE_AXES = dict(block_size=[32, 64], msg_latency=[1000, 2000],
                   per_byte_cost=[0.3, 0.6], fault_cost=[50, 100, 200])
_CAMPAIGN_FULL = dict(fuzz_seeds=200, fault_seeds=8, crash_seeds=4, variants=3)
_CAMPAIGN_SMOKE = dict(fuzz_seeds=20, fault_seeds=2, crash_seeds=1, variants=1)
_CAMPAIGN_NOMINAL = {"full": 950, "smoke": 100}

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "figures",
        "The user-visible reproduction (Figures 5-7, 12 bars, all three "
        "protocols): value pass and timing pass each do about half the work "
        "and app physics is re-executed per bar.",
        {"full": {"figures": 3}, "smoke": {"figures": 1}},
        _figures_setup, _figures_body,
        nominal_ops={"full": 15, "smoke": 5},
    ),
    Workload(
        "scale",
        "Toward paper geometry (4x mesh, 2x molecules, 2-4x nodes): events "
        "and directory footprint outgrow app physics, so engine and protocol "
        "handlers dominate; shows if a win survives a larger working set.",
        {"full": dict(adaptive_mesh=64, adaptive_iters=6, adaptive_nodes=32,
                      water_n=192, water_iters=3, water_nodes=16),
         "smoke": dict(adaptive_mesh=16, adaptive_iters=6, adaptive_nodes=8,
                       water_n=48, water_iters=4, water_nodes=4)},
        _scale_setup, _scale_body,
        nominal_ops={"full": 10, "smoke": 10},
    ),
    Workload(
        "engine_lockstep",
        "Pure engine dispatch, no value pass, protocol message or network: "
        "the bypass workload for every front-end/protocol/model optimisation "
        "and the only unconfounded view of a calendar-queue change.",
        {"full": dict(nodes=8, ops_per_node=400_000),
         "smoke": dict(nodes=8, ops_per_node=50_000)},
        _lockstep_setup, _lockstep_body,
        nominal_ops={"full": 2, "smoke": 2},
    ),
    Workload(
        "campaign",
        "The protocol developer's workload: ~950 tiny adversarial "
        "simulations through verify, faults.transport and recovery; a "
        "handler speed-up that costs the faulty path shows here.",
        {"full": dict(_CAMPAIGN_FULL, jobs=1),
         "smoke": dict(_CAMPAIGN_SMOKE, jobs=1)},
        _campaign_setup, _campaign_body, nominal_ops=_CAMPAIGN_NOMINAL,
    ),
    Workload(
        "campaign_farm",
        "The identical campaign at jobs=2 through repro.farm, report digests "
        "equal to campaign's: isolates farm overhead vs. speed-up and "
        "catches a sequential win that hurts the sharded path.",
        {"full": dict(_CAMPAIGN_FULL, jobs=2),
         "smoke": dict(_CAMPAIGN_SMOKE, jobs=2)},
        _campaign_setup, _campaign_body, nominal_ops=_CAMPAIGN_NOMINAL,
    ),
    Workload(
        "model_sweep",
        "The what-if user's workload: 864 model grid points through "
        "record/walk/assemble with no event loop; 3 seed-drawn simulated "
        "points of a pre-validated sub-grid guard the model against "
        "regression.",
        {"full": dict(apps=["water", "adaptive", "barnes"], heldout=3,
                      axes=dict(block_size=[32, 64, 128, 256], **_COST_AXES),
                      heldout_axes=dict(block_size=[32, 64, 128, 256],
                                        **_HELDOUT_COST_AXES)),
         "smoke": dict(apps=["water"], heldout=1, axes=_SMOKE_AXES,
                       heldout_axes=_SMOKE_AXES)},
        _model_setup, _model_body, _model_post,
        nominal_ops={"full": 867, "smoke": 49},
    ),
)}
