"""Cross-validation: model vs. simulator over the full benchmark suite.

Runs every bar of the paper's Figures 5-7 (the Table-1 workloads under all
three protocols and both placements) through the simulator *and* the
analytical model, records per-metric relative errors, and gates them
against ratio-style error budgets:

* ``wall_time`` (and with it the paper's cycle totals) within
  :data:`WALL_BUDGET` on every case;
* ``compute`` cycles exact — the model replays the same value pass;
* pre-send block counts **exact** on fault-free predictive runs whose
  miss stream the walk reproduces exactly — there the walk runs the
  protocol's own planner and schedule lifecycle (:mod:`repro.core.presend`),
  so any count drift means a modeling bug, not an approximation.  Where mid-phase ping-pong makes
  the simulator's *online learning itself* timing-dependent (the walk's
  miss count already differs), the counts fall under
  :data:`PRESEND_BUDGET` instead.

The resulting document (``repro.model-validation/v1``) also embeds a
*sweep demonstration*: the same cost-axis grid run sim-backed and
model-backed (see :func:`demo_grid_spec`), with per-point shape agreement
and — when ``timing=True`` — the measured wall-clock speedup.  Timing
lives under the separate ``"measured"`` key because seconds are
machine-dependent: determinism tests regenerate the document with
``timing=False`` and compare bytes, while the committed artifact keeps the
one-time measured speedup that demonstrates the >=100x claim.
"""

from __future__ import annotations

import pathlib
import time

from repro.model.calibrate import Calibration, default_calibration
from repro.model.predictor import predict
from repro.util.errors import ReproError

VALIDATION_SCHEMA = "repro.model-validation/v1"

#: relative-error budget on wall time (the paper's cycle totals)
WALL_BUDGET = 0.10

#: pre-send count tolerance where online learning is timing-dependent
#: (the walk did not reproduce the sim's miss stream exactly); the
#: absolute slack covers small counters where one schedule entry is a
#: large fraction
PRESEND_BUDGET = 0.05
PRESEND_ABS_SLACK = 8

#: shape gate for the sweep demonstration: worst per-point wall error and
#: minimum fraction of point pairs the two backends order identically
SWEEP_WALL_BUDGET = 0.10
SWEEP_ORDERING_MIN = 0.95


class ValidationError(ReproError):
    """The model fell outside its committed error budgets."""


def validation_specs(quick: bool = False) -> list:
    """The benchmark matrix: every Figure 5-7 bar as a VersionSpec.

    ``quick`` selects the CI subset — one fine-grain case per protocol —
    which keeps the gate under half a minute while still crossing all
    three protocols' machinery.
    """
    from repro.apps import adaptive, barnes, water
    from repro.bench.figures import (
        ADAPTIVE_CFG,
        ADAPTIVE_KW,
        BARNES_CFG,
        BARNES_KW,
        WATER_CFG,
        WATER_KW,
    )
    from repro.bench.harness import VersionSpec

    quick_specs = [
        VersionSpec("fig5/unopt (32)", adaptive, "stache", False,
                    ADAPTIVE_CFG.with_(block_size=32), dict(ADAPTIVE_KW)),
        VersionSpec("fig5/opt (32)", adaptive, "predictive", True,
                    ADAPTIVE_CFG.with_(block_size=32), dict(ADAPTIVE_KW)),
        VersionSpec("fig6/spmd wu (32)", barnes, "write-update", False,
                    BARNES_CFG.with_(block_size=32), dict(BARNES_KW),
                    variant="spmd"),
    ]
    if quick:
        return quick_specs
    return [
        quick_specs[0],
        VersionSpec("fig5/unopt (256)", adaptive, "stache", False,
                    ADAPTIVE_CFG.with_(block_size=256), dict(ADAPTIVE_KW)),
        quick_specs[1],
        VersionSpec("fig5/opt (256)", adaptive, "predictive", True,
                    ADAPTIVE_CFG.with_(block_size=256), dict(ADAPTIVE_KW)),
        VersionSpec("fig6/unopt (32)", barnes, "stache", False,
                    BARNES_CFG.with_(block_size=32), dict(BARNES_KW)),
        VersionSpec("fig6/unopt (1024)", barnes, "stache", False,
                    BARNES_CFG.with_(block_size=1024), dict(BARNES_KW)),
        VersionSpec("fig6/opt (32)", barnes, "predictive", True,
                    BARNES_CFG.with_(block_size=32), dict(BARNES_KW)),
        VersionSpec("fig6/opt (1024)", barnes, "predictive", True,
                    BARNES_CFG.with_(block_size=1024), dict(BARNES_KW)),
        quick_specs[2],
        VersionSpec("fig7/unopt (64)", water, "stache", False,
                    WATER_CFG.with_(block_size=64), dict(WATER_KW)),
        VersionSpec("fig7/opt (32)", water, "predictive", True,
                    WATER_CFG.with_(block_size=32), dict(WATER_KW)),
        VersionSpec("fig7/splash (64)", water, "stache", False,
                    WATER_CFG.with_(block_size=64), dict(WATER_KW),
                    variant="splash"),
    ]


def demo_grid_spec() -> dict:
    """The sweep-demonstration grid: Water's Figure-7 baseline swept over
    pure cost axes (one walk and one array-valued assemble serve all 72
    points on the model side: hence the >=100x wall-clock advantage)."""
    from repro.apps import water
    from repro.bench.figures import WATER_CFG, WATER_KW

    return {
        "app": water,
        "build_kwargs": dict(WATER_KW),
        "base_config": WATER_CFG.with_(block_size=64),
        "protocol": "stache",
        "optimized": False,
        "variant": "cstar",
        "axes": {
            "msg_latency": [250, 500, 1000, 2000, 4000, 8000],
            "per_byte_cost": [0.15, 0.3, 0.6, 1.2],
            "fault_cost": [50, 100, 200],
        },
    }


def _rel_err(model: float, sim: float) -> float | None:
    """Signed relative error; ``None`` when the sim count is zero but the
    model's is not (JSON has no Infinity)."""
    if sim == 0:
        return 0.0 if model == 0 else None
    return round((model - sim) / sim, 9)


def _case_row(spec, calibration) -> dict:
    from repro.bench.harness import run_version
    from repro.sim.stats import TimeCategory

    sim = run_version(spec).stats
    pred = predict(
        spec.app, spec.build_kwargs, protocol=spec.protocol,
        optimized=spec.optimized, config=spec.config, variant=spec.variant,
        calibration=calibration,
    ).stats
    stot, mtot = sim.totals(), pred.totals()
    errors = {
        "wall_time": _rel_err(pred.wall_time, sim.wall_time),
        "misses": _rel_err(pred.misses, sim.misses),
        "local_hits": _rel_err(pred.local_hits, sim.local_hits),
        "messages": _rel_err(pred.messages, sim.messages),
        "bytes_on_wire": _rel_err(pred.bytes_on_wire, sim.bytes_on_wire),
    }
    for cat in TimeCategory:
        errors[cat.value] = _rel_err(mtot[cat], stot[cat])
    presend = {
        "sim_sent": int(sim.presend_blocks_sent),
        "model_sent": int(pred.presend_blocks_sent),
        "sim_useless": int(sum(n.presend_useless_blocks
                               for n in sim.nodes)),
        "model_useless": int(sum(n.presend_useless_blocks
                                 for n in pred.nodes)),
    }
    return {
        "label": spec.label,
        "app": spec.app.__name__.rsplit(".", 1)[-1],
        "variant": spec.variant,
        "protocol": spec.protocol,
        "optimized": spec.optimized,
        "block_size": spec.config.block_size,
        "sim_wall": round(float(sim.wall_time), 6),
        "model_wall": round(float(pred.wall_time), 6),
        "errors": errors,
        "presend": presend,
    }


def _case_failures(row: dict) -> list[str]:
    problems = []
    wall = row["errors"]["wall_time"]
    if wall is None or abs(wall) > WALL_BUDGET:
        problems.append(
            f"{row['label']}: wall_time error "
            f"{'inf' if wall is None else f'{wall:+.2%}'} exceeds "
            f"{WALL_BUDGET:.0%} budget")
    comp = row["errors"]["compute"]
    if comp is None or abs(comp) > 1e-9:
        problems.append(
            f"{row['label']}: compute cycles are not exact "
            f"(error {comp})")
    if row["protocol"] == "predictive":
        p = row["presend"]
        exact_misses = row["errors"]["misses"] == 0.0
        for kind, what in (("sent", "pre-send block count"),
                           ("useless", "useless pre-send count")):
            sim_n, model_n = p[f"sim_{kind}"], p[f"model_{kind}"]
            if sim_n == model_n:
                continue
            if exact_misses:
                problems.append(
                    f"{row['label']}: {what} drifted — sim {sim_n}, model "
                    f"{model_n} (must be exact when the walk reproduces "
                    f"the miss stream exactly)")
            elif abs(model_n - sim_n) > max(PRESEND_BUDGET * sim_n,
                                            PRESEND_ABS_SLACK):
                problems.append(
                    f"{row['label']}: {what} drifted beyond budget — sim "
                    f"{sim_n}, model {model_n} "
                    f"(> max({PRESEND_BUDGET:.0%}, {PRESEND_ABS_SLACK}))")
    return problems


def _grid_shape(sim_doc: dict, model_doc: dict) -> dict:
    """Shape agreement between a sim grid and a model grid of one spec:
    worst per-point wall error plus pairwise ordering agreement."""
    sim_walls = [row["wall_time"] for row in sim_doc["rows"]]
    model_walls = [row["wall_time"] for row in model_doc["rows"]]
    if len(sim_walls) != len(model_walls):
        raise ValidationError(
            f"sweep grids differ in size: sim {len(sim_walls)} points, "
            f"model {len(model_walls)}")
    errs = [abs(m - s) / s for m, s in zip(model_walls, sim_walls)]
    agree = total = 0
    for i in range(len(sim_walls)):
        for j in range(i + 1, len(sim_walls)):
            total += 1
            if ((sim_walls[i] < sim_walls[j])
                    == (model_walls[i] < model_walls[j])):
                agree += 1
    return {
        "points": len(sim_walls),
        "max_wall_err": round(max(errs), 9) if errs else 0.0,
        "mean_wall_err": (round(sum(errs) / len(errs), 9) if errs else 0.0),
        "ordering_agreement": (round(agree / total, 9) if total else 1.0),
    }


def validate(calibration: Calibration | None = None, *, quick: bool = False,
             timing: bool = False, progress=None, tracer=None) -> dict:
    """Run the cross-validation suite; returns the validation document.

    Deterministic except for the optional ``"measured"`` key (wall-clock
    seconds, present only with ``timing=True``): the simulator, the model,
    and the sweep grids have a single possible outcome.
    """
    from repro.bench.sweeps import sweep_grid

    if calibration is None:
        calibration = default_calibration()
    specs = validation_specs(quick=quick)
    rows = []
    failures: list[str] = []
    for spec in specs:
        if progress is not None:
            progress(f"validating {spec.label} ...")
        row = _case_row(spec, calibration)
        rows.append(row)
        failures.extend(_case_failures(row))

    grid = demo_grid_spec()
    if quick:
        grid["axes"] = {"msg_latency": [500, 1000, 2000],
                        "per_byte_cost": [0.3, 0.6]}
    if progress is not None:
        n_pts = 1
        for vals in grid["axes"].values():
            n_pts *= len(vals)
        progress(f"sweep demonstration: {n_pts} points, sim vs model ...")
    t0 = time.perf_counter()
    sim_doc = sweep_grid(
        grid["app"], grid["build_kwargs"],
        base_config=grid["base_config"], axes=grid["axes"], backend="sim",
        protocol=grid["protocol"], optimized=grid["optimized"],
        variant=grid["variant"])
    sim_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    model_doc = sweep_grid(
        grid["app"], grid["build_kwargs"],
        base_config=grid["base_config"], axes=grid["axes"], backend="model",
        protocol=grid["protocol"], optimized=grid["optimized"],
        variant=grid["variant"], calibration=calibration)
    model_seconds = time.perf_counter() - t0
    shape = _grid_shape(sim_doc, model_doc)
    if shape["max_wall_err"] > SWEEP_WALL_BUDGET:
        failures.append(
            f"sweep grid: worst per-point wall error "
            f"{shape['max_wall_err']:.2%} exceeds "
            f"{SWEEP_WALL_BUDGET:.0%}")
    if shape["ordering_agreement"] < SWEEP_ORDERING_MIN:
        failures.append(
            f"sweep grid: backends order only "
            f"{shape['ordering_agreement']:.1%} of point pairs identically "
            f"(< {SWEEP_ORDERING_MIN:.0%})")

    doc = {
        "schema": VALIDATION_SCHEMA,
        "profile": "quick" if quick else "full",
        "budgets": {
            "wall_time": WALL_BUDGET,
            "compute": 0.0,
            "presend_counts": ("exact (predictive, fault-free, "
                               "exact miss stream); else "
                               f"{PRESEND_BUDGET} rel / "
                               f"{PRESEND_ABS_SLACK} abs"),
            "sweep_wall": SWEEP_WALL_BUDGET,
            "sweep_ordering": SWEEP_ORDERING_MIN,
        },
        "calibration": calibration.to_doc(),
        "cases": rows,
        "sweep_demo": {
            "app": sim_doc["app"],
            "axes": sim_doc["axes"],
            "sim_walls": [round(r["wall_time"], 6)
                          for r in sim_doc["rows"]],
            "model_walls": [round(r["wall_time"], 6)
                            for r in model_doc["rows"]],
            "shape": shape,
        },
        "failures": failures,
        "passed": not failures,
    }
    if timing:
        # machine-dependent, one-time measurement — excluded from the
        # byte-determinism contract (see module docstring)
        doc["measured"] = {
            "sim_seconds": round(sim_seconds, 3),
            "model_seconds": round(model_seconds, 3),
            "speedup": round(sim_seconds / model_seconds, 1),
        }
    if tracer is not None and tracer.enabled:
        from repro.obs.events import EventKind

        tracer.emit(EventKind.MODEL_VALIDATE, 0.0,
                    profile=doc["profile"], cases=len(rows),
                    failures=len(failures))
    return doc


def save_validation(path, doc: dict) -> None:
    from repro.util.atomicio import atomic_write_json

    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(out, doc)


def load_validation(path) -> dict:
    import json

    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("schema") != VALIDATION_SCHEMA:
        raise ValidationError(
            f"not a validation document: schema={doc.get('schema')!r} "
            f"(want {VALIDATION_SCHEMA!r})")
    return doc


def compare_validation(committed: dict, measured: dict) -> list[str]:
    """The regression gate: a freshly measured validation run against the
    committed document.

    Ratio-style: the gate passes when the fresh run is within budget *and*
    no case's wall error grew past the budget relative to what was
    committed (cases present only in the committed full profile are ignored
    when CI measures the quick profile).
    """
    problems = list(measured.get("failures", ()))
    committed_cases = {c["label"]: c for c in committed.get("cases", ())}
    for case in measured.get("cases", ()):
        old = committed_cases.get(case["label"])
        if old is None:
            continue
        was, now = (old["errors"]["wall_time"],
                    case["errors"]["wall_time"])
        if was is None or now is None:
            continue
        if abs(now) > max(abs(was) * 1.5, WALL_BUDGET):
            problems.append(
                f"{case['label']}: wall error grew from {was:+.2%} "
                f"(committed) to {now:+.2%}")
    return problems


def render_validation(doc: dict) -> str:
    """Human-readable summary table of a validation document."""
    from repro.util.tables import format_table

    rows = []
    for case in doc["cases"]:
        e = case["errors"]
        rows.append([
            case["label"],
            case["protocol"],
            case["block_size"],
            case["sim_wall"],
            case["model_wall"],
            "n/a" if e["wall_time"] is None else f"{e['wall_time']:+.2%}",
            "n/a" if e["remote_wait"] is None
            else f"{e['remote_wait']:+.2%}",
            f"{case['presend']['model_sent']}"
            f"/{case['presend']['sim_sent']}",
        ])
    out = format_table(
        ["case", "protocol", "block", "sim wall", "model wall",
         "wall err", "rwait err", "presend m/s"],
        rows,
        title=f"model cross-validation ({doc['profile']} profile)",
        floatfmt=".6g",
    )
    shape = doc["sweep_demo"]["shape"]
    out += (
        f"\nsweep demo: {shape['points']} points, max wall err "
        f"{shape['max_wall_err']:.2%}, ordering agreement "
        f"{shape['ordering_agreement']:.1%}"
    )
    measured = doc.get("measured")
    if measured:
        out += (f"\nmeasured: sim {measured['sim_seconds']}s vs model "
                f"{measured['model_seconds']}s -> "
                f"{measured['speedup']}x faster")
    out += "\n" + ("PASS: model within committed error budgets"
                   if doc["passed"] else
                   "FAIL:\n  " + "\n  ".join(doc["failures"]))
    return out
