"""Layer boundaries, layer probes and the per-layer metric table.

A *layer* is a module of the program; its boundary is the public callable
through which the layers above enter it.  :func:`install` wraps every
boundary in :data:`BOUNDARIES` with a span (from here, not from inside the
program), :func:`layer_metrics` turns one traced child's spans and counters
into the numbers of :data:`PER_LAYER`.  A boundary that no longer resolves
makes its metrics ``None`` and is counted in ``bench.boundaries_missing``;
the end-to-end run never depends on any of this.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from e2e_spans import ROOT_SPAN, Tracer, by_name, root_seconds
from e2e_workloads import WATER_CFG, WATER_KW, WORKLOADS, fast_kwargs

#: spans the bodies open around their bound-surface entry calls; their self
#: time is the program's harness glue between the layers
ENTRY_SPANS = ("bench.figures", "bench.harness", "bench.sweeps")

# -- boundary hooks: counts recorded where the work happens --------------------


def _after_run_phase(tracer: Tracer, result, args, kwargs) -> None:
    if tracer.open_name() == "cstar.runtime":
        tracer.count("cstar.runtime.trace_ops",
                     sum(len(stream) for stream in args[1].ops))


def _after_finish(tracer: Tracer, stats, args, kwargs) -> None:
    """``Machine.finish`` is called once per simulation: fold its RunStats."""
    count = tracer.count
    count("engine.dispatches", args[0].engine.total_dispatched)
    count("protocols.messages", stats.messages)
    count("protocols.bytes_on_wire", stats.bytes_on_wire)
    count("protocols.local_hits", stats.local_hits)
    count("protocols.misses", stats.misses)
    count("core.predictive.schedules_degraded", stats.schedules_degraded)
    for node in stats.nodes:
        count("core.predictive.presend_blocks", node.presend_blocks_sent)
        count("core.predictive.presend_useless", node.presend_useless_blocks)


def _after_run_farm(tracer: Tracer, result, args, kwargs) -> None:
    jobs = args[0] if args else kwargs.get("jobs", ())
    tracer.count("farm.jobs", len(jobs))


def _keyed_namer(prefix: str, new: str, old: str, key_of):
    """Span namer: ``prefix.new`` the first time a key is seen, else
    ``prefix.old`` — how cache misses are told from hits from outside."""
    seen: set = set()

    def namer(*args, **kwargs) -> str:
        key = key_of(*args, **kwargs)
        if key in seen:
            return f"{prefix}.{old}"
        seen.add(key)
        return f"{prefix}.{new}"

    return namer


def _freeze(kwargs: dict | None) -> tuple:
    return tuple(sorted((kwargs or {}).items()))


def _record_key(app, build_kwargs=None, variant="cstar", *, n_nodes, page_size):
    return (app.__name__, _freeze(build_kwargs), variant, n_nodes, page_size)


def _predict_key(app, build_kwargs=None, *, protocol, optimized, config,
                 variant="cstar", **_):
    # a walk serves every cost-axis point of one (recording, layout,
    # protocol, optimized): the layout depends on the block size only
    return (app.__name__, _freeze(build_kwargs), variant, config.n_nodes,
            config.page_size, config.block_size, protocol, optimized)


#: (layer, target, after-hook, key function of a cached boundary) — one row
#: per boundary callable; a layer stays live while any of its rows resolves
BOUNDARIES = (
    ("cstar.runtime", "repro.cstar.embedded:EmbeddedProgram.run", None, None),
    ("apps.build_compile", "repro.cstar.embedded:EmbeddedProgram.compile",
     None, None),
    ("apps.build_compile", "repro.apps.adaptive:build", None, None),
    ("apps.build_compile", "repro.apps.barnes:build", None, None),
    ("apps.build_compile", "repro.apps.water:build", None, None),
    ("tempest.machine", "repro.tempest.machine:Machine.run_phase",
     _after_run_phase, None),
    ("core.predictive", "repro.tempest.machine:Machine.begin_group", None, None),
    ("core.predictive", "repro.tempest.machine:Machine.end_group", None, None),
    ("sim.stats", "repro.tempest.machine:Machine.finish", _after_finish, None),
    ("sim.stats", "repro.sim.stats:RunStats.check_conservation", None, None),
    ("obs.metrics_fold", "repro.bench.harness:FigureResult.metrics", None, None),
    ("verify.workload.generate", "repro.verify.fuzz:generate_workload",
     None, None),
    ("verify.oracle.run_workload", "repro.verify.fuzz:run_workload", None, None),
    ("farm.run_farm", "repro.farm.coordinator:run_farm", _after_run_farm, None),
    ("farm.run_farm", "repro.farm:run_farm", _after_run_farm, None),
    # cached boundaries: a first-seen key is the expensive call
    ("model.recording", "repro.model.predictor:record_program", None,
     ("record", "cached", _record_key)),
    ("model.predictor", "repro.model.predictor:predict", None,
     ("walk", "assemble", _predict_key)),
)


def install(tracer: Tracer, boundaries=BOUNDARIES) -> None:
    """Wrap every boundary; unresolved targets land in ``tracer.missing``."""
    for layer, target, after, keyed in boundaries:
        namer = _keyed_namer(layer, *keyed) if keyed else None
        tracer.wrap(target, layer, after, namer)


# -- probes: layer measurements that need their own short runs -----------------


def _lockstep_probe(tracer: Tracer) -> None:
    """Pure-dispatch cost in *this* process, for ``protocols.handler_s_est``."""
    spec = WORKLOADS["engine_lockstep"]
    tracer.run = "probe:lockstep"
    spec.body(spec.setup(0, spec.sizes["smoke"]), tracer)


def _water_specs():
    from repro.apps import water
    from repro.bench.harness import VersionSpec
    from repro.util.config import MachineConfig

    cfg, kw = MachineConfig(**WATER_CFG), WATER_KW
    return [
        VersionSpec("C** unopt (64)", water, "stache", False,
                    cfg.with_(block_size=64), kw),
        VersionSpec("C** opt (32)", water, "predictive", True,
                    cfg.with_(block_size=32), kw),
        VersionSpec("Splash (64)", water, "stache", False,
                    cfg.with_(block_size=64), kw, variant="splash"),
    ]


#: where the obs probe attaches its EventTrace to every machine built
_OBS_BOUNDARY = "repro.bench.harness:make_machine"


def _obs_probe(tracer: Tracer) -> None:
    """Figure-7 bars with and without an ``EventTrace`` attached, then
    their ``FigureResult.metrics()`` fold (no figure function calls it).

    The passes run untraced, traced, traced, untraced: both kinds sit at the
    same mean position in the sequence, so neither caches warmed by an
    earlier pass nor a drifting host favour one side of the ratio.
    """
    from repro.bench.harness import run_specs
    from repro.obs.events import EventTrace

    specs, fast = _water_specs(), fast_kwargs(run_specs)
    events = None

    def attach(_tracer, machine, args, kwargs) -> None:
        if events is not None:
            machine.attach_tracer(events)

    tracer.run = "probe:obs"
    if not tracer.wrap(_OBS_BOUNDARY, "obs.make_machine", attach):
        return
    for traced in (False, True, True, False):
        events = EventTrace() if traced else None
        with tracer.span("obs.traced" if traced else "obs.untraced"):
            results = run_specs(specs, **fast)
        if traced:
            recorded = len(events)
    tracer.count("obs.events_recorded", recorded)
    if "obs.metrics_fold" in tracer.live:
        from repro.bench.harness import FigureResult

        FigureResult("Figure 7 (probe)", "", results).metrics()


def _corpus_probe(tracer: Tracer, scratch: Path) -> None:
    """Figure-7 specs through a cold then a warm corpus."""
    from repro.bench.harness import run_specs
    from repro.corpus import open_corpus

    specs, fast = _water_specs(), fast_kwargs(run_specs)
    tracer.run = "probe:corpus"
    scratch.mkdir(parents=True, exist_ok=True)
    root = tempfile.mkdtemp(prefix="corpus-", dir=scratch)
    corpus = open_corpus(root)
    try:
        # the handle's own methods are the boundary (instance attributes, so
        # the patch dies with the handle)
        for method in ("lookup", "store"):
            fn = getattr(corpus, method)

            def timed(*args, _fn=fn, _name=f"corpus.{method}", **kwargs):
                with tracer.span(_name):
                    return _fn(*args, **kwargs)

            setattr(corpus, method, timed)
        cold = run_specs(specs, corpus=corpus, **fast)
        warm = run_specs(specs, corpus=corpus, **fast)
        tracer.count("corpus.warm_miss_delta",
                     sum(r.stats.misses for r in cold)
                     - sum(r.stats.misses for r in warm))
    finally:
        corpus.close()
        shutil.rmtree(root, ignore_errors=True)


def run_probes(tracer: Tracer, workload: str, scratch: Path) -> None:
    """After the traced body: the short extra runs some layer metrics need."""
    if workload != "engine_lockstep":
        _lockstep_probe(tracer)
    if workload == "figures":
        _corpus_probe(tracer, scratch)
        _obs_probe(tracer)  # last: its make_machine hook stays installed
    tracer.run = "body"


# -- the per-layer metric table ------------------------------------------------

#: (name, unit, better, which end-to-end metric on which workload it should
#: move, the boundary layers it is read from) — a metric one of whose layers
#: has no live boundary is reported as None, never as a fabricated 0
PER_LAYER = (
    ("cstar.runtime.value_pass_s", "s", "lower",
     "wall_s on figures (~44%) and scale; none on engine_lockstep, campaign*",
     ("cstar.runtime",)),
    ("cstar.runtime.value_passes", "count", "lower", "as value_pass_s",
     ("cstar.runtime",)),
    ("cstar.runtime.trace_ops", "count", "lower", "as value_pass_s",
     ("cstar.runtime", "tempest.machine")),
    ("cstar.runtime.ns_per_trace_op", "ns", "lower", "as value_pass_s",
     ("cstar.runtime", "tempest.machine")),
    ("apps.build_compile_s", "s", "lower",
     "wall_s on figures (~0 today; guards against cost moving here)",
     ("apps.build_compile",)),
    ("tempest.machine.run_phase_s", "s", "lower",
     "wall_s on figures, scale, engine_lockstep", ("tempest.machine",)),
    ("tempest.machine.phases", "count", "lower", "as run_phase_s",
     ("tempest.machine",)),
    ("engine.dispatches", "count", "lower",
     "wall_s on engine_lockstep 1:1; scale > figures", ("sim.stats",)),
    ("engine.ns_per_dispatch", "ns", "lower", "as engine.dispatches",
     ("sim.stats", "tempest.machine")),
    ("protocols.messages", "count", "lower",
     "remote_misses, sim_cycles; wall_s on scale, figures, campaign",
     ("sim.stats",)),
    ("protocols.bytes_on_wire", "B", "lower", "as protocols.messages",
     ("sim.stats",)),
    ("protocols.local_hit_rate", "ratio", "higher", "remote_misses",
     ("sim.stats",)),
    ("protocols.handler_s_est", "s", "lower",
     "wall_s on scale, figures, campaign (derived)",
     ("sim.stats", "tempest.machine")),
    ("core.predictive.presend_s", "s", "lower",
     "wall_s on figures/scale optimized bars", ("core.predictive",)),
    ("core.predictive.presend_blocks", "count", "lower", "remote_misses",
     ("sim.stats",)),
    ("core.predictive.presend_useful_ratio", "ratio", "higher",
     "remote_misses", ("sim.stats",)),
    ("core.predictive.schedules_degraded", "count", "lower", "remote_misses",
     ("sim.stats",)),
    ("sim.stats.finish_s", "s", "lower", "wall_s on figures", ("sim.stats",)),
    # the obs and corpus probes wrap their own boundaries (see the probes)
    ("obs.tracer_overhead_ratio", "ratio", "lower",
     "none with tracing off; wall_s on figures if obs guards get costlier",
     ()),
    ("obs.events_recorded", "count", "lower", "as tracer_overhead_ratio", ()),
    ("obs.metrics_fold_s", "s", "lower",
     "wall_s of --metrics-out commands (no figure function folds)",
     ("obs.metrics_fold",)),
    ("corpus.store_s", "s", "lower",
     "setup_s/wall_s of corpus-using commands", ()),
    ("corpus.lookup_s", "s", "lower", "as corpus.store_s", ()),
    ("corpus.records", "count", "lower", "as corpus.store_s", ()),
    ("corpus.warm_miss_delta", "count", "higher", "remote_misses", ()),
    # campaign spans are opened by the body, counters come from its reports
    ("verify.fuzz_s", "s", "lower", "wall_s on campaign (~51%)", ()),
    ("verify.runs", "count", "lower", "as verify.fuzz_s", ()),
    ("verify.ms_per_run", "ms", "lower", "as verify.fuzz_s", ()),
    ("verify.workload.generate_s", "s", "lower", "as verify.fuzz_s",
     ("verify.workload.generate",)),
    ("verify.oracle.run_workload_s", "s", "lower", "as verify.fuzz_s",
     ("verify.oracle.run_workload",)),
    ("faults.campaign_s", "s", "lower", "wall_s, sim_cycles on campaign", ()),
    ("faults.runs", "count", "lower", "as faults.campaign_s", ()),
    ("faults.ms_per_run", "ms", "lower", "as faults.campaign_s", ()),
    ("faults.transport.retries", "count", "lower", "sim_cycles on campaign",
     ()),
    ("faults.transport.timeouts", "count", "lower", "sim_cycles on campaign",
     ()),
    ("faults.transport.duplicates_suppressed", "count", "lower",
     "sim_cycles on campaign", ()),
    ("recovery.crash_campaign_s", "s", "lower",
     "wall_s, sim_cycles on campaign", ()),
    ("recovery.crashes", "count", "lower", "as crash_campaign_s", ()),
    ("recovery.reissued_requests", "count", "lower", "as crash_campaign_s",
     ()),
    ("farm.run_farm_s", "s", "lower",
     "wall_s, peak_rss_mb on campaign_farm only", ("farm.run_farm",)),
    ("farm.jobs", "count", "lower", "as farm.run_farm_s", ("farm.run_farm",)),
    # farm.speedup .. worker_rss_mb are cross-run numbers (run.py, the child)
    ("farm.speedup", "ratio", "higher", "wall_s on campaign_farm (derived)",
     ()),
    ("farm.efficiency", "ratio", "higher", "as farm.speedup", ()),
    ("farm.overhead_s", "s", "lower", "wall_s on campaign_farm (derived)", ()),
    ("farm.worker_rss_mb", "MB", "lower", "peak_rss_mb on campaign_farm", ()),
    ("model.recording.record_s", "s", "lower", "wall_s on model_sweep (~17%)",
     ("model.recording",)),
    ("model.recording.recordings", "count", "lower", "as record_s",
     ("model.recording",)),
    ("model.predictor.walk_s", "s", "lower",
     "wall_s on model_sweep (~34%, derived)", ("model.predictor",)),
    ("model.predictor.walks", "count", "lower", "as walk_s",
     ("model.predictor",)),
    ("model.predictor.assemble_ms_per_point", "ms", "lower",
     "wall_s on model_sweep (~45%)", ("model.predictor",)),
    ("model.points", "count", "lower", "as assemble_ms_per_point", ()),
    ("model.heldout_wall_err_pct", "%", "lower",
     "regression guard of model_sweep on its pre-validated sub-grid; says "
     "nothing about the timed grid's edges", ()),
    ("bench.entry_glue_s", "s", "lower",
     "wall_s on figures, scale, model_sweep (harness/sweep glue between layers)",
     ()),
    ("bench.trace_overhead_pct", "%", "lower", "validity of every row above",
     ()),
    ("bench.boundaries_missing", "count", "lower",
     "validity of every row above", ()),
    ("bench.unattributed_pct", "%", "lower", "validity of every row above",
     ()),
    # The two exact simulated end-to-end metrics travel with the traced run:
    # the driver's bounds are shares of a median, these must repeat exactly
    # (and remote_misses is 0 on engine_lockstep).
    ("sim_cycles", "cycles", "lower", "exact; any simulator-only PR: same",
     ()),
    ("remote_misses", "count", "lower", "exact; the paper's headline count",
     ()),
)


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcome: dict) -> dict:
    """One traced child's per-layer numbers (``None`` = boundary missing).

    A layer the workload never enters reads 0 — the "no change" prediction
    of a bypass pairing.  Cross-run numbers (``bench.trace_overhead_pct``,
    ``farm.speedup`` ...) need untraced samples and are added by ``run.py``.
    """
    spans = tracer.spans("body")
    names = by_name(spans)

    def span(name: str, field: str, run_names=names) -> float:
        return run_names.get(name, {}).get(field, 0)

    count = tracer.counter
    extra = outcome["extra"]
    counters = extra.get("counters", {})
    fuzz, faults, crash = (counters.get(k, {})
                           for k in ("fuzz", "faults", "crash"))

    value_pass = span("cstar.runtime", "self_s")
    trace_ops = count("cstar.runtime.trace_ops")
    run_phase = span("tempest.machine", "total_s")
    dispatches = count("engine.dispatches")
    hits, misses = count("protocols.local_hits"), count("protocols.misses")
    sent = count("core.predictive.presend_blocks")
    # derived: what run_phase costs beyond pure dispatch, priced with the
    # lock-step probe run in this same process; engine_lockstep has no probe
    # (it *is* the pure-dispatch workload) and reads 0 by construction
    probe = by_name(tracer.spans("probe:lockstep"))
    probe_s = span("tempest.machine", "total_s", probe)
    probe_dispatches = count("engine.dispatches", "probe:lockstep")
    handler_est = (max(0.0, run_phase - dispatches * probe_s / probe_dispatches)
                   if probe_dispatches else 0.0)
    # derived: a first-seen predict key pays walk + assemble; the assemble
    # part is priced at the mean of the assemble-only calls
    walks = span("model.predictor.walk", "count")
    assemble_s = _div(span("model.predictor.assemble", "self_s"),
                      span("model.predictor.assemble", "count"))
    obs = by_name(tracer.spans("probe:obs"))
    corpus = by_name(tracer.spans("probe:corpus"))
    fuzz_s = span("verify.fuzz", "total_s")
    faults_s = span("faults.campaign", "total_s")

    m = {
        "cstar.runtime.value_pass_s": value_pass,
        "cstar.runtime.value_passes": span("cstar.runtime", "count"),
        "cstar.runtime.trace_ops": trace_ops,
        "cstar.runtime.ns_per_trace_op": _div(value_pass * 1e9, trace_ops),
        "apps.build_compile_s": span("apps.build_compile", "total_s"),
        "tempest.machine.run_phase_s": run_phase,
        "tempest.machine.phases": span("tempest.machine", "count"),
        "engine.dispatches": dispatches,
        "engine.ns_per_dispatch": _div(run_phase * 1e9, dispatches),
        "protocols.messages": count("protocols.messages"),
        "protocols.bytes_on_wire": count("protocols.bytes_on_wire"),
        "protocols.local_hit_rate": _div(hits, hits + misses),
        "protocols.handler_s_est": handler_est,
        "core.predictive.presend_s": span("core.predictive", "total_s"),
        "core.predictive.presend_blocks": sent,
        "core.predictive.presend_useful_ratio": (
            1 - count("core.predictive.presend_useless") / sent if sent else 0),
        "core.predictive.schedules_degraded": count(
            "core.predictive.schedules_degraded"),
        "sim.stats.finish_s": span("sim.stats", "total_s"),
        "obs.tracer_overhead_ratio": _div(span("obs.traced", "total_s", obs),
                                          span("obs.untraced", "total_s", obs)),
        "obs.events_recorded": count("obs.events_recorded", "probe:obs"),
        "obs.metrics_fold_s": span("obs.metrics_fold", "total_s", obs),
        "corpus.store_s": span("corpus.store", "total_s", corpus),
        "corpus.lookup_s": span("corpus.lookup", "total_s", corpus),
        "corpus.records": span("corpus.store", "count", corpus),
        "corpus.warm_miss_delta": count("corpus.warm_miss_delta",
                                        "probe:corpus"),
        "verify.fuzz_s": fuzz_s,
        "verify.runs": fuzz.get("runs", 0),
        "verify.ms_per_run": _div(fuzz_s * 1e3, fuzz.get("runs", 0)),
        "verify.workload.generate_s": span("verify.workload.generate",
                                           "total_s"),
        "verify.oracle.run_workload_s": span("verify.oracle.run_workload",
                                             "total_s"),
        "faults.campaign_s": faults_s,
        "faults.runs": faults.get("runs", 0),
        "faults.ms_per_run": _div(faults_s * 1e3, faults.get("runs", 0)),
        "faults.transport.retries": faults.get("transport_retries", 0),
        "faults.transport.timeouts": faults.get("transport_timeouts", 0),
        "faults.transport.duplicates_suppressed": faults.get(
            "duplicates_suppressed", 0),
        "recovery.crash_campaign_s": span("recovery.crash_campaign", "total_s"),
        "recovery.crashes": crash.get("crashes", 0),
        "recovery.reissued_requests": crash.get("reissued_requests", 0),
        "farm.run_farm_s": span("farm.run_farm", "total_s"),
        "farm.jobs": count("farm.jobs"),
        "model.recording.record_s": span("model.recording.record", "total_s"),
        "model.recording.recordings": span("model.recording.record", "count"),
        "model.predictor.walk_s": max(
            0.0, span("model.predictor.walk", "self_s") - walks * assemble_s),
        "model.predictor.walks": walks,
        "model.predictor.assemble_ms_per_point": assemble_s * 1e3,
        "model.points": extra.get("points", 0),
        "model.heldout_wall_err_pct": extra.get("heldout_wall_err_pct", 0),
        "bench.entry_glue_s": sum(span(name, "self_s") for name in ENTRY_SPANS),
        "bench.boundaries_missing": len(tracer.missing),
        "bench.unattributed_pct": 100 * _div(span(ROOT_SPAN, "self_s"),
                                             root_seconds(spans)),
        "sim_cycles": outcome["sim_cycles"],
        "remote_misses": outcome["remote_misses"],
    }
    for metric, *_, needs in PER_LAYER:
        if not tracer.live.issuperset(needs):
            m[metric] = None
    if _OBS_BOUNDARY in tracer.missing:
        m["obs.tracer_overhead_ratio"] = m["obs.events_recorded"] = None
    return m
