"""Command-line interface: ``python -m repro <command>``.

``repro --help`` lists the verbs; ``repro <verb> --help`` documents one
verb's options.  Options several verbs share — machine shape, farm
execution, campaign workload, corpus, outputs — are declared once, in the
``_add_*_options`` groups below, and each verb opts into the groups it
needs.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.util.config import SWEEP_AXES, MachineConfig
from repro.util.errors import ConfigError, ReproError

#: every protocol a ``--protocol`` / ``--protocols`` flag accepts
PROTOCOLS = ("stache", "predictive", "write-update")

#: the benchmark apps ``model`` / ``sweep`` run (Figure-5/6/7 workloads)
_MODEL_APPS = ("adaptive", "barnes", "water")

#: the machine ``run`` / ``profile`` simulate unless told otherwise
_RUN_BASE = MachineConfig(n_nodes=8, block_size=32, page_size=512)


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.cstar import compile_source

    source = open(args.file).read()
    program = compile_source(source)
    if args.dump_ast:
        from repro.cstar.pprint import pprint_program

        print(pprint_program(program.info.program))
        print("// --- analysis ---")
    print(program.describe())
    if args.verbose:
        analysis = program.placement.analysis
        print("\nreaching unstructured accesses (per call site):")
        from repro.cstar.flow import iter_calls

        for call in iter_calls(program.flow):
            reaching = sorted(analysis.reaching_set(call))
            needs = program.placement.needs_schedule[call.site_id]
            print(f"  {call.function}#{call.site_id}: reached by {reaching or '{}'}"
                  f"{'  [needs schedule]' if needs else ''}")
    return 0


def _simulate_file(args: argparse.Namespace, tracer=None, corpus=None):
    """Compile ``args.file`` and run it on a machine built from the common
    run/profile options; returns (stats, config).

    With ``corpus``, the run warm-starts from schedules a previous run of
    the same (source, protocol, placement) persisted, and harvests what it
    learned back into the store afterwards.  The corpus key hashes the
    source text itself, so an edited program simply misses.
    """
    from repro.core import make_machine
    from repro.cstar import compile_source

    source = open(args.file).read()
    program = compile_source(source)
    cfg = _machine_config(args, _RUN_BASE)
    warm = None
    key = None
    if corpus is not None:
        from repro.corpus import (corpus_key, placement_signature,
                                  program_signature, supports_warm)

        if supports_warm(args.protocol):
            key = corpus_key(program_signature(source), args.protocol,
                             placement_signature(cfg))
            entry = corpus.lookup(key, cfg.n_nodes)
            if entry is not None:
                warm = entry["records"]
    machine = make_machine(cfg, args.protocol, warm=warm)
    if tracer is not None:
        machine.attach_tracer(tracer)
    env = program.run(machine, optimized=not args.unoptimized)
    stats = env.finish()
    if key is not None:
        store = getattr(machine.protocol, "schedules", None)
        if store is not None:
            records = [s.to_record() for s in store.values() if s.entries]
            if records:
                corpus.store(key, {"protocol": args.protocol,
                                   "n_nodes": cfg.n_nodes,
                                   "records": records})
    return stats, cfg


def _machine_config(args: argparse.Namespace,
                    base: MachineConfig) -> MachineConfig:
    """``base`` with the machine-shape flags the command line set; a page
    smaller than the block grows to the block."""
    given = {"n_nodes": args.nodes, "block_size": args.block_size,
             "page_size": args.page_size}
    cfg = {name: v for name, v in given.items() if v is not None}
    block = cfg.get("block_size", base.block_size)
    cfg["page_size"] = max(cfg.get("page_size", base.page_size), block)
    return base.with_(**cfg)


def _shape_line(args: argparse.Namespace, cfg: MachineConfig) -> str:
    """The ``protocol=… nodes=… block=… optimized=…`` run header."""
    return (f"protocol={args.protocol} nodes={cfg.n_nodes} "
            f"block={cfg.block_size}B optimized={not args.unoptimized}")


def _run_meta(args: argparse.Namespace) -> dict:
    return dict(app=args.file, protocol=args.protocol, nodes=args.nodes,
                block_size=args.block_size, optimized=not args.unoptimized)


def _frontend_line(jobs: int = 1) -> str:
    """Which front end produced this command's numbers (host-side counters
    of ``repro.cstar.recording``; farm workers keep their own, so with
    ``jobs`` > 1 the line says it counts this process only)."""
    from repro.cstar.recording import cache_info

    info = cache_info()
    scope = (" (this process only; the farm workers' recordings are not "
             "included)" if jobs > 1 else "")
    return (f"front end: {info['recordings']} value pass(es) recorded "
            f"({info['ops_recorded']} ops, {info['record_seconds']:.2f}s), "
            f"{info['replays']} replay(s) served, "
            f"{info['column_bytes'] / 1e6:.2f} MB of columns resident{scope}")


def _model_line() -> str:
    """How the model backend priced this command's points, and the host
    seconds of each stage (host-side counters of ``repro.model.predictor``)."""
    from repro.model.predictor import model_info

    info = model_info()
    return (f"model: {info['points']} points, {info['groups']} structural "
            f"groups, {info['walks']} walks ({info['walks_cached']} cached), "
            f"{info['folds']} folds; fold {info['fold_s']:.2f}s, walk "
            f"{info['walk_s']:.2f}s, assemble {info['assemble_s']:.2f}s")


def _write_json(path: str, doc: dict) -> None:
    import pathlib

    from repro.util.atomicio import atomic_write_json

    out = pathlib.Path(path)
    if out.parent != pathlib.Path():
        out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(out, doc)


def _open_corpus(args):
    """Open the durable schedule corpus when ``--corpus DIR`` asks (else None).

    :func:`repro.corpus.open_corpus` never raises: an unusable directory
    degrades to a ``NullCorpus`` that warms nothing and stores nothing, so
    the command still runs — just cold, with a warning here.
    """
    root = getattr(args, "corpus", None)
    if not root:
        return None
    from repro.corpus import open_corpus

    corpus = open_corpus(root)
    if not corpus.ok:
        print(f"corpus: unusable ({corpus.reason}); running cold",
              file=sys.stderr)
    return corpus


def _write_report(args: argparse.Namespace, report) -> None:
    """Write a campaign report as canonical JSON when ``--report-out`` asks."""
    if args.report_out:
        _write_json(args.report_out, report.to_dict())
        print(f"report written to {args.report_out}")


@contextlib.contextmanager
def _farm(args: argparse.Namespace):
    """The farm keywords (``jobs``, ``tracer``) a campaign verb passes,
    built from the farm option group.

    ``--farm-events`` records lifecycle events, written as JSON lines when
    the block ends.
    """
    from repro.obs import EventTrace, write_jsonl

    tracer = EventTrace() if args.farm_events else None
    yield dict(jobs=args.jobs, tracer=tracer)
    if tracer is not None:
        n = write_jsonl(args.farm_events, tracer.events)
        print(f"farm events: {n} event(s) -> {args.farm_events}")


def _export_trace(path: str, tracer, n_nodes: int) -> list[str]:
    """Write the traced events to ``path``: the raw event log as JSON lines
    when it ends in ``.jsonl``, else a Chrome trace, validated.  Returns
    the problem list."""
    from repro.obs import validate_chrome_trace, write_chrome_trace, write_jsonl

    if path.endswith(".jsonl"):
        n = write_jsonl(path, tracer.events)
        print(f"event log: {n} events -> {path}")
        return []
    doc = write_chrome_trace(path, tracer.events, n_nodes)
    problems = validate_chrome_trace(doc)
    print(f"trace: {len(tracer.events)} events -> {path} "
          f"({'VALID' if not problems else 'INVALID'} Chrome trace)")
    for problem in problems:
        print(f"  trace problem: {problem}", file=sys.stderr)
    return problems


def _cmd_run(args: argparse.Namespace) -> int:
    tracer = None
    if args.trace:
        from repro.obs import EventTrace

        tracer = EventTrace()
    stats, cfg = _simulate_file(args, tracer, corpus=_open_corpus(args))
    meta = _run_meta(args)

    if args.json:
        import json

        from repro.obs import run_stats_json

        doc = run_stats_json(stats, **meta)
        if args.json == "-":
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            _write_json(args.json, doc)
    if args.json != "-":
        print(_shape_line(args, cfg))
        from repro.util.tables import format_table

        print(format_table(["metric", "value"], stats.summary_rows(),
                           floatfmt=".6g"))
        if tracer is not None:
            rows = [[kind, float(n)]
                    for kind, n in sorted(tracer.counts().items())]
            print(format_table(["event kind", "count"], rows, floatfmt=".0f"))
    if args.metrics_out:
        from repro.obs import registry_from_run

        _write_json(args.metrics_out,
                    registry_from_run(stats, **meta).to_dict())
    if args.trace and _export_trace(args.trace, tracer, cfg.n_nodes):
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run a program with tracing on; print the per-phase profile."""
    from repro.obs import EventTrace, profile_run

    tracer = EventTrace()
    stats, cfg = _simulate_file(args, tracer)
    report = profile_run(stats, tracer)
    print(f"{_shape_line(args, cfg)} wall={stats.wall_time:g} cycles")
    print()
    print(report.render())
    print()
    print(_frontend_line())
    if args.json:
        _write_json(args.json, report.to_dict())
        print(f"\nprofile written to {args.json}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.bench import figures

    if args.name == "table1":
        print(figures.table1())
        return 0
    fig = {
        "fig5": figures.fig5_adaptive,
        "fig6": figures.fig6_barnes,
        "fig7": figures.fig7_water,
    }[args.name](jobs=args.jobs, corpus=_open_corpus(args))
    print(fig.render())
    print(_frontend_line(args.jobs))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.bench import ablations

    fn = {
        "coalescing": ablations.ablation_coalescing,
        "incremental": ablations.ablation_incremental,
        "flush": ablations.ablation_flush,
        "blocks": ablations.ablation_block_sweep,
    }[args.name]
    print(fn())
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Run every table, figure, ablation, and sweep; write a full report."""
    import pathlib
    import time

    from repro.bench import ablations, figures, sweeps

    sections: list[tuple[str, str]] = []
    t0 = time.time()
    sections.append(("Table 1", figures.table1()))

    # Corpus-warmed figure runs skip pre-send learning, which shifts the
    # bar ratios the check_* shape checks assert about cold runs — so the
    # checks only gate cold reproductions.  The warmed report is still
    # written; its note lines record the warm-start.
    corpus = _open_corpus(args)
    warmed = corpus is not None

    fig5 = figures.fig5_adaptive(jobs=args.jobs, corpus=corpus)
    if not warmed:
        figures.check_fig5(fig5)
    sections.append(("Figure 5", fig5.render()))

    fig6 = figures.fig6_barnes(jobs=args.jobs, corpus=corpus)
    if not warmed:
        figures.check_fig6(fig6)
    sections.append(("Figure 6", fig6.render()))

    fig7 = figures.fig7_water(jobs=args.jobs, corpus=corpus)
    if not warmed:
        figures.check_fig7(fig7)
    sections.append(("Figure 7", fig7.render()))

    sections.append(("Ablation (a): coalescing", ablations.ablation_coalescing()))
    sections.append(("Ablation (b): incremental", ablations.ablation_incremental()))
    sections.append(("Ablation (c): flush", ablations.ablation_flush()))
    sections.append(("Ablation (d): block sizes", ablations.ablation_block_sweep()))
    sections.append(("Ablation (e): latency", ablations.ablation_latency_sweep()))
    sections.append(("Sweep: node scaling", sweeps.node_scaling()))
    sections.append(("Sweep: paper geometry", sweeps.paper_geometry_fig5()))

    report = []
    for title, body in sections:
        report.append("=" * 72)
        report.append(title)
        report.append("=" * 72)
        report.append(body)
        report.append("")
    tail = ("corpus-warmed run; shape checks skipped" if warmed
            else "all shape checks passed")
    report.append(f"({tail}; total {time.time() - t0:.1f}s)")
    report.append(_frontend_line(args.jobs))
    text = "\n".join(report)
    print(text)
    out = pathlib.Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text + "\n")
    print(f"\nreport written to {out}")

    figure_results = [fig5, fig6, fig7]
    if args.json:
        from repro.obs import STATS_SCHEMA, run_stats_json

        doc = {
            "schema": "repro.reproduce/v1",
            "stats_schema": STATS_SCHEMA,
            "sections": [title for title, _ in sections],
            "runs": [
                run_stats_json(v.stats, figure=fig.name, version=v.spec.label,
                               protocol=v.spec.protocol,
                               optimized=v.spec.optimized,
                               block_size=v.spec.config.block_size)
                for fig in figure_results for v in fig.versions
            ],
        }
        _write_json(args.json, doc)
        print(f"figure stats written to {args.json}")
    if args.metrics_out:
        from repro.cstar.recording import cache_info
        from repro.obs import MetricsRegistry

        merged = MetricsRegistry.merge_all(f.metrics() for f in figure_results)
        # host-side provenance rides beside the registry, never inside it
        _write_json(args.metrics_out,
                    dict(merged.to_dict(), frontend=cache_info()))
        print(f"metrics written to {args.metrics_out}")
    if args.trace:
        # Timeline of the paper's headline configuration: optimized water
        # under the predictive protocol (Figure 7's fastest bar).
        from repro.apps import water
        from repro.bench.figures import WATER_CFG, WATER_KW
        from repro.bench.harness import VersionSpec, run_version
        from repro.obs import EventTrace

        spec = VersionSpec("C** opt (32)", water, "predictive", True,
                           WATER_CFG.with_(block_size=32), dict(WATER_KW))
        tracer = EventTrace()
        run_version(spec, tracer=tracer)
        if _export_trace(args.trace, tracer, spec.config.n_nodes):
            return 1
    return 0


def _resolve_app(name: str):
    """A benchmark app by name, with its Figure-5/6/7 workload defaults."""
    from repro.apps import adaptive, barnes, water
    from repro.bench import figures

    module, kwargs, cfg = {
        "adaptive": (adaptive, figures.ADAPTIVE_KW, figures.ADAPTIVE_CFG),
        "barnes": (barnes, figures.BARNES_KW, figures.BARNES_CFG),
        "water": (water, figures.WATER_KW, figures.WATER_CFG),
    }[name]
    return module, dict(kwargs), cfg


def _load_model_calibration(args):
    """Resolve the calibration to predict with; returns (cal, source)."""
    import pathlib

    from repro.model import default_calibration, load_calibration

    if getattr(args, "uncalibrated", False):
        return default_calibration(), "identity (--uncalibrated)"
    explicit = getattr(args, "calibration", None)
    if explicit:
        return load_calibration(explicit), explicit
    path = pathlib.Path(args.dir) / "MODEL_calibration.json"
    if path.is_file():
        return load_calibration(path), str(path)
    return default_calibration(), "identity (no committed calibration)"


def _cmd_model(args: argparse.Namespace) -> int:
    """Predict, calibrate, or cross-validate with the analytical model."""
    import pathlib

    from repro.util.tables import format_table

    if args.calibrate:
        from repro.bench.validate import calibrate
        from repro.model import save_calibration

        cal = calibrate(progress=print)
        rows = [[p, cal.alpha[p], cal.gamma[p], cal.delta[p],
                 cal.diagnostics[p]["rms_wall_err_before"],
                 cal.diagnostics[p]["rms_wall_err_after"]]
                for p in sorted(cal.alpha)]
        print(format_table(
            ["protocol", "alpha", "gamma", "delta", "rms err before",
             "rms err after"],
            rows, title="model calibration", floatfmt=".6g"))
        path = pathlib.Path(args.dir) / "MODEL_calibration.json"
        save_calibration(path, cal)
        print(f"calibration written to {path}")
        return 0

    cal, cal_src = _load_model_calibration(args)

    if args.suite:
        from repro.bench import validate as mv

        print(f"calibration: {cal_src}")
        doc = mv.validate(cal, quick=args.quick, timing=args.timing,
                          progress=print)
        print()
        print(mv.render_validation(doc))
        path = pathlib.Path(args.dir) / "MODEL_validation.json"
        if args.write:
            mv.save_validation(path, doc)
            print(f"validation written to {path}")
        if args.check:
            if not path.is_file():
                print(f"error: no committed validation at {path}",
                      file=sys.stderr)
                return 2
            problems = mv.compare_validation(mv.load_validation(path), doc)
            if problems:
                print(f"\nMODEL GATE: {len(problems)} problem(s) vs {path}:")
                for prob in problems:
                    print(f"  {prob}")
                return 1
            print(f"\nmodel gate passed (vs {path})")
        return 0 if doc["passed"] else 1

    from repro.model import predict

    if args.app is None:
        print("error: an app is required unless --suite or --calibrate "
              f"is given (choose from {', '.join(_MODEL_APPS)})",
              file=sys.stderr)
        return 2
    app, kwargs, base_cfg = _resolve_app(args.app)
    cfg = _machine_config(args, base_cfg)
    optimized = not args.unoptimized
    pred = predict(app, kwargs, protocol=args.protocol, optimized=optimized,
                   config=cfg, variant=args.variant, calibration=cal)
    print(f"model: {args.app} [{args.variant}] {_shape_line(args, cfg)}")
    print(f"calibration: {cal_src}")
    if args.validate:
        from repro.bench.harness import VersionSpec, run_version

        sim = run_version(
            VersionSpec("validate", app, args.protocol, optimized, cfg,
                        kwargs, variant=args.variant)).stats
        sim_rows = dict((name, value) for name, value in sim.summary_rows())
        rows = []
        for name, mval in pred.stats.summary_rows():
            sval = sim_rows.get(name)
            if sval in (None, 0):
                err = "n/a" if sval is None or mval != sval else "exact"
            else:
                err = f"{(mval - sval) / sval:+.2%}"
            rows.append([name, mval, sval, err])
        print(format_table(["metric", "model", "simulated", "rel err"],
                           rows, floatfmt=".6g"))
    else:
        print(format_table(["metric", "value"], pred.stats.summary_rows(),
                           floatfmt=".6g"))
    if args.json:
        from repro.obs import run_stats_json

        _write_json(args.json, run_stats_json(
            pred.stats, app=args.app, variant=args.variant,
            protocol=args.protocol, nodes=cfg.n_nodes,
            block_size=cfg.block_size, optimized=optimized, model=True))
        print(f"\nprediction written to {args.json}")
    return 0


def _parse_axes(args) -> dict:
    """``--axis name=v1,v2,...`` flags into a sweep axes dict.

    A value parses as the type of its :class:`MachineConfig` field's
    default (``protocol`` values stay strings).
    """
    axes: dict[str, list] = {}
    for spec in args.axis or []:
        name, _, values = spec.partition("=")
        if not values:
            raise ConfigError(
                f"bad --axis {spec!r}: expected name=v1,v2,...")
        if name not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {name!r}; expected one of "
                f"{', '.join(SWEEP_AXES)}")
        kind = str if name == "protocol" else type(getattr(_RUN_BASE, name))
        axes[name] = []
        for value in values.split(","):
            try:
                axes[name].append(kind(value))
            except ValueError:
                raise ConfigError(
                    f"bad value {value!r} for sweep axis {name!r} "
                    f"(expected {kind.__name__})") from None
    return axes


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run a machine-parameter grid, sim- or model-backed."""
    from repro.bench.sweeps import export_grid, render_grid, sweep_grid

    if args.app is None:
        print(f"error: an app is required (choose from "
              f"{', '.join(_MODEL_APPS)})", file=sys.stderr)
        return 2
    app, kwargs, base_cfg = _resolve_app(args.app)
    cfg = _machine_config(args, base_cfg)
    axes = _parse_axes(args)
    if not axes:
        print("error: no sweep axes; pass at least one --axis "
              f"name=v1,v2,... (axes: {', '.join(SWEEP_AXES)})",
              file=sys.stderr)
        return 2
    backend = "model" if args.model else "sim"
    calibration = None
    if backend == "model":
        calibration, cal_src = _load_model_calibration(args)
        print(f"calibration: {cal_src}")
    doc = sweep_grid(
        app, kwargs, base_config=cfg, axes=axes, backend=backend,
        protocol=args.protocol, optimized=not args.unoptimized,
        variant=args.variant, calibration=calibration,
        progress=print if args.verbose else None)
    print(render_grid(doc))
    print(_frontend_line())
    if backend == "model":
        print(_model_line())
    if args.out:
        export_grid(args.out, doc)
        print(f"sweep grid written to {args.out}")
    return 0


def _cmd_corpus_doctor(args: argparse.Namespace) -> int:
    from repro.corpus.doctor import doctor

    report, status = doctor(args.dir, compact=args.compact, scrub=args.scrub)
    print(report)
    return status


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.predictive import PredictiveProtocol
    from repro.protocols.directory import DirState
    from repro.protocols.messages import MessageKind as MK
    from repro.protocols.stache import StacheProtocol
    from repro.protocols.verify import STACHE_HOME_SPEC, audit_protocol
    from repro.protocols.writeupdate import UPDATE_SHARED, WriteUpdateProtocol

    ok = True
    for cls, spec in [
        (StacheProtocol, STACHE_HOME_SPEC),
        (PredictiveProtocol, STACHE_HOME_SPEC),
        (WriteUpdateProtocol, {
            DirState.IDLE: {MK.GET_RO, MK.GET_RW},
            UPDATE_SHARED: {MK.GET_RO, MK.GET_RW},
        }),
    ]:
        result = audit_protocol(cls, spec)
        print(result.report())
        print()
        ok = ok and result.ok
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    import pathlib

    from repro.verify import (
        ALL_PROTOCOLS,
        dfs_explore_seed,
        fuzz,
        make_bundled_sessions,
        verify_trace_file,
    )

    protocols = args.protocols or list(ALL_PROTOCOLS)
    traces_dir = pathlib.Path(args.traces)
    if args.regen_traces:
        from repro.tempest.tracefile import save_session

        traces_dir.mkdir(parents=True, exist_ok=True)
        for name, workload in make_bundled_sessions().items():
            save_session(workload.events, traces_dir / name,
                         regions=workload.regions)
            print(f"wrote {traces_dir / name} ({workload.describe()})")
        return 0

    failed = False

    if args.replay is not None:
        from repro.verify import replay_seed

        report = replay_seed(args.replay, protocols=protocols)
        print(report.summary())
        failed = not report.ok
    else:
        with _farm(args) as farm:
            report = fuzz(seeds=args.seeds, protocols=protocols,
                          shrink=not args.no_shrink, progress=print,
                          corpus=_open_corpus(args), **farm)
            print(report.summary())
            failed = not report.ok
            _write_report(args, report)
    runs = report.runs

    if args.dfs:
        print()
        for protocol in protocols:
            for seed in range(args.dfs_seeds):
                n, violations = dfs_explore_seed(
                    seed, protocol, max_runs=args.dfs, max_depth=args.dfs_depth)
                runs += n
                if n == 0 and not violations:
                    continue  # workload dialect incompatible with protocol
                status = "ok" if not violations else "VIOLATION"
                print(f"dfs [{protocol}] seed {seed}: "
                      f"{n} interleaving(s) explored — {status}")
                for rec in violations:
                    print(rec.report())
                    failed = True

    if traces_dir.is_dir() and not args.no_traces:
        print()
        for path in sorted(traces_dir.glob("*.trace")):
            trace_report = verify_trace_file(path, protocols=protocols)
            runs += trace_report.runs
            status = "ok" if trace_report.ok else "VIOLATION"
            print(f"trace {path.name}: {trace_report.runs} monitored "
                  f"replay(s) — {status}")
            for rec in trace_report.violations:
                print(rec.report())
            failed = failed or not trace_report.ok

    if runs == 0:
        return _nothing_checked(args, "monitored runs")
    return 1 if failed else 0


def _nothing_checked(args: argparse.Namespace, runs: str) -> int:
    """Report a campaign that monitored no run; returns exit status 2."""
    traces = ("skipped (--no-traces)" if args.no_traces
              else f"none found under {args.traces}")
    print(f"error: nothing was checked: 0 {runs} ({args.seeds} fuzz "
          f"seed(s); trace workloads: {traces})", file=sys.stderr)
    return 2


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import BUNDLED_PLANS, CRASH_PLANS, run_campaign

    registry = {**BUNDLED_PLANS, **CRASH_PLANS}
    if args.list_plans:
        for name, plan in registry.items():
            print(f"{name:16s} {plan.describe()}")
        return 0

    plans = None
    if args.crash:
        plans = dict(CRASH_PLANS)
    if args.plans:
        unknown = set(args.plans.split(",")) - set(registry)
        if unknown:
            print(f"error: unknown plan(s) {sorted(unknown)}; "
                  f"available: {list(registry)}", file=sys.stderr)
            return 2
        plans = {**(plans or {}),
                 **{name: registry[name] for name in args.plans.split(",")}}

    protocols = args.protocols or None
    with _farm(args) as farm:
        report = run_campaign(
            plans=plans,
            seeds=args.seeds,
            protocols=protocols,
            variants=args.variants,
            traces_dir=None if args.no_traces else args.traces,
            shrink=not args.no_shrink,
            progress=print,
            dump_scripts=args.dump_scripts,
            corpus=_open_corpus(args),
            **farm,
        )
        print(report.summary())
        _write_report(args, report)
    # the fail-fast probe counts as a run, but it checks no plan
    if report.runs == (0 if report.unrecoverable_ok is None else 1):
        return _nothing_checked(args, "fault-injected runs")

    if args.trace or args.metrics_out:
        # One representative traced run: the first selected plan against the
        # first generated workload, so the timeline shows faults in context.
        from repro.obs import EventTrace, registry_from_run
        from repro.verify.oracle import run_workload
        from repro.verify.workload import generate_workload

        plan_name, plan = next(iter((plans or registry).items()))
        protocol = (protocols or ["predictive"])[0]
        workload = generate_workload(0)
        tracer = EventTrace()
        obs = run_workload(workload, protocol, fault_plan=plan, tracer=tracer)
        if args.metrics_out:
            _write_json(
                args.metrics_out,
                registry_from_run(obs.stats, app="fuzz-seed0",
                                  protocol=protocol,
                                  plan=plan_name).to_dict(),
            )
            print(f"metrics written to {args.metrics_out}")
        if args.trace and _export_trace(args.trace, tracer,
                                        workload.config.n_nodes):
            return 1
    return 0 if report.ok else 1


def _protocol_list(text: str) -> list[str]:
    """``--protocols`` value: a comma-separated subset of :data:`PROTOCOLS`."""
    protocols = text.split(",") if text else []
    unknown = set(protocols) - set(PROTOCOLS)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown protocol(s) {sorted(unknown)}; "
            f"available: {list(PROTOCOLS)}")
    return protocols


def _add_machine_options(p: argparse.ArgumentParser, *, protocol: str,
                         base: MachineConfig | None) -> None:
    """Machine shape: what to run, under which protocol, on which machine.

    With a ``base`` config the subject is a C** ``file`` and the flags
    default to ``base``'s fields; without one it is a benchmark ``app``
    and the flags default to None, resolved against the app's figure
    config by :func:`_machine_config`.
    """
    if base is not None:
        p.add_argument("file")
    else:
        p.add_argument("app", nargs="?", choices=_MODEL_APPS,
                       help="benchmark app (Figure-5/6/7 workload defaults)")
    p.add_argument("--protocol", default=protocol, choices=PROTOCOLS)
    for flag in ("--nodes", "--block-size", "--page-size"):
        p.add_argument(flag, type=int)
    p.add_argument("--unoptimized", action="store_true",
                   help="ignore compiler directives (the paper's baseline)")
    if base is not None:
        p.set_defaults(nodes=base.n_nodes, block_size=base.block_size,
                       page_size=base.page_size)


def _add_model_options(p: argparse.ArgumentParser) -> None:
    """The app variant and the model calibration (``model`` / ``sweep``)."""
    p.add_argument("--variant", default="cstar",
                   help="app variant: cstar (default) for every app, "
                        "splash for water, spmd for barnes")
    p.add_argument("--calibration", metavar="PATH",
                   help="calibration document to predict with (default: "
                        "<--dir>/MODEL_calibration.json when present)")
    p.add_argument("--uncalibrated", action="store_true",
                   help="predict with the identity calibration even if a "
                        "committed one exists")
    p.add_argument("--dir", default="benchmarks",
                   help="artifact directory (default: benchmarks)")


def _at_least(minimum: int) -> type[argparse.Action]:
    """An argparse action storing an int option only if it is at least
    ``minimum`` (a count of workers, seeds or variants)."""
    class AtLeast(argparse.Action):
        def __call__(self, parser, namespace, value, option_string=None):
            if value < minimum:
                raise argparse.ArgumentError(
                    self, f"must be >= {minimum}, got {value}")
            setattr(namespace, self.dest, value)

    return AtLeast


def _add_farm_options(p: argparse.ArgumentParser, *,
                      events: bool = True) -> None:
    """Farm execution: local worker processes, and with ``events`` the
    farm's lifecycle event log."""
    p.add_argument("--jobs", type=int, action=_at_least(1), default=1,
                   metavar="N",
                   help="shard the work across N farm worker processes "
                        "(repro.farm; reports are byte-identical to --jobs 1)")
    if not events:
        return
    p.add_argument("--farm-events", metavar="PATH",
                   help="with --jobs > 1, write the farm's lifecycle events "
                        "(farm.* dispatch/done/retry) as JSON lines to PATH")


def _add_campaign_options(p: argparse.ArgumentParser, *,
                          seeds: int) -> None:
    """Campaign workload: fuzz seeds, protocols, bundled traces, shrinking."""
    p.add_argument("--seeds", type=int, action=_at_least(0), default=seeds,
                   help="number of generated fuzz workloads (one seed each)")
    p.add_argument("--protocols", type=_protocol_list,
                   help=f"comma-separated subset of {','.join(PROTOCOLS)}")
    p.add_argument("--traces", default="examples/traces",
                   help="directory of bundled session traces to replay "
                        "under every protocol (skipped if missing)")
    p.add_argument("--no-traces", action="store_true",
                   help="skip the bundled traces")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip minimizing failures into small reproducers")


def _add_corpus_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", metavar="DIR",
                   help="durable schedule corpus directory: warm-start "
                        "schedule-learning protocols from previous runs' "
                        "persisted schedules and (where the command "
                        "learns fault-free) harvest new ones back; a "
                        "damaged corpus self-heals on open and a missing "
                        "one is created")


def _add_output_options(p: argparse.ArgumentParser, *, report: bool = False,
                        metrics: str | None = None,
                        trace: str | None = None) -> None:
    """Outputs: the campaign ``report``, and the ``metrics`` registry and
    Chrome ``trace`` of the run each string names."""
    if report:
        p.add_argument("--report-out", metavar="PATH",
                       help="write the campaign report as canonical JSON to "
                            "PATH (byte-identical across --jobs values; CI "
                            "diffs it)")
    if metrics:
        p.add_argument("--metrics-out", metavar="PATH",
                       help=f"write the metrics registry of {metrics} "
                            "(repro.metrics/v1 JSON) to PATH")
    if trace:
        p.add_argument("--trace", metavar="PATH",
                       help=f"export a Chrome/Perfetto trace.json timeline "
                            f"of {trace} to PATH (the raw event log as "
                            f"JSON lines if PATH ends in .jsonl)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Compiler-directed Shared-Memory "
                    "Communication for Iterative Parallel Applications' (SC'96)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a C** file; show the analysis")
    p.add_argument("file")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument("--dump-ast", action="store_true",
                   help="pretty-print the parsed program before the analysis")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("run", help="compile and simulate a C** file")
    _add_machine_options(p, protocol="predictive", base=_RUN_BASE)
    _add_corpus_option(p)
    p.add_argument("--json", nargs="?", const="-", metavar="PATH",
                   help="emit machine-readable run stats (repro.run-stats/v1) "
                        "to PATH, or to stdout instead of the table if PATH "
                        "is omitted or '-'")
    _add_output_options(p, metrics="the run", trace="the run")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "profile",
        help="run a C** file with event tracing on; print the per-phase "
             "profile and schedule-quality analytics",
    )
    _add_machine_options(p, protocol="predictive", base=_RUN_BASE)
    p.add_argument("--json", metavar="PATH",
                   help="also write the profile (repro.profile/v1 JSON) "
                        "to PATH")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("figure", help="regenerate a paper table/figure")
    p.add_argument("name", choices=["table1", "fig5", "fig6", "fig7"])
    _add_corpus_option(p)
    _add_farm_options(p, events=False)
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("ablation", help="run a design-choice ablation")
    p.add_argument("name", choices=["coalescing", "incremental", "flush", "blocks"])
    p.set_defaults(fn=_cmd_ablation)

    p = sub.add_parser(
        "model",
        help="predict a run's statistics in closed form (no event loop); "
             "calibrate against, or cross-validate over, the simulator",
    )
    _add_machine_options(p, protocol="predictive", base=None)
    _add_model_options(p)
    p.add_argument("--validate", action="store_true",
                   help="also simulate the same configuration and print "
                        "model vs. simulated side by side")
    p.add_argument("--calibrate", action="store_true",
                   help="fit per-protocol residual coefficients from short "
                        "reference sims; write <--dir>/MODEL_calibration.json")
    p.add_argument("--suite", action="store_true",
                   help="cross-validate model vs. sim over the full "
                        "Figure-5/6/7 matrix plus the sweep demonstration; "
                        "exit 1 outside the committed error budgets")
    p.add_argument("--quick", action="store_true",
                   help="with --suite: the scaled-down CI subset")
    p.add_argument("--timing", action="store_true",
                   help="with --suite: record measured wall-clock seconds "
                        "and sweep speedup under the 'measured' key (the "
                        "one machine-dependent part of the document)")
    p.add_argument("--write", action="store_true",
                   help="with --suite: write <--dir>/MODEL_validation.json")
    p.add_argument("--check", action="store_true",
                   help="with --suite: gate the fresh run against the "
                        "committed MODEL_validation.json; exit 1 on "
                        "regression")
    p.add_argument("--json", metavar="PATH",
                   help="write the prediction (repro.run-stats/v1 JSON) "
                        "to PATH")
    p.set_defaults(fn=_cmd_model)

    p = sub.add_parser(
        "sweep",
        help="run a Cartesian machine-parameter grid over an app; "
             "--model makes it instant (closed-form, one cached walk)",
    )
    _add_machine_options(p, protocol="stache", base=None)
    _add_model_options(p)
    p.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                   help="one grid axis (repeatable): "
                        f"{', '.join(SWEEP_AXES)}")
    p.add_argument("--model", action="store_true",
                   help="predict each point with repro.model instead of "
                        "simulating it (same document shape, milliseconds "
                        "per grid)")
    p.add_argument("--out", metavar="FILE",
                   help="atomically export the grid as .json or .csv "
                        "(sim- and model-backed grids are byte-comparable)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print per-point progress")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "reproduce",
        help="run every table, figure, ablation, and sweep; write a report",
    )
    p.add_argument("--output", default="benchmarks/results/REPORT.txt")
    p.add_argument("--json", metavar="PATH",
                   help="also write per-figure run stats "
                        "(repro.reproduce/v1 JSON) to PATH")
    _add_output_options(
        p, metrics="all figures, merged",
        trace="the optimized water run (Figure 7's fastest bar)")
    _add_farm_options(p, events=False)
    _add_corpus_option(p)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("audit", help="audit protocol transition tables")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser(
        "verify",
        help="fuzz the protocols under adversarial interleavings with the "
             "coherence-invariant monitor and differential oracle",
    )
    _add_campaign_options(p, seeds=50)
    p.add_argument("--replay", type=int, metavar="SEED",
                   help="re-run exactly one seed (as printed in a violation)")
    p.add_argument("--dfs", type=int, action=_at_least(0), metavar="N",
                   default=0,
                   help="also model-check: enumerate up to N interleavings "
                        "per protocol by bounded DFS")
    p.add_argument("--dfs-seeds", type=int, action=_at_least(0), default=3,
                   help="workload seeds to model-check under --dfs")
    p.add_argument("--dfs-depth", type=int, action=_at_least(0), default=10,
                   help="branching depth bound for --dfs")
    p.add_argument("--regen-traces", action="store_true",
                   help="regenerate the bundled traces under --traces and exit")
    _add_farm_options(p)
    _add_output_options(p, report=True)
    _add_corpus_option(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "faults",
        help="run the fault-injection campaign: every fault plan against "
             "generated and bundled workloads, with minimal-reproducer "
             "shrinking for failures",
    )
    p.add_argument("--plans",
                   help="comma-separated subset of the bundled fault plans "
                        "(default: all; see --list-plans)")
    _add_campaign_options(p, seeds=2)
    p.add_argument("--variants", type=int, action=_at_least(1), default=1,
                   help="reseedings of each plan per workload")
    p.add_argument("--crash", action="store_true",
                   help="run the crash-stop plans (node failures with "
                        "detection, recovery, and restart)")
    p.add_argument("--dump-scripts", metavar="DIR",
                   help="write each failure's scripted reproducer (shrunk "
                        "when possible) as JSON into DIR")
    p.add_argument("--list-plans", action="store_true",
                   help="list the bundled fault plans and exit")
    _add_output_options(p, report=True,
                        metrics="one representative faulted run",
                        trace="one representative faulted run")
    _add_farm_options(p)
    _add_corpus_option(p)
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser(
        "corpus",
        help="operate on a durable schedule corpus directory",
    )
    csub = p.add_subparsers(dest="corpus_command", required=True)
    d = csub.add_parser(
        "doctor",
        help="inspect a corpus: open it (quarantining damaged rows and "
             "setting an unreadable file aside, exactly as a run would), "
             "check its integrity, report entries and quarantine contents, "
             "and exit 0 = healthy, 1 = damage found, 2 = unusable",
    )
    d.add_argument("dir", help="corpus directory")
    d.add_argument("--compact", action="store_true",
                   help="rebuild the key index and VACUUM the corpus "
                        "file")
    d.add_argument("--scrub", action="store_true",
                   help="delete quarantined rows after inspection")
    d.set_defaults(fn=_cmd_corpus_doctor)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
