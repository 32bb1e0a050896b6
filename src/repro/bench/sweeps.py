"""Parameter sweeps: structured grids plus the legacy scaling tables.

The paper measured a 32-processor CM-5.  The default figures use 8 nodes
with scaled problems; this module provides

* :func:`sweep_grid` — the general Cartesian machine-parameter grid behind
  ``repro sweep``.  The same grid runs against two backends: ``"sim"``
  (one full simulation per point) and ``"model"`` (``repro.model``
  closed-form prediction — points that differ only in their cost table
  share one walk and are priced together as one array-valued grid).  Both
  backends emit *identical document shapes*
  (schema, row keys, row order), so a model grid is byte-comparable with a
  sim grid and diffable point by point;
* :func:`export_grid` — atomic JSON/CSV export for ``repro sweep --out``;
* :func:`node_scaling` — hold the problem fixed and sweep the node count,
  showing that the predictive protocol's advantage holds (and grows) as
  communication surface increases with the machine;
* :func:`paper_geometry_fig5` — a 32-node Adaptive comparison with the
  paper's rows-per-node ratio, for spot-checking that the 8-node defaults
  are not a geometry artifact.
"""

from __future__ import annotations

import itertools
import pathlib
from dataclasses import asdict

import numpy as np

from repro.apps import adaptive, water
from repro.core import make_machine
from repro.sim.stats import TimeCategory
from repro.util.config import SWEEP_AXES, MachineConfig
from repro.util.errors import ConfigError
from repro.util.tables import format_table

SWEEP_SCHEMA = "repro.sweep/v1"

#: per-point metrics every backend must fill, in column order
GRID_COLUMNS = ("wall_time", "compute", "remote_wait", "predictive",
                "synch", "misses", "local_hits", "messages",
                "bytes_on_wire", "presend_blocks_sent")

#: most points priced by one model grid: bounds its arrays, a larger
#: structural group takes several
_MODEL_GRID_POINTS = 1024


def _grid_points(axes: dict) -> list[dict]:
    """Cartesian product of axis values in canonical axis order."""
    for name in axes:
        if name not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {name!r}; expected one of {SWEEP_AXES}")
        if not axes[name]:
            raise ConfigError(f"sweep axis {name!r} has no values")
    names = [a for a in SWEEP_AXES if a in axes]
    return [dict(zip(names, values))
            for values in itertools.product(*(axes[n] for n in names))]


def _metric_rows(stats) -> list[dict]:
    """The shared metric columns (mean cycles per category, as in the paper's
    figures): one row for a ``RunStats``, one per point for a model
    ``GridPrediction`` (the same attributes, its cycles arrays over points)."""
    totals = stats.totals()
    cycles = np.array([
        stats.wall_time, totals[TimeCategory.COMPUTE],
        totals[TimeCategory.REMOTE_WAIT], totals[TimeCategory.PREDICTIVE],
        totals[TimeCategory.SYNCH]], dtype=np.float64)
    counts = [int(stats.misses), int(stats.local_hits), int(stats.messages),
              int(stats.bytes_on_wire), int(stats.presend_blocks_sent)]
    return [dict(zip(GRID_COLUMNS, point + counts))
            for point in cycles.reshape(5, -1).T.tolist()]


def sweep_grid(app, build_kwargs: dict, *, base_config: MachineConfig,
               axes: dict, backend: str = "sim", protocol: str = "stache",
               optimized: bool = False, variant: str = "cstar",
               calibration=None, progress=None) -> dict:
    """Run one Cartesian parameter grid; returns a ``repro.sweep/v1`` doc.

    ``axes`` maps axis names (:data:`SWEEP_AXES`) to value lists; fields
    not swept come from ``base_config`` (and ``protocol``/``optimized``).
    The document is fully deterministic — wall-clock timing is *not*
    recorded here so sim- and model-backed grids of the same spec differ
    only where their simulated/predicted numbers differ (callers that want
    seconds measure around this call; see ``repro.bench.validate``).
    """
    if backend not in ("sim", "model"):
        raise ConfigError(f"unknown sweep backend {backend!r}")
    points = _grid_points(axes)
    protocols = [point.get("protocol", protocol) for point in points]
    configs = [base_config.with_(
        **{k: v for k, v in point.items() if k != "protocol"})
        for point in points]
    if backend == "sim":
        from repro.bench.harness import VersionSpec, run_version
    else:
        from repro.model.predictor import predict_grid
    # what a model walk depends on: points equal here differ in cost only
    walks = [(proto, cfg.n_nodes, cfg.page_size, cfg.block_size)
             for proto, cfg in zip(protocols, configs)]
    metrics: list = [None] * len(points)
    rows = []
    for i, (point, proto, cfg) in enumerate(zip(points, protocols, configs)):
        if progress is not None:
            progress(f"[{backend}] point {i + 1}/{len(points)}: "
                     + ", ".join(f"{k}={v}" for k, v in point.items()))
        if backend == "sim":
            spec = VersionSpec(f"sweep point {i}", app, proto, optimized,
                               cfg, dict(build_kwargs), variant=variant)
            metrics[i] = _metric_rows(run_version(spec).stats)[0]
        elif metrics[i] is None:
            # price it together with the points still open on its walk
            group = [j for j in range(i, len(points)) if walks[j] == walks[i]
                     and metrics[j] is None][:_MODEL_GRID_POINTS]
            grid = predict_grid(
                app, build_kwargs, protocol=proto, optimized=optimized,
                configs=[configs[j] for j in group], variant=variant,
                calibration=calibration)
            for j, row in zip(group, _metric_rows(grid)):
                metrics[j] = row
        rows.append({**point, **metrics[i]})
    return {
        "schema": SWEEP_SCHEMA,
        "app": app.__name__.rsplit(".", 1)[-1],
        "variant": variant,
        "backend": backend,
        "protocol": protocol,
        "optimized": optimized,
        "build_kwargs": dict(build_kwargs),
        "base_config": asdict(base_config),
        "axes": {k: list(axes[k]) for k in SWEEP_AXES if k in axes},
        "columns": list(GRID_COLUMNS),
        "rows": rows,
    }


def render_grid(doc: dict) -> str:
    """Human-readable table of a sweep document."""
    axis_names = list(doc["axes"])
    headers = axis_names + [c for c in doc["columns"]
                            if c in ("wall_time", "remote_wait", "misses",
                                     "messages")]
    rows = [[row[h] for h in headers] for row in doc["rows"]]
    return format_table(
        headers, rows,
        title=(f"{doc['app']} sweep [{doc['backend']}] "
               f"({len(doc['rows'])} points)"),
        floatfmt=".4g",
    )


def export_grid(path, doc: dict) -> None:
    """Atomically export a sweep document as ``.json`` or ``.csv``.

    The CSV projection holds the rows only (axis columns then metric
    columns, same order as the JSON), so either format is diffable
    between backends.
    """
    from repro.util.atomicio import atomic_write_json, atomic_write_text

    out = pathlib.Path(path)
    if out.suffix == ".json":
        atomic_write_json(out, doc)
    elif out.suffix == ".csv":
        import csv
        import io

        headers = list(doc["axes"]) + list(doc["columns"])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        for row in doc["rows"]:
            writer.writerow([row[h] for h in headers])
        atomic_write_text(out, buf.getvalue())
    else:
        raise ConfigError(
            f"unsupported sweep export format {out.suffix!r} "
            f"(want .json or .csv)")


def node_scaling(nodes_list=(2, 4, 8, 16), n: int = 96) -> str:
    """Water under unopt/opt while the machine grows."""
    rows = []
    for nodes in nodes_list:
        cfg = MachineConfig(n_nodes=nodes, page_size=512, block_size=32,
                            per_byte_cost=0.6)
        base = water.build(n=n, iterations=3, work_scale=8.0).run(
            make_machine(cfg, "stache"), optimized=False
        ).finish()
        pred = water.build(n=n, iterations=3, work_scale=8.0).run(
            make_machine(cfg, "predictive"), optimized=True
        ).finish()
        rows.append([
            nodes,
            base.wall_time,
            pred.wall_time,
            base.wall_time / pred.wall_time,
            pred.hit_rate,
        ])
    return format_table(
        ["nodes", "unopt cycles", "opt cycles", "speedup", "opt hit rate"],
        rows,
        title=f"Node-count scaling (Water, {n} molecules)",
        floatfmt=".4g",
    )


def paper_geometry_fig5(size: int = 64, iterations: int = 6) -> str:
    """Adaptive on 32 nodes with the paper's 128x128/32p row geometry
    (4 rows per node band): the Figure-5 headline at paper geometry."""
    cfg = MachineConfig(n_nodes=32, page_size=512, per_byte_cost=0.6)
    rows = []
    results = {}
    for label, protocol, opt, bs in [
        ("unopt (32)", "stache", False, 32),
        ("unopt (256)", "stache", False, 256),
        ("opt (32)", "predictive", True, 32),
        ("opt (256)", "predictive", True, 256),
    ]:
        prog = adaptive.build(size=size, iterations=iterations,
                              threshold=0.05, work_scale=8.0)
        m = make_machine(cfg.with_(block_size=bs), protocol)
        stats = prog.run(m, optimized=opt).finish()
        results[label] = stats.wall_time
        rows.append([label, stats.wall_time, stats.hit_rate])
    best_unopt = min(results["unopt (32)"], results["unopt (256)"])
    best_opt = min(results["opt (32)"], results["opt (256)"])
    out = format_table(
        ["version", "cycles", "hit rate"],
        rows,
        title=f"Adaptive at paper geometry: 32 nodes, {size}x{size} mesh",
        floatfmt=".4g",
    )
    return out + (
        f"\nbest-opt is {best_unopt / best_opt:.2f}x faster than best-unopt "
        f"(paper: 1.56x at 128x128; our refined stripe covers a smaller "
        f"fraction of larger meshes, shrinking the headline ratio while the "
        f"per-block-size ordering stays the paper's)"
    )
