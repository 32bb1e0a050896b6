"""Observability: structured event tracing, metrics, and phase profiling.

The subsystem has four layers, each usable on its own:

* :mod:`repro.obs.events` — a typed, timestamped **event bus**.  Every
  instrumented site in the engine, protocols, transport, schedule store,
  and crash-recovery layers emits through ``machine.obs``; the default
  sink is :data:`~repro.obs.events.NULL_TRACER`, whose disabled flag
  short-circuits every site to a single attribute check (see
  :mod:`repro.bench.overhead` for the guard-cost bound the CI enforces).
* :mod:`repro.obs.metrics` — a **metrics registry** (counters, gauges,
  histograms with labels) that is mergeable across nodes and runs;
  :func:`~repro.obs.metrics.registry_from_run` folds a finished run's
  :class:`~repro.sim.stats.RunStats` into the registry schema, so the
  paper-figure statistics and the benchmark harness share one format.
* :mod:`repro.obs.profiler` — a **phase profiler** attributing cycles and
  events to (phase, iteration) and schedule quality to (directive,
  instance): prediction accuracy, pre-send coverage, waste ratio, and
  coalescing efficiency over time.
* :mod:`repro.obs.export` — exporters: Chrome/Perfetto ``trace.json``
  timelines (per-node tracks, phase spans, message-flow arrows), JSONL
  event logs, and the validator the CI trace smoke runs.

:mod:`repro.obs.jsonout` provides the versioned machine-readable stats
schema behind ``repro run --json`` and ``repro reproduce --json``.
"""

from repro.obs.events import (
    NULL_TRACER,
    EventKind,
    EventTrace,
    TraceEvent,
    Tracer,
)
from repro.obs.export import (
    chrome_trace_document,
    load_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.jsonout import STATS_SCHEMA, run_stats_json
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry_from_run,
)
from repro.obs.profiler import PhaseProfile, ProfileReport, profile_run

__all__ = [
    "NULL_TRACER",
    "EventKind",
    "EventTrace",
    "TraceEvent",
    "Tracer",
    "chrome_trace_document",
    "load_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "STATS_SCHEMA",
    "run_stats_json",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry_from_run",
    "PhaseProfile",
    "ProfileReport",
    "profile_run",
]
