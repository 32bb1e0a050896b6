"""The metrics registry: labelled counters, gauges, and histograms.

One registry describes one scope (a node, a run, a benchmark version, a
fault campaign); registries **merge**, which is how per-node metrics roll up
to a run and how sweep/ablation results aggregate without ad-hoc dicts.
Merge semantics are chosen so that merging is commutative and associative
with the empty registry as identity (property-tested in
``tests/obs/test_metrics.py``):

* counters add,
* histograms add bucket-wise (bucket boundaries must match), conserving
  total observation counts,
* gauges keep the maximum (cross-scope aggregation of a level-style metric
  reports the peak).

Serialization (:meth:`MetricsRegistry.to_dict` / ``from_dict``) is a
versioned, sorted, JSON-safe schema (:data:`METRICS_SCHEMA`) shared by
``repro run --metrics-out``, ``repro reproduce --metrics-out``, the fault
campaign, and the benchmark harness.

:func:`registry_from_run` folds a finished run's
:class:`~repro.sim.stats.RunStats` — the structure the paper figures read —
into this schema, so ``NodeStats`` stays the in-run accumulator (its hot
paths are untouched) while every exporter downstream speaks metrics.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

METRICS_SCHEMA = "repro.metrics/v1"

#: default histogram bucket upper bounds (exponential, cycles-flavoured)
DEFAULT_BUCKETS = (
    10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 30_000.0,
    100_000.0, 300_000.0, 1_000_000.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_payload(self) -> dict[str, Any]:
        return {"value": self.value}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Counter":
        return cls(payload["value"])


class Gauge:
    """A point-in-time level; merge keeps the peak."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)

    def to_payload(self) -> dict[str, Any]:
        return {"value": self.value}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Gauge":
        return cls(payload["value"])


class Histogram:
    """Fixed-boundary histogram with an overflow bucket, plus sum/count."""

    kind = "histogram"
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(f"bucket bounds must be strictly increasing: {buckets}")
        self.counts = [0] * (len(self.buckets) + 1)  # [+1] = overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.count += other.count

    def to_payload(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Histogram":
        h = cls(payload["buckets"])
        h.counts = list(payload["counts"])
        h.sum = payload["sum"]
        h.count = payload["count"]
        return h


_METRIC_TYPES = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}

Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """A named, labelled collection of metrics.

    Accessors are get-or-create: ``reg.counter("node.read_misses", node=3)``
    returns the same :class:`Counter` on every call with the same name and
    labels.  A name is bound to one metric type; reusing it with another
    type raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], Metric] = {}

    # -- accessors -------------------------------------------------------------

    def _fetch(self, name: str, labels: Mapping[str, Any], cls, **kwargs) -> Metric:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(**kwargs)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._fetch(name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._fetch(name, labels, Gauge)

    def histogram(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        return self._fetch(name, labels, Histogram, buckets=buckets)

    # -- merge -----------------------------------------------------------------

    def update(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry in place; returns self."""
        for (name, key), theirs in other._metrics.items():
            mine = self._metrics.get((name, key))
            if mine is None:
                self._metrics[(name, key)] = _copy_metric(theirs)
            elif type(mine) is not type(theirs):
                raise TypeError(
                    f"cannot merge {theirs.kind} into {mine.kind} for {name!r}"
                )
            else:
                mine.merge(theirs)
        return self

    @classmethod
    def merge_all(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """A new registry holding ``registries`` merged (they are unchanged)."""
        out = cls()
        for reg in registries:
            out.update(reg)
        return out

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        metrics = [
            {
                "name": name,
                "labels": dict(key),
                "type": metric.kind,
                **metric.to_payload(),
            }
            for (name, key), metric in sorted(
                self._metrics.items(), key=lambda kv: kv[0]
            )
        ]
        return {"schema": METRICS_SCHEMA, "metrics": metrics}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "MetricsRegistry":
        if doc.get("schema") != METRICS_SCHEMA:
            raise ValueError(
                f"unsupported metrics schema {doc.get('schema')!r}; "
                f"expected {METRICS_SCHEMA!r}"
            )
        reg = cls()
        for rec in doc["metrics"]:
            mcls = _METRIC_TYPES.get(rec["type"])
            if mcls is None:
                raise ValueError(f"unknown metric type {rec['type']!r}")
            key = (rec["name"], _label_key(rec["labels"]))
            if key in reg._metrics:
                raise ValueError(f"duplicate series {key}")
            payload = {k: v for k, v in rec.items()
                       if k not in ("name", "labels", "type")}
            reg._metrics[key] = mcls.from_payload(payload)
        return reg


def _copy_metric(metric: Metric) -> Metric:
    return type(metric).from_payload(metric.to_payload())


# --------------------------------------------------------------------------- #
# RunStats -> registry
# --------------------------------------------------------------------------- #

#: NodeStats counter attributes folded into per-node counter series
_NODE_COUNTERS = (
    "read_misses", "write_misses", "local_hits",
    "presend_blocks_sent", "presend_blocks_received", "presend_useless_blocks",
    "messages_sent", "bytes_sent",
    "transport_retries", "transport_timeouts", "duplicates_suppressed",
    "crashes", "reissued_requests",
)


def registry_from_run(stats, **labels: Any) -> MetricsRegistry:
    """Fold one run's :class:`~repro.sim.stats.RunStats` into a registry.

    ``labels`` (e.g. ``app="water", protocol="predictive"``) are stamped on
    every series, which is what makes sweep and ablation results mergeable:
    the same metric names with different label values coexist in one
    registry.
    """
    reg = MetricsRegistry()
    reg.gauge("run.wall_cycles", **labels).set(stats.wall_time)
    reg.counter("run.phases", **labels).inc(len(stats.phases))
    reg.counter("run.remote_requests", **labels).inc(stats.total_remote_requests)
    reg.counter("run.schedules_degraded", **labels).inc(stats.schedules_degraded)
    for node in stats.nodes:
        for category, cycles in node.cycles.items():
            reg.counter("node.cycles", node=node.node,
                        category=category.value, **labels).inc(cycles)
        for attr in _NODE_COUNTERS:
            value = getattr(node, attr)
            if value:
                reg.counter(f"node.{attr}", node=node.node, **labels).inc(value)
    phase_wall = reg.histogram("phase.wall_cycles", **labels)
    phase_misses = reg.histogram(
        "phase.misses", buckets=(0, 1, 3, 10, 30, 100, 300, 1000), **labels
    )
    for phase in stats.phases:
        phase_wall.observe(phase.wall)
        phase_misses.observe(phase.misses)
    return reg
