"""Metrics registry: accessors, merge algebra (property-tested), serde."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.metrics import METRICS_SCHEMA, _label_key

from tests.helpers import metric_series, metric_value


class TestPrimitives:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_peak_merge(self):
        g = Gauge()
        g.set(4.0)
        other = Gauge(9.0)
        g.merge(other)
        assert g.value == 9.0

    def test_histogram_buckets(self):
        h = Histogram(buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]  # one per bucket + overflow
        assert h.count == 4
        assert h.sum == pytest.approx(0.5 + 5 + 50 + 500)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(10, 1))
        with pytest.raises(ValueError):
            Histogram(buckets=(1, 1, 10))

    def test_histogram_merge_rejects_mismatched_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1, 10)).merge(Histogram(buckets=(1, 100)))


class TestRegistryAccessors:
    def test_get_or_create_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("x", node=1) is reg.counter("x", node=1)
        assert reg.counter("x", node=1) is not reg.counter("x", node=2)

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("x", node=1, app="water")
        b = reg.counter("x", app="water", node=1)
        assert a is b
        assert _label_key({"b": 1, "a": 2}) == _label_key({"a": 2, "b": 1})

    def test_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_series_sorted(self):
        reg = MetricsRegistry()
        reg.counter("m", node=2).inc()
        reg.counter("m", node=0).inc()
        labels = [m["labels"] for m in metric_series(reg, "m")]
        assert labels == [{"node": "0"}, {"node": "2"}]


# --------------------------------------------------------------------------- #
# merge algebra (satellite: commutative, associative, identity, conservation)
# --------------------------------------------------------------------------- #

_BUCKETS = (1.0, 10.0, 100.0)  # one shared shape so merges are legal

# integer-valued amounts keep float addition exact, so the associativity
# property tests the merge algebra rather than float rounding
_amount = st.integers(0, 1000).map(float)
_counter_ops = st.lists(
    st.tuples(st.sampled_from(["reqs", "misses"]),
              st.integers(0, 3), _amount),
    max_size=6,
)
_gauge_ops = st.lists(
    st.tuples(st.sampled_from(["depth"]), st.integers(0, 3), _amount),
    max_size=4,
)
_hist_ops = st.lists(
    st.tuples(st.sampled_from(["lat"]), st.integers(0, 3), _amount),
    max_size=6,
)


@st.composite
def registries(draw):
    reg = MetricsRegistry()
    for name, node, amount in draw(_counter_ops):
        reg.counter(name, node=node).inc(amount)
    for name, node, value in draw(_gauge_ops):
        reg.gauge(name, node=node).set(value)
    for name, node, value in draw(_hist_ops):
        reg.histogram(name, buckets=_BUCKETS, node=node).observe(value)
    return reg


def canonical(reg: MetricsRegistry):
    return reg.to_dict()


def merged(*regs: MetricsRegistry) -> MetricsRegistry:
    return MetricsRegistry.merge_all(regs)


class TestMergeAlgebra:
    @given(registries(), registries())
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        assert canonical(merged(a, b)) == canonical(merged(b, a))

    @given(registries(), registries(), registries())
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        assert (canonical(merged(merged(a, b), c))
                == canonical(merged(a, merged(b, c))))

    @given(registries())
    @settings(max_examples=60, deadline=None)
    def test_empty_is_identity(self, a):
        empty = MetricsRegistry()
        assert canonical(merged(a, empty)) == canonical(a)
        assert canonical(merged(empty, a)) == canonical(a)

    @given(registries(), registries())
    @settings(max_examples=60, deadline=None)
    def test_merge_is_pure(self, a, b):
        before_a, before_b = canonical(a), canonical(b)
        merged(a, b)
        assert canonical(a) == before_a
        assert canonical(b) == before_b

    @given(registries(), registries())
    @settings(max_examples=60, deadline=None)
    def test_histogram_counts_conserved(self, a, b):
        both = merged(a, b)

        def totals(reg):
            total, per_bucket = 0, [0] * (len(_BUCKETS) + 1)
            for h in metric_series(reg, "lat"):
                total += h["count"]
                per_bucket = [x + y for x, y in zip(per_bucket, h["counts"])]
            return total, per_bucket

        ta, ba = totals(a)
        tb, bb = totals(b)
        tm, bm = totals(both)
        assert tm == ta + tb
        assert bm == [x + y for x, y in zip(ba, bb)]
        # within every histogram, bucket counts always sum to its count
        for h in metric_series(both, "lat"):
            assert sum(h["counts"]) == h["count"]

    @given(registries(), registries())
    @settings(max_examples=60, deadline=None)
    def test_counter_totals_add(self, a, b):
        def total(reg, name):
            return sum(m["value"] for m in metric_series(reg, name))

        both = merged(a, b)
        for name in ("reqs", "misses"):
            assert total(both, name) == pytest.approx(
                total(a, name) + total(b, name))

    @given(registries())
    @settings(max_examples=60, deadline=None)
    def test_serde_roundtrip(self, a):
        assert canonical(MetricsRegistry.from_dict(a.to_dict())) == canonical(a)

    @given(registries(), registries())
    @settings(max_examples=30, deadline=None)
    def test_merge_all_matches_pairwise(self, a, b):
        pairwise = MetricsRegistry().update(a).update(b)
        assert (canonical(MetricsRegistry.merge_all([a, b]))
                == canonical(pairwise))


class TestSerde:
    def test_schema_stamped(self):
        assert MetricsRegistry().to_dict()["schema"] == METRICS_SCHEMA

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            MetricsRegistry.from_dict({"schema": "nope/v9", "metrics": []})

    def test_rejects_unknown_type(self):
        doc = {"schema": METRICS_SCHEMA,
               "metrics": [{"name": "x", "labels": {}, "type": "summary",
                            "value": 1.0}]}
        with pytest.raises(ValueError):
            MetricsRegistry.from_dict(doc)

    def test_rejects_duplicate_series(self):
        rec = {"name": "x", "labels": {}, "type": "counter", "value": 1.0}
        doc = {"schema": METRICS_SCHEMA, "metrics": [rec, dict(rec)]}
        with pytest.raises(ValueError):
            MetricsRegistry.from_dict(doc)


class TestRegistryFromRun:
    def test_node_cycles_sum_to_wall(self):
        from tests.obs.test_events import traced_run

        from repro.obs import registry_from_run

        stats = traced_run(protocol="predictive")
        reg = registry_from_run(stats, app="jacobi", protocol="predictive")
        assert metric_value(reg, "run.wall_cycles", app="jacobi",
                            protocol="predictive") == stats.wall_time
        # per-node category cycles must reproduce conservation
        for node in stats.nodes:
            total = sum(
                m["value"] for m in metric_series(reg, "node.cycles")
                if m["labels"]["node"] == str(node.node)
            )
            assert total == pytest.approx(stats.wall_time)
        (hist,) = metric_series(reg, "phase.wall_cycles")
        assert hist["count"] == len(stats.phases)
