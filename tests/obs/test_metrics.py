"""Metrics-registry unit tests: instruments, series keys, snapshots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.metrics import _series_key


class TestCounter:
    def test_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.snapshot() == {"type": "counter", "value": 3.5}


class TestGauge:
    def test_up_and_down(self):
        g = Gauge()
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value == 3.0
        assert g.snapshot()["type"] == "gauge"


class TestHistogram:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_count_sum_min_max(self):
        h = Histogram(bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4 and h.sum == 555.5
        snap = h.snapshot()
        assert snap["min"] == 0.5 and snap["max"] == 500.0
        assert snap["buckets"] == [1, 1, 1, 1]   # incl. overflow bucket

    def test_quantiles(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0, 8.0))
        for _ in range(100):
            h.observe(1.5)
        q = h.quantile(0.5)
        assert 1.0 <= q <= 2.0                   # inside the winning bucket
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_never_below_observed_min(self):
        # 1.0 sits on a bucket's upper bound: interpolating inside
        # (0.5, 1.0] used to report p50 = 0.9 with min = 1.0.
        h = Histogram(bounds=(0.5, 1.0, 2.0, 4.0, 8.0))
        for value in [1.0] * 5 + [2.0] * 3:
            h.observe(value)
        assert h.quantile(0.5) == 1.0
        assert h.snapshot()["p50"] == 1.0

    def test_empty_quantile_is_none(self):
        h = Histogram()
        assert h.quantile(0.95) is None
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["p95"] is None
        assert snap["mean"] is None


_BOUNDS = st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8,
                   unique=True).map(sorted)
_VALUES = st.lists(st.floats(-10.0, 200.0), min_size=1, max_size=40)
_QS = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8)


class TestHistogramQuantileProperties:
    @settings(max_examples=200, deadline=None)
    @given(bounds=_BOUNDS, values=_VALUES, qs=_QS)
    def test_inside_observed_range(self, bounds, values, qs):
        h = Histogram(bounds=tuple(bounds))
        for value in values:
            h.observe(value)
        for q in qs:
            assert min(values) <= h.quantile(q) <= max(values)

    @settings(max_examples=200, deadline=None)
    @given(bounds=_BOUNDS, values=_VALUES, qs=_QS)
    def test_monotone_in_q(self, bounds, values, qs):
        h = Histogram(bounds=tuple(bounds))
        for value in values:
            h.observe(value)
        estimates = [h.quantile(q) for q in sorted(qs)]
        assert estimates == sorted(estimates)


class TestSeriesKeys:
    def test_labels_sorted_into_key(self):
        assert _series_key("m", {}) == "m"
        assert _series_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        a = reg.counter("x.total", worker="w0")
        b = reg.counter("x.total", worker="w0")
        c = reg.counter("x.total", worker="w1")
        assert a is b and a is not c
        assert len(reg) == 2

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x.total")
        with pytest.raises(TypeError):
            reg.gauge("x.total")
        with pytest.raises(TypeError):
            reg.histogram("x.total")

    def test_snapshot_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("serving.requests_total").inc()
        reg.gauge("edge.inflight", worker="w0").set(2)
        snap = reg.snapshot("serving.")
        assert list(snap) == ["serving.requests_total"]
        full = reg.snapshot()
        assert set(full) == {"serving.requests_total",
                             "edge.inflight{worker=w0}"}

    def test_snapshot_is_json_safe(self):
        import json
        reg = MetricsRegistry()
        reg.histogram("lat.seconds").observe(0.01)
        reg.counter("n.total").inc()
        json.dumps(reg.snapshot())   # must not raise

    def test_render_text_skips_empty_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("empty.seconds")
        reg.counter("n.total").inc(3)
        text = reg.render_text()
        assert "empty.seconds" not in text
        assert "n.total  3" in text

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a.total").inc()
        reg.reset()
        assert len(reg) == 0
        assert reg.counter("a.total").value == 0.0

    def test_global_registry_is_singleton(self):
        assert get_registry() is get_registry()
