"""Unit tests for the telemetry bus (counters, gauges, histograms, events).

The bus is untrusted main-CPU bookkeeping: it never reads a clock
(callers stamp virtual times), a disabled bus is a pure no-op, and the
snapshot is the single export surface everything downstream (schema
check, benchmarks) keys on.
"""

from __future__ import annotations

import pytest

from repro.obs import DEFAULT_BUCKETS, NULL_BUS, Histogram, TelemetryBus
from repro.sim.tracing import TraceRecorder


class TestCounters:
    def test_inc_and_read(self):
        bus = TelemetryBus()
        bus.inc("store.writes")
        bus.inc("store.writes", 2.0)
        assert bus.counter("store.writes") == 3.0

    def test_untouched_counter_reads_zero(self):
        assert TelemetryBus().counter("never.touched") == 0.0

    def test_declared_counter_appears_in_snapshot_at_zero(self):
        bus = TelemetryBus()
        bus.declare_counter("store.reads")
        assert bus.snapshot()["counters"] == {"store.reads": 0.0}

    def test_counters_are_monotonic(self):
        bus = TelemetryBus()
        with pytest.raises(ValueError):
            bus.inc("store.writes", -1.0)

    def test_fractional_increments_accumulate(self):
        bus = TelemetryBus()
        bus.inc("device.scpu.seconds", 0.25)
        bus.inc("device.scpu.seconds", 0.5)
        assert bus.counter("device.scpu.seconds") == pytest.approx(0.75)


class TestGauges:
    def test_multiple_providers_sum(self):
        # One provider per shard; the snapshot reports the store total.
        bus = TelemetryBus()
        bus.register_gauge("strengthen.backlog", lambda: 3.0)
        bus.register_gauge("strengthen.backlog", lambda: 4.0)
        assert bus.gauge_value("strengthen.backlog") == 7.0
        assert bus.snapshot()["gauges"]["strengthen.backlog"] == 7.0

    def test_gauges_are_pull_style(self):
        bus = TelemetryBus()
        backlog = [5]
        bus.register_gauge("depth", lambda: float(backlog[0]))
        assert bus.gauge_value("depth") == 5.0
        backlog[0] = 2
        assert bus.gauge_value("depth") == 2.0

    def test_unregistered_gauge_reads_zero(self):
        assert TelemetryBus().gauge_value("nope") == 0.0


class TestHistogram:
    def test_buckets_are_cumulative(self):
        h = Histogram(buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            h.observe(value)
        data = h.as_dict()
        assert data["count"] == 4
        assert data["sum"] == pytest.approx(106.2)
        assert data["buckets"] == [
            {"le": 1.0, "count": 2},
            {"le": 10.0, "count": 3},
            {"le": "+Inf", "count": 4},
        ]

    def test_bounds_are_sorted(self):
        assert Histogram(buckets=(5.0, 1.0)).bounds == (1.0, 5.0)

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_bus_observe_creates_on_first_use(self):
        bus = TelemetryBus()
        bus.observe("op.write.seconds", 0.3)
        histogram = bus.histogram("op.write.seconds")
        assert histogram is not None
        assert histogram.count == 1
        assert histogram.bounds == tuple(sorted(DEFAULT_BUCKETS))

    def test_declared_histogram_in_snapshot_when_empty(self):
        bus = TelemetryBus()
        bus.declare_histogram("op.read.seconds")
        data = bus.snapshot()["histograms"]["op.read.seconds"]
        assert data["count"] == 0
        assert data["sum"] == 0.0


class TestEvents:
    def test_events_record_virtual_time_and_fields(self):
        bus = TelemetryBus()
        bus.event("failover", 12.5, from_shard=1, to_shard=2)
        (event,) = bus.events
        assert event.time == 12.5
        assert event.as_dict() == {"name": "failover", "t": 12.5,
                                   "from_shard": 1, "to_shard": 2}

    def test_capacity_drops_are_counted_not_silent(self):
        bus = TelemetryBus(event_capacity=2)
        for i in range(5):
            bus.event("tick", float(i))
        assert len(bus.events) == 2
        assert bus.events_dropped == 3
        snapshot = bus.snapshot()["events"]
        assert snapshot["count"] == 2
        assert snapshot["dropped"] == 3
        assert snapshot["by_name"] == {"tick": 2}


class TestSpans:
    def test_spans_forward_to_trace_recorder(self):
        trace = TraceRecorder()
        bus = TelemetryBus(trace=trace)
        bus.span("write", "scpu", 0.0, 1.5, device="scpu")
        assert len(trace) == 1
        assert bus.snapshot()["spans"] == 1

    def test_span_without_sink_is_noop(self):
        bus = TelemetryBus()
        bus.span("write", "scpu", 0.0, 1.5)
        assert bus.snapshot()["spans"] == 0


class TestCounterViews:
    def test_providers_summed_at_read_time(self):
        # One provider per shard, read from the count the shard keeps.
        bus = TelemetryBus()
        kept = {"a": 2, "b": 5}
        bus.register_counter("retry.calls", lambda: kept["a"])
        bus.register_counter("retry.calls", lambda: kept["b"])
        assert bus.counter("retry.calls") == 7.0
        kept["a"] += 3
        assert bus.counter("retry.calls") == 10.0

    def test_views_present_in_snapshot_counters(self):
        bus = TelemetryBus()
        bus.inc("store.writes")
        bus.register_counter("device.scpu.ops", lambda: 4)
        assert bus.snapshot()["counters"] == {"store.writes": 1.0,
                                              "device.scpu.ops": 4.0}

    def test_a_name_is_pushed_or_read_never_both(self):
        bus = TelemetryBus()
        bus.register_counter("sharded.failovers", lambda: 1)
        with pytest.raises(ValueError):
            bus.inc("sharded.failovers")
        bus.inc("store.writes")
        with pytest.raises(ValueError):
            bus.register_counter("store.writes", lambda: 1)


class TestDisabledBus:
    def test_every_mutator_is_a_noop(self):
        bus = TelemetryBus(enabled=False)
        bus.declare_counter("c")
        bus.inc("c", 5.0)
        bus.register_gauge("g", lambda: 9.0)
        bus.declare_histogram("h")
        bus.observe("h", 1.0)
        bus.event("e", 0.0)
        bus.register_counter("v", lambda: 3.0)
        assert bus.counter("c") == 0.0
        assert bus.counter("v") == 0.0
        assert bus.gauge_value("g") == 0.0
        assert bus.histogram("h") is None
        assert bus.events == ()
        assert bus.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
            "events": {"count": 0, "dropped": 0, "by_name": {}},
            "spans": 0,
        }

    def test_null_bus_is_shared_and_disabled(self):
        assert NULL_BUS.enabled is False
        NULL_BUS.inc("should.not.stick")
        assert NULL_BUS.snapshot()["counters"] == {}
