"""repro.obs — the store-wide observability subsystem.

One :class:`~repro.obs.bus.TelemetryBus` per store (shared across the
shards of a sharded store via ``StoreConfig(observe=bus)``) collects
counters, gauges, histograms, events, and spans from every layer —
:class:`~repro.core.worm.StrongWormStore`,
:class:`~repro.core.sharded.ShardedWormStore`, the retry loop, the
circuit breakers, the deferred queues, and the device meters.  Every
count has one home: a count a component already keeps (a meter total,
``RetryStats``, a queue's tallies) is read from it at snapshot time,
never mirrored, so the telemetry cannot drift from ``health_report``
or ``cost_summary``.  The :mod:`~repro.obs.export` module renders the
bus in three formats, and :mod:`~repro.obs.schema` validates a
snapshot against the committed name schema.
"""

from repro.obs.bus import (
    DEFAULT_BUCKETS,
    NULL_BUS,
    Histogram,
    TelemetryBus,
    TelemetryEvent,
)
from repro.obs.export import snapshot_json, to_chrome_trace, to_jsonl, to_prometheus
from repro.obs.schema import load_schema, validate

__all__ = [
    "DEFAULT_BUCKETS",
    "NULL_BUS",
    "Histogram",
    "TelemetryBus",
    "TelemetryEvent",
    "snapshot_json",
    "to_chrome_trace",
    "to_jsonl",
    "to_prometheus",
    "load_schema",
    "validate",
]
