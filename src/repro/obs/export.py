"""Exporters for :class:`~repro.obs.bus.TelemetryBus` state.

Three formats, matching the three ways the numbers get consumed:

* :func:`to_jsonl` — the event log as JSON lines, one object per event,
  in emission order.  This is the append-only "what happened when"
  record the chain-of-custody framing calls for;
* :func:`to_prometheus` — a Prometheus-text-format snapshot of the
  counters, gauges, and histograms, for eyeballing or scraping;
* :func:`to_chrome_trace` — the span timeline in Chrome ``about:tracing``
  format, delegated to the bus's :class:`TraceRecorder` sink.

Plus :func:`snapshot_json`, the canonical machine-readable snapshot that
``scripts/obs_schema.json`` validates and benchmarks write alongside
their ``BENCH_*.json`` results.
"""

from __future__ import annotations

import json
from typing import List

from repro.obs.bus import TelemetryBus

__all__ = ["to_jsonl", "to_prometheus", "to_chrome_trace", "snapshot_json"]


def to_jsonl(bus: TelemetryBus) -> str:
    """The bus's event log as newline-delimited JSON, in emission order."""
    return "\n".join(json.dumps(event.as_dict(), sort_keys=True)
                     for event in bus.events)


def _metric_name(name: str) -> str:
    """Map a dotted bus name onto the Prometheus grammar.

    ``device.scpu.seconds`` becomes ``repro_device_scpu_seconds``; the
    ``repro_`` prefix namespaces the store against anything else a
    scrape might pick up.  Only ASCII letters and digits survive; every
    other character becomes ``_``.
    """
    return "repro_" + "".join(
        ch if ch.isascii() and ch.isalnum() else "_" for ch in name)


def to_prometheus(bus: TelemetryBus) -> str:
    """Counters, gauges, and histograms in Prometheus text format."""
    snapshot = bus.snapshot()
    lines: List[str] = []
    for name in sorted(snapshot["counters"]):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot['counters'][name]}")
    for name in sorted(snapshot["gauges"]):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {snapshot['gauges'][name]}")
    for name in sorted(snapshot["histograms"]):
        metric = _metric_name(name)
        data = snapshot["histograms"][name]
        lines.append(f"# TYPE {metric} histogram")
        for bucket in data["buckets"]:
            lines.append(
                f'{metric}_bucket{{le="{bucket["le"]}"}} {bucket["count"]}')
        lines.append(f"{metric}_sum {data['sum']}")
        lines.append(f"{metric}_count {data['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_chrome_trace(bus: TelemetryBus) -> str:
    """The span timeline as a Chrome ``about:tracing`` JSON document."""
    if bus.trace is None:
        return "[]"
    return bus.trace.to_chrome_trace()


def snapshot_json(bus: TelemetryBus, indent: int = 2) -> str:
    """The canonical snapshot as a JSON document (schema-validated in CI)."""
    return json.dumps(bus.snapshot(), indent=indent, sort_keys=True)
