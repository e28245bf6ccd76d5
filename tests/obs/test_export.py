"""Exporters, the schema-subset validator, and the `obs` CLI end to end."""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.cli import main
from repro.obs import (
    TelemetryBus,
    load_schema,
    snapshot_json,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
    validate,
)
from repro.sim.tracing import TraceRecorder

SCHEMA_PATH = Path(__file__).parents[2] / "scripts" / "obs_schema.json"

#: The Prometheus metric-name grammar.
METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


def populated_bus() -> TelemetryBus:
    bus = TelemetryBus(trace=TraceRecorder())
    bus.inc("store.writes", 3)
    bus.register_gauge("strengthen.backlog", lambda: 2.0)
    bus.observe("op.write.seconds", 0.4, buckets=(0.1, 1.0))
    bus.event("failover", 5.0, from_shard=0, to_shard=1)
    bus.event("maintenance", 9.0)
    bus.span("write", "scpu", 0.0, 1.5, device="scpu")
    return bus


class TestJsonl:
    def test_one_json_object_per_event_in_order(self):
        lines = to_jsonl(populated_bus()).splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed == [
            {"name": "failover", "t": 5.0, "from_shard": 0, "to_shard": 1},
            {"name": "maintenance", "t": 9.0},
        ]

    def test_empty_bus_exports_empty_string(self):
        assert to_jsonl(TelemetryBus()) == ""


class TestPrometheus:
    def test_counters_gauges_histograms_rendered(self):
        text = to_prometheus(populated_bus())
        assert "# TYPE repro_store_writes counter" in text
        assert "repro_store_writes 3.0" in text
        assert "# TYPE repro_strengthen_backlog gauge" in text
        assert "repro_strengthen_backlog 2.0" in text
        assert "# TYPE repro_op_write_seconds histogram" in text
        assert 'repro_op_write_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_op_write_seconds_bucket{le="1.0"} 1' in text
        assert 'repro_op_write_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_op_write_seconds_count 1" in text

    def test_dotted_names_mapped_to_metric_grammar(self):
        bus = TelemetryBus()
        bus.inc("device.scpu.seconds", 1.5)
        assert "repro_device_scpu_seconds 1.5" in to_prometheus(bus)

    def test_every_series_name_fits_the_grammar_once(self, capsys):
        """A scraper rejects a name outside the metric grammar and a
        ``# TYPE`` line repeated for one series."""
        assert main(["obs", "--shards", "2", "--records", "12",
                     "--fault-rate", "0", "--format", "prom"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line]
        typed = [line.split()[2] for line in lines
                 if line.startswith("# TYPE ")]
        assert len(typed) == len(set(typed))
        assert "repro_service_tenant_default_requests" in typed
        bus = TelemetryBus()
        bus.inc("service.tenant.café.requests")
        lines += to_prometheus(bus).splitlines()
        for line in lines:
            name = (line.split()[2] if line.startswith("# TYPE ")
                    else re.split(r"[{ ]", line, maxsplit=1)[0])
            assert METRIC_NAME.fullmatch(name), line


class TestChromeTrace:
    def test_spans_export_as_trace_events(self):
        events = json.loads(to_chrome_trace(populated_bus()))
        assert any(e.get("name") == "write" for e in events)

    def test_no_sink_exports_empty_document(self):
        assert json.loads(to_chrome_trace(TelemetryBus())) == []


class TestSnapshotJson:
    def test_round_trips_the_snapshot(self):
        bus = populated_bus()
        assert json.loads(snapshot_json(bus)) == json.loads(
            json.dumps(bus.snapshot()))


class TestSchemaValidator:
    def test_committed_schema_loads(self):
        schema = load_schema(SCHEMA_PATH)
        assert schema["type"] == "object"

    def test_valid_instance_passes(self):
        schema = {"type": "object", "required": ["a"],
                  "properties": {"a": {"type": "integer"}},
                  "additionalProperties": {"type": "number"}}
        assert validate({"a": 1, "b": 2.5}, schema) == []

    def test_missing_required_key_reported(self):
        schema = {"type": "object", "required": ["counters"]}
        problems = validate({}, schema)
        assert problems == ["$: missing required key 'counters'"]

    def test_wrong_type_reported_with_path(self):
        schema = {"type": "object",
                  "properties": {"spans": {"type": "integer"}}}
        problems = validate({"spans": "three"}, schema)
        assert problems == ["$.spans: expected integer, got str"]

    def test_bool_is_not_a_number(self):
        # bool subclasses int; the schema means real numbers.
        assert validate(True, {"type": "number"}) != []
        assert validate(True, {"type": "integer"}) != []
        assert validate(True, {"type": "boolean"}) == []

    def test_array_items_validated_by_index(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        problems = validate([1, "x", 3], schema)
        assert problems == ["$[1]: expected integer, got str"]

    def test_additional_properties_false_rejects_extras(self):
        schema = {"type": "object", "properties": {"a": {}},
                  "additionalProperties": False}
        assert validate({"a": 1, "b": 2}, schema) == \
            ["$: unexpected key 'b'"]

    def test_counter_rename_fails_the_committed_schema(self):
        """The CI property: renaming a counter must be a schema violation."""
        bus = TelemetryBus()
        snapshot = bus.snapshot()
        problems = validate(snapshot, load_schema(SCHEMA_PATH))
        # An empty bus is missing every required name — same failure mode
        # a rename produces for the one renamed counter.
        assert any("store.writes" in p for p in problems)
        assert any("strengthen.lifetime_violations" in p for p in problems)


class TestObsCli:
    def test_fault_free_run_exits_clean(self, capsys):
        assert main(["obs", "--shards", "2", "--records", "12",
                     "--fault-rate", "0"]) == 0
        captured = capsys.readouterr()
        assert "device.scpu.seconds" in captured.out
        assert "MISMATCH" not in captured.err

    def test_snapshot_passes_committed_schema(self, capsys):
        assert main(["obs", "--shards", "2", "--records", "12",
                     "--fault-rate", "0", "--format", "snapshot",
                     "--check", str(SCHEMA_PATH)]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert validate(snapshot, load_schema(SCHEMA_PATH)) == []
        counters = snapshot["counters"]
        # Every write in this run is a group commit (one multi-record
        # write() per group), and the CLI reads 8 receipts back.
        assert counters["store.writes"] == counters["sharded.group_commits"]
        assert counters["store.writes"] > 0
        assert counters["store.reads"] == 8

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "telemetry.jsonl"
        assert main(["obs", "--shards", "2", "--records", "12",
                     "--fault-rate", "0", "--format", "jsonl",
                     "--out", str(target)]) == 0
        for line in target.read_text().strip().splitlines():
            json.loads(line)
        capsys.readouterr()

    def test_invalid_arguments_rejected(self, capsys):
        assert main(["obs", "--shards", "1", "--tamper-after", "5"]) == 2
        capsys.readouterr()
