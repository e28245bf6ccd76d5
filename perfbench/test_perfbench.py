"""Tests of the benchmark's own machinery (not of the program it measures).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import keyset  # noqa: E402
import run  # noqa: E402
import traffic  # noqa: E402
from spans import SpanRecorder  # noqa: E402


class Ticks:
    """A fake nanosecond clock that returns scripted readings in order."""

    def __init__(self, *readings: int) -> None:
        self._readings = list(readings)

    def __call__(self) -> int:
        return self._readings.pop(0)


# ------------------------------------------------------------ self time

def test_nested_and_sibling_spans_split_self_time():
    # outer [0, 100] holds two siblings [10, 30] and [40, 70].
    rec = SpanRecorder(clock=Ticks(0, 10, 30, 40, 70, 100))
    rec.enter("store", "store.write")
    rec.enter("scpu", "scpu.witness_write")
    rec.exit()
    rec.enter("blocks", "blocks.put")
    rec.exit()
    rec.exit()
    assert rec.self_ns == {"store": 50, "scpu": 20, "blocks": 30}
    assert rec.top_level_ns == 100
    assert [span[4] for span in rec.spans] == [-1, 0, 0]  # parents
    assert rec.name_ns["store.write"] == 100


def test_grandchildren_are_subtracted_only_from_their_parent():
    # a [0, 100] > b [10, 90] > c [20, 50]
    rec = SpanRecorder(clock=Ticks(0, 10, 20, 50, 90, 100))
    rec.enter("service", "a")
    rec.enter("sharded", "b")
    rec.enter("crypto.sign", "c")
    rec.exit()
    rec.exit()
    rec.exit()
    assert rec.self_ns == {"service": 20, "sharded": 50, "crypto.sign": 30}
    assert sum(rec.self_ns.values()) == rec.top_level_ns == 100


def test_top_level_siblings_leave_the_gaps_to_the_loop():
    rec = SpanRecorder(clock=Ticks(5, 15, 40, 70))
    rec.enter("service", "service.handle")
    rec.exit()
    rec.enter("service", "service.handle")
    rec.exit()
    assert rec.top_level_ns == 40
    assert rec.self_ns == {"service": 40}
    wall = 70 - 5
    assert wall - rec.top_level_ns == 25  # the benchmark loop's own self time


def test_calls_count_entries_from_outside_the_layer():
    rec = SpanRecorder(clock=Ticks(*range(8)))
    rec.enter("journal", "journal.append")       # from the benchmark loop
    rec.enter("journal", "journal.append")       # inner journal: same layer
    rec.exit()
    rec.enter("replication", "replication.send_sync")
    rec.exit()
    rec.exit()
    rec.enter("journal", "journal.append")
    rec.exit()
    assert rec.calls == {"journal": 2, "replication": 1}


def test_install_wraps_at_class_level_and_uninstall_restores():
    class Device:
        def put(self, data):
            return len(data)

        def _private(self):
            return "untouched"

    original = Device.put
    seen = []
    rec = SpanRecorder()
    rec.install(Device, "blocks", hooks={
        "put": lambda r, args, kwargs, result, parent:
        seen.append((args[1], result, parent))})
    assert Device.put is not original
    assert Device._private(Device()) == "untouched"
    rec.enter("store", "store.write")
    assert Device().put(b"abc") == 3
    rec.exit()
    assert seen == [(b"abc", 3, "store")]
    assert rec.calls == {"store": 1, "blocks": 1}
    assert [span[0] for span in rec.spans] == ["store.write", "blocks.put"]
    rec.uninstall()
    assert Device.put is original


def test_spans_record_the_request_id(tmp_path):
    rec = SpanRecorder(clock=Ticks(0, 1, 2, 3))
    rec.request_id = 7
    rec.enter("service", "service.handle")
    rec.exit()
    rec.request_id = 8
    rec.enter("service", "service.handle")
    rec.exit()
    assert rec.dump(tmp_path / "spans.jsonl") == 2
    lines = [json.loads(line) for line in
             (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [line["request"] for line in lines] == [7, 8]


# ---------------------------------------------------------- determinism

def test_every_generator_repeats_for_a_seed_and_differs_across_seeds():
    for build in (traffic.ingest, traffic.audit_read, traffic.lifecycle,
                  traffic.site_recovery):
        assert build(3) == build(3), build.__name__
        assert build(3) != build(4), build.__name__


def test_ingest_traffic_has_calm_periods_bursts_and_batches():
    events = traffic.ingest(1)
    writes = [e for e in events if e.op in ("write", "write_batch")]
    batches = [e for e in writes if e.op == "write_batch"]
    assert 0.10 < len(batches) / len(writes) < 0.20
    assert all(len(e.payloads) == traffic.INGEST_BATCH for e in batches)
    sizes = [len(p) for e in writes for p in e.payloads]
    assert min(sizes) >= traffic.INGEST_SIZES[0]
    assert max(sizes) <= traffic.INGEST_SIZES[1]
    assert events[-1].op == "redeem"  # the run ends with every ticket redeemed


def test_audit_reads_name_expired_records_about_a_tenth_of_the_time():
    inputs = traffic.audit_read(1)
    reads = [r for r in inputs.requests if r.op != "write"]
    lapsed = sum(inputs.record_lapsed(r.record) for r in reads)
    assert 0.08 < lapsed / len(reads) < 0.12


def test_keys_repeat_for_a_seed_at_the_paper_sizes():
    first, again = keyset.provision(5), keyset.provision(5)
    assert first.primary.s_key.fingerprint == again.primary.s_key.fingerprint
    assert first.standby.d_key.fingerprint == again.standby.d_key.fingerprint
    assert first.primary.s_key.fingerprint != first.standby.s_key.fingerprint
    assert (first.primary.s_key.bits, first.primary.d_key.bits,
            first.primary.burst_key.bits) == (1024, 1024, 512)
    signature = first.primary.s_key.keypair.private.sign(b"m")
    assert first.primary.s_key.public.verify(b"m", signature)


# --------------------------------------------------------------- set-up

def test_setup_is_the_median_import_plus_the_median_pass_setup():
    def pass_(setup_s, ref_s):
        return SimpleNamespace(setup_s=setup_s, ref_s=ref_s, ref_nominal_s=0.1,
                               latencies={"write": [0.001, 0.002]}, work=10,
                               work_wall_s=1.0, model_s=1.0)
    passes = [pass_(0.1, 0.2), pass_(0.3, 0.1)]   # speed factors 0.5, 1
    probes = [(0.2, 2.0), (0.25, 2.0), (0.4, 0.5)]  # (seconds, speed)
    spec = run.Workload(None, None, "write", {})
    scaled = run.end_to_end(passes, spec, probes)["setup_s"]
    raw = run.end_to_end(passes, spec, probes, scaled=False)["setup_s"]
    assert abs(scaled - (0.4 + 0.175)) < 1e-12
    assert abs(raw - (0.25 + 0.2)) < 1e-12


# ------------------------------------------------------------- contract

def test_benchmark_json_names_match_what_the_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.UNITS)
    for metric in bench["end_to_end"]:
        assert run.UNITS[metric["name"]] == metric["unit"]
    pass_result = SimpleNamespace(
        recorder=SpanRecorder(), layer={}, timed_s=1.0)
    printed = set(run.layer_metrics(pass_result)) | {"trace_overhead_ratio"}
    declared = {m["name"] for m in bench["per_layer"]}
    assert declared == printed
    for metric in bench["per_layer"]:
        assert run._layer_unit(metric["name"]) == metric["unit"]
