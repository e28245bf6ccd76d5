"""Sharded group-commit scaling — the multi-store answer to §4.3/§5.

§4.3 shows per-record SCPU witnessing bounds write throughput; §5 notes
results "naturally scale if multiple SCPUs are available".  The sharded
front-end takes that to production shape: N independent stores (one SCPU
each) behind one surface, plus group commit — multi-record VR writes
that pay the two witnessing signatures once per batch.

Two claims are asserted here, both in deterministic virtual time with
the paper's 1024-bit durable keys:

* write throughput scales **near-linearly 1 → 4 shards** at fixed
  record size (the acceptance bar is ≥3×);
* **group-commit batching beats per-record writes ≥1.5×** at equal
  shard count, because amortizing metasig/datasig across a batch
  removes the dominant per-record SCPU cost.
"""

from __future__ import annotations

import pytest

from repro.sim.driver import (
    SimulationConfig,
    make_sharded_sim_store,
    run_sharded_closed_loop,
)
from repro.sim.metrics import MetricsCollector, format_table
from repro.sim.workload import ClosedLoopArrivals, FixedSize

from conftest import fresh_keyring_copy

_SHARD_COUNTS = [1, 2, 4]
_RECORDS = 240
_RECORD_SIZE = 1024
_BATCH = 8


def _run(keyring, shard_count: int, batch_size: int) -> MetricsCollector:
    config = SimulationConfig(workers=64, host_count=8, disk_count=16)
    simstore = make_sharded_sim_store(shard_count, config=config,
                                      keyring=keyring)
    return run_sharded_closed_loop(
        simstore, ClosedLoopArrivals(FixedSize(_RECORD_SIZE), _RECORDS),
        config=config, batch_size=batch_size)


def _rate(keyring, shard_count: int, batch_size: int) -> float:
    return _run(keyring, shard_count, batch_size).throughput("write")


@pytest.fixture(scope="module")
def scaling(paper_keyring):
    """Per-record rates at 1/2/4 shards + the batched rate at 4 shards."""
    per_record = [_rate(fresh_keyring_copy(paper_keyring), n, 1)
                  for n in _SHARD_COUNTS]
    batched = _rate(fresh_keyring_copy(paper_keyring), _SHARD_COUNTS[-1],
                    _BATCH)
    return per_record, batched


def test_scaling_table(scaling, benchmark, paper_keyring):
    per_record, batched = scaling
    rows = [[str(n), f"{r:.0f}", f"{r / per_record[0]:.2f}x"]
            for n, r in zip(_SHARD_COUNTS, per_record)]
    rows.append([f"4 (batch={_BATCH})", f"{batched:.0f}",
                 f"{batched / per_record[0]:.2f}x"])
    print()
    print(format_table(
        ["shards", "writes/s", "vs 1 shard"], rows,
        title="Sharded group-commit scaling — write throughput, "
              "1KB records, strong signatures"))
    benchmark.pedantic(
        _rate, args=(fresh_keyring_copy(paper_keyring), 1, 1),
        rounds=1, iterations=1)


def test_four_shards_at_least_3x(scaling, benchmark):
    """Acceptance bar: ≥3× write throughput at 4 shards vs 1 shard."""
    per_record, _ = scaling
    ratio = per_record[2] / per_record[0]
    assert ratio >= 3.0, f"4-shard scaling only {ratio:.2f}x"
    assert ratio < 4.6, f"superlinear scaling {ratio:.2f}x suggests a bug"
    benchmark(lambda: None)


def test_two_shards_near_double(scaling, benchmark):
    per_record, _ = scaling
    assert 1.7 < per_record[1] / per_record[0] < 2.3
    benchmark(lambda: None)


def test_group_commit_beats_per_record(scaling, benchmark):
    """Acceptance bar: batching ≥1.5× over per-record at 4 shards."""
    per_record, batched = scaling
    gain = batched / per_record[2]
    assert gain >= 1.5, f"group-commit gain only {gain:.2f}x"
    benchmark(lambda: None)


def test_telemetry_attribution_reconciles(paper_keyring, telemetry_bus,
                                          benchmark):
    """An observed run's snapshot must agree with the legacy accounting.

    The same closed-loop group-commit workload, run with a
    :class:`~repro.obs.TelemetryBus` attached: the exported device
    attribution is read from the meters ``cost_summary`` sums, every
    write must appear in the latency histogram,
    and SCPU virtual seconds must dominate the host's — the §4.3 claim
    (SCPU witnessing, not main-CPU work, bounds throughput) read
    straight off the telemetry.  With ``--telemetry`` the snapshot
    lands in ``BENCH_*_telemetry.json`` beside the perf numbers.
    """
    from repro.core.config import StoreConfig

    config = SimulationConfig(workers=64, host_count=8, disk_count=16)
    simstore = make_sharded_sim_store(
        2, config=config, keyring=fresh_keyring_copy(paper_keyring),
        store_config=StoreConfig(shard_count=2, observe=telemetry_bus))
    run_sharded_closed_loop(
        simstore, ClosedLoopArrivals(FixedSize(_RECORD_SIZE), _RECORDS),
        config=config, batch_size=_BATCH)

    snapshot = simstore.store.telemetry_snapshot()
    counters = snapshot["counters"]
    writes = snapshot["histograms"]["op.write.seconds"]
    assert writes["count"] == counters["store.writes"] > 0
    assert (counters["device.scpu.seconds"]
            > counters["device.host.seconds"])
    benchmark(lambda: None)


def test_merged_metrics_match_per_shard_samples(paper_keyring, benchmark):
    """MetricsCollector.merge reports the union of shard samples."""
    metrics = _run(fresh_keyring_copy(paper_keyring), 2, 1)
    # Split the samples in two and merge them back: same summary.
    left, right = MetricsCollector(), MetricsCollector()
    for i, sample in enumerate(metrics.samples):
        (left if i % 2 else right).record(sample)
    merged = MetricsCollector.merge([left, right])
    assert merged.count() == metrics.count() == _RECORDS
    assert merged.throughput("write") == pytest.approx(
        metrics.throughput("write"))
    benchmark(lambda: None)
