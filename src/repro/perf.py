"""Deterministic virtual-time benchmarks → every committed ``BENCH_*.json``.

This module is the one generator and the one gate for the artifacts
under ``benchmarks/``, all in virtual time so they are byte-identical
across machines:

* ``BENCH_shard.json`` — the sharded group-commit scaling table
  (1..N shards, plus the batched headline) with SCPU crossing counts
  and bytes crossed per run;
* ``BENCH_figure1.json`` — a reduced sweep of the paper's Figure 1
  modes under the 1024/512-bit paper parameters;
* ``BENCH_read.json`` — the read+client-verify path, including the
  client's verified-signature memo hit rate;
* ``BENCH_ablation_auth_{windows,merkle,accumulator}.json`` — the
  authentication-scheme ablation (:mod:`repro.sim.ablation`) on demo
  keys.

``write_baselines`` (``make perf``) rewrites them.  ``check_baselines``
(``repro.cli perf --check``, a ``scripts/check.sh`` stage) regenerates
each artifact, renders it the same way and compares byte for byte.  No
virtual-time number is noisy, so there is no tolerance: a change that
moves any number, up or down, commits the regenerated file, and
``git diff benchmarks/`` shows the move.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

__all__ = [
    "BASELINE_NAMES",
    "bench_shard",
    "bench_figure1",
    "bench_read",
    "generate_all",
    "check_baselines",
    "write_baselines",
]

#: Authentication schemes and prefill sizes of the committed ablation.
_AUTH_SCHEMES = ("windows", "merkle", "accumulator")
_AUTH_SIZES = (32, 128, 512)

#: The committed artifact names, in regeneration order.
BASELINE_NAMES = (("BENCH_shard.json", "BENCH_figure1.json",
                   "BENCH_read.json")
                  + tuple(f"BENCH_ablation_auth_{scheme}.json"
                          for scheme in _AUTH_SCHEMES))


# ------------------------------------------------------------- crossing totals

def crossing_totals(store) -> Tuple[int, int]:
    """(round trips, payload bytes) across every SCPU meter of *store*.

    A pool's meter already sums its cards, and a fault wrapper forwards
    its device's meter, so each shard's ``scpu.meter`` is the whole count.
    """
    shards = store.shards if hasattr(store, "shard_count") else [store]
    meters = [shard.scpu.meter for shard in shards]
    return (sum(meter.crossings for meter in meters),
            sum(meter.bytes_crossed for meter in meters))


# ------------------------------------------------------------------ the benches

def bench_shard(shards: int = 4, batch: int = 8, records: int = 240,
                record_size: int = 1024, workers: int = 64) -> Dict[str, Any]:
    """The ``shard-bench`` scaling table with crossing accounting."""
    from repro import demo_keyring
    from repro.sim.driver import (SimulationConfig, make_sharded_sim_store,
                                  run_sharded_closed_loop)
    from repro.sim.workload import ClosedLoopArrivals, FixedSize

    config = SimulationConfig(workers=workers, host_count=8, disk_count=16)

    def run(n: int, b: int) -> Dict[str, Any]:
        simstore = make_sharded_sim_store(n, config=config,
                                          keyring=demo_keyring())
        metrics = run_sharded_closed_loop(
            simstore, ClosedLoopArrivals(FixedSize(record_size), records),
            config=config, batch_size=b)
        crossings, nbytes = crossing_totals(simstore.store)
        return {
            "shards": n,
            "batch": b,
            "writes_per_sec": round(metrics.throughput("write"), 1),
            "scpu_crossings": crossings,
            "scpu_bytes_crossed": nbytes,
        }

    points = []
    n = 1
    while n <= shards:
        points.append(run(n, 1))
        n *= 2
    if points[-1]["shards"] != shards:
        points.append(run(shards, 1))
    headline = run(shards, batch)
    base = points[0]["writes_per_sec"]
    unbatched = points[-1]["writes_per_sec"]
    headline["speedup_vs_1shard"] = round(
        headline["writes_per_sec"] / base, 2)
    headline["group_commit_gain"] = round(
        headline["writes_per_sec"] / unbatched, 2)
    return {
        "workload": {"records": records, "record_size": record_size,
                     "workers": workers},
        "points": points,
        "headline": headline,
    }


#: Figure 1 subset regenerated by the perf gate: one mode per witnessing
#: tier, two record sizes.  The full five-mode sweep (with the paper's
#: absolute bands) stays in ``benchmarks/test_figure1_throughput.py``.
_FIGURE1_MODES = (
    ("strong-1024 / SCPU-hash", {"strength": "strong"}),
    ("deferred-512 / host-hash", {"strength": "weak",
                                  "defer_data_hash": True}),
    ("HMAC / host-hash", {"strength": "hmac", "defer_data_hash": True}),
)

_FIGURE1_SIZES = (1024, 65536)


def bench_figure1(writes: int = 120) -> Dict[str, Any]:
    """Reduced Figure 1 sweep under the paper's 1024/512-bit parameters.

    Charges depend only on key sizes, so one keyring serves every run;
    each store gets its own shallow copy, so burst-key rotation in one
    run cannot reach another.
    """
    from repro import demo_keyring
    from repro.sim.driver import make_sim_store, run_closed_loop
    from repro.sim.workload import ClosedLoopArrivals, FixedSize

    keyring = demo_keyring(strong_bits=1024)
    series: Dict[str, Any] = {}
    for label, kwargs in _FIGURE1_MODES:
        points = []
        for size in _FIGURE1_SIZES:
            simstore = make_sim_store(keyring=dataclasses.replace(keyring))
            metrics = run_closed_loop(
                simstore,
                ClosedLoopArrivals(FixedSize(size), writes),
                write_kwargs=dict(kwargs))
            crossings, nbytes = crossing_totals(simstore.store)
            points.append({
                "record_size": size,
                "records_per_sec": round(metrics.throughput("write"), 1),
                "scpu_crossings": crossings,
                "scpu_bytes_crossed": nbytes,
            })
        series[label] = points
    return {"workload": {"writes": writes}, "series": series}


def bench_read(records: int = 24, reads_per_record: int = 6,
               record_size: int = 2048) -> Dict[str, Any]:
    """The read+verify path: store proof serving plus client checking.

    Store-side reads never touch the SCPU (proofs are stored
    artifacts), so the interesting numbers are the virtual read
    throughput and the client's verified-signature memo hit rate over
    a re-read-heavy workload.
    """
    from repro import demo_keyring
    from repro.core.worm import StrongWormStore
    from repro.crypto.keys import CertificateAuthority
    from repro.hardware.scpu import SecureCoprocessor

    scpu = SecureCoprocessor(keyring=demo_keyring())
    store = StrongWormStore(scpu=scpu)
    ca = CertificateAuthority(bits=512)
    client = store.make_client(ca)
    payload = bytes(record_size)
    receipts = [store.write([payload]) for _ in range(records)]

    pre_crossings, _ = crossing_totals(store)
    marks = store._cost_checkpoints()
    for _ in range(reads_per_record):
        for receipt in receipts:
            result = store.read(receipt.sn)
            verified = client.verify_read(result, receipt.sn)
            assert verified.status == "active"
    read_costs = store._cost_delta(marks)
    post_crossings, _ = crossing_totals(store)
    total_reads = records * reads_per_record
    virtual_seconds = sum(read_costs.values())
    return {
        "workload": {"records": records,
                     "reads_per_record": reads_per_record,
                     "record_size": record_size},
        "reads_per_sec": round(total_reads / virtual_seconds, 1),
        "read_scpu_crossings": post_crossings - pre_crossings,
        "sig_cache_hits": client.sig_cache_hits,
        "sig_cache_misses": client.sig_cache_misses,
    }


def generate_all() -> Dict[str, Dict[str, Any]]:
    """Every committed artifact, keyed by filename in ``BASELINE_NAMES``."""
    from repro import demo_keyring
    from repro.sim.ablation import run_auth_ablation

    artifacts = {
        "BENCH_shard.json": bench_shard(),
        "BENCH_figure1.json": bench_figure1(),
        "BENCH_read.json": bench_read(),
    }
    keyring = demo_keyring()
    for scheme in _AUTH_SCHEMES:
        artifacts[f"BENCH_ablation_auth_{scheme}.json"] = run_auth_ablation(
            scheme, keyring, sizes=_AUTH_SIZES)
    return artifacts


# ------------------------------------------------------------- the perf gate

def _render(data: Dict[str, Any]) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def check_baselines(out_dir: Path) -> List[str]:
    """Regenerate every artifact; the names missing or stale in *out_dir*."""
    artifacts = generate_all()
    drifted = []
    for name in BASELINE_NAMES:
        path = out_dir / name
        if not path.exists() or path.read_text() != _render(artifacts[name]):
            drifted.append(name)
    return drifted


def write_baselines(out_dir: Path) -> List[str]:
    """Regenerate and write every artifact; returns the filenames."""
    written = []
    for name, data in generate_all().items():
        (out_dir / name).write_text(_render(data))
        written.append(name)
    return written
