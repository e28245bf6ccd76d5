"""The four workloads: one pass = fresh set-up, a timed closed loop, checks.

A run repeats identical passes (same seed, same inputs) until its timed
phases add up to ``--seconds``.  Every pass builds its stores from
scratch, so each pass yields one set-up sample and the counts that must
repeat exactly (status histogram, records acknowledged, SCPU crossings,
modelled seconds) are compared pass against pass.

Load is one caller in one thread, a closed loop: each request waits for
its acknowledgement or verified answer before the next is sent.  The
store's ``ManualClock`` is set to every arrival of the seeded schedule,
so the program makes the same decisions on every run and wall time
measures only the implementation.

Which public surface each workload drives:

* ``ingest`` and ``audit_read`` — tenant traffic through
  ``WormService.handle``;
* ``lifecycle`` — writes, ``maintenance()`` slices and verified reads on
  ``ShardedWormStore`` directly;
* ``site_recovery`` — replicated group-commit ingest on
  ``ShardedWormStore``, then ``SiteRecovery.run()`` on a standby.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import traffic
from keyset import KeySet
from repro.core.audit import StoreAuditor
from repro.core.auth import AuthenticationScheme, WindowScheme
from repro.core.client import WormClient
from repro.core.config import StoreConfig
from repro.core.deferred import HashVerificationQueue, StrengtheningQueue
from repro.core.locator import RecordLocator
from repro.core.policy import PolicyRegistry, RegulationPolicy
from repro.core.retention import RetentionMonitor
from repro.core.sharded import ShardedWormStore
from repro.core.worm import StrongWormStore
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.faults import FaultPlan
from repro.hardware.scpu import SecureCoprocessor
from repro.recovery import (ReplicaSite, ReplicatedIntentJournal,
                            ReplicationPump, ReplicationTransport,
                            SiteRecovery)
from repro.service import ServiceRequest, TenantConfig, WormService
from repro.sim.manual_clock import ManualClock
from repro.storage.block_store import MemoryBlockStore
from repro.storage.journal import (FileIntentJournal, IntentJournal,
                                   MemoryIntentJournal)
from spans import SpanRecorder

SHARDS = 2
GROUP_COMMIT = 8

_now = time.perf_counter


@dataclass
class PassResult:
    """What one pass measured and checked."""

    setup_s: float = 0.0
    timed_s: float = 0.0
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    #: Wall latency samples (seconds) by call kind.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Work done and the wall seconds it took, for the throughput slot.
    work: float = 0.0
    work_wall_s: float = 0.0
    #: Modelled seconds charged for that work (virtual time).
    model_s: float = 0.0
    #: Wall seconds of the reference computation around the timed phase,
    #: and what it takes on the nominal machine.
    ref_s: float = 0.0
    ref_nominal_s: float = 0.0
    #: Counts that must repeat exactly, pass after pass and run after run.
    exact: Dict[str, object] = field(default_factory=dict)
    #: Each workload's own named figures for the report, per pass.
    named: Dict[str, float] = field(default_factory=dict)
    #: Per-layer counts and modelled seconds (no wall time).
    layer: Dict[str, float] = field(default_factory=dict)
    recorder: Optional[SpanRecorder] = None

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def sample(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)


# --------------------------------------------------------------- metering

def _meters(stores: Sequence[StrongWormStore]) -> List[tuple]:
    return [(s.scpu.meter.total_seconds, s.host.meter.total_seconds,
             s.disk.meter.total_seconds, s.scpu.meter.crossings,
             s.scpu.meter.bytes_crossed) for s in stores]


class ModelWindow:
    """Modelled seconds and crossings charged between two meter reads."""

    def __init__(self) -> None:
        self.per_shard: List[List[float]] = []

    def add(self, before: List[tuple], after: List[tuple]) -> None:
        for shard, (b, a) in enumerate(zip(before, after)):
            if shard == len(self.per_shard):
                self.per_shard.append([0.0] * 5)
            for i in range(5):
                self.per_shard[shard][i] += a[i] - b[i]

    @property
    def busiest_s(self) -> float:
        """Virtual seconds of the busiest device (any shard's SCPU/host/disk)."""
        return max((max(row[:3]) for row in self.per_shard), default=0.0)

    @property
    def total_s(self) -> float:
        """Virtual seconds charged to every device of every shard."""
        return sum(sum(row[:3]) for row in self.per_shard)

    def totals(self) -> Dict[str, float]:
        return {
            "scpu.model_s": sum(r[0] for r in self.per_shard),
            "host.model_s": sum(r[1] for r in self.per_shard),
            "disk.model_s": sum(r[2] for r in self.per_shard),
            "scpu.crossings": sum(r[3] for r in self.per_shard),
            "scpu.bytes_crossed": sum(r[4] for r in self.per_shard),
        }


# ---------------------------------------------------------------- tracing

def _count_commit(rec, args, kwargs, result, parent_layer) -> None:
    if parent_layer == "sharded":
        rec.count("sharded.commits")
        rec.count("sharded.committed_records", len(args[1]))


def _count_put(rec, args, kwargs, result, parent_layer) -> None:
    rec.count("blocks.bytes", len(args[1]))


def _count_get(rec, args, kwargs, result, parent_layer) -> None:
    rec.count("blocks.bytes", len(result))


def _stage_name(args) -> str:
    return f"recovery.{args[0].stage}"


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points (traced passes only)."""
    recorder.install(WormService, "service", ["handle", "flush"])
    recorder.install(ShardedWormStore, "sharded")
    recorder.install(StrongWormStore, "store",
                     hooks={"write": _count_commit})
    recorder.install(AuthenticationScheme, "auth")
    recorder.install(WindowScheme, "auth")
    recorder.install(RetentionMonitor, "retention",
                     ["on_write", "tick", "night_scan"])
    recorder.install(StrengtheningQueue, "deferred", ["enqueue", "drain"])
    recorder.install(HashVerificationQueue, "deferred", ["enqueue", "drain"])
    recorder.install(SecureCoprocessor, "scpu")
    recorder.install(RsaPrivateKey, "crypto.sign", ["sign"])
    recorder.install(RsaPublicKey, "crypto.verify", ["verify"])
    recorder.install(MemoryBlockStore, "blocks",
                     ["put", "get", "overwrite", "delete"],
                     hooks={"put": _count_put, "overwrite": _count_put,
                            "get": _count_get})
    for journal in (IntentJournal, MemoryIntentJournal, FileIntentJournal,
                    ReplicatedIntentJournal):
        recorder.install(journal, "journal")
    recorder.install(WormClient, "client", ["verify_read"])
    recorder.install(SiteRecovery, "recovery", ["step"], name_of=_stage_name)
    recorder.install(ReplicationPump, "replication", ["pump"])
    recorder.install(ReplicationTransport, "replication",
                     ["send", "send_sync", "deliver"])


#: Seconds the reference computation takes on the nominal machine (the
#: 2-vCPU sandbox the benchmark was defined on): its CPU part, and the
#: fsync probe that runs only beside a journal on disk.
REFERENCE_CPU_NOMINAL_S = 0.085
REFERENCE_DISK_NOMINAL_S = 0.010

_REF_RNG = random.Random("perfbench-reference")
_REF_MODULUS = _REF_RNG.getrandbits(512) | (1 << 511) | 1
_REF_EXPONENT = _REF_RNG.getrandbits(512)
_REF_DATA = bytes(range(256)) * 1024


def reference_seconds(probe_dir: Optional[Path] = None) -> float:
    """Wall time of a fixed computation that uses no code of the program.

    Big-integer exponentiation (what RSA signing costs), SHA-256 and plain
    interpreter work, in about the proportions the workloads spend on
    them; with *probe_dir*, also 64 appends of 16 KB, each fsynced, in
    that directory.  Measured around every timed phase, it tracks how
    fast the machine (and its disk) is at that moment, so wall times can
    be scaled to the nominal machine.
    """
    start = _now()
    base = _REF_MODULUS >> 2
    for i in range(40):
        base = pow(base + i, _REF_EXPONENT, _REF_MODULUS)
    for _ in range(60):
        hashlib.sha256(_REF_DATA).digest()
    table: Dict[int, int] = {}
    for i in range(250_000):
        table[i & 511] = table.get(i & 511, 0) + i
    if probe_dir is not None:
        probe = probe_dir / "reference.probe"
        with open(probe, "ab") as handle:
            for _ in range(64):
                handle.write(_REF_DATA[:16384])
                handle.flush()
                os.fsync(handle.fileno())
        probe.unlink()
    return _now() - start


class _Timed:
    """The timed phase: wrappers on (traced passes), the wall clock, and
    the reference computation just before and just after it."""

    def __init__(self, result: PassResult, recorder: Optional[SpanRecorder],
                 probe_dir: Optional[Path] = None):
        self.result = result
        self.recorder = recorder
        self.probe_dir = probe_dir

    def __enter__(self) -> "_Timed":
        # Every pass starts its timed phase from the same collector state.
        gc.collect()
        self._reference = reference_seconds(self.probe_dir)
        if self.recorder is not None:
            install_layers(self.recorder)
        self._start = _now()
        return self

    def __exit__(self, *exc) -> None:
        self.result.timed_s = _now() - self._start
        if self.recorder is not None:
            self.recorder.uninstall()
            self.result.recorder = self.recorder
        self.result.ref_s = (self._reference
                             + reference_seconds(self.probe_dir)) / 2
        self.result.ref_nominal_s = REFERENCE_CPU_NOMINAL_S + (
            REFERENCE_DISK_NOMINAL_S if self.probe_dir is not None else 0.0)

    def request(self, request_id: object) -> None:
        if self.recorder is not None:
            self.recorder.request_id = request_id


def _coded_429(response, code: str) -> bool:
    """A well-formed refusal: 429, the stable problem code, Retry-After."""
    return (response.status == 429 and response.problem is not None
            and response.problem.code == code
            and "Retry-After" in response.headers)


def _reads_back(store: ShardedWormStore, packed: str, payload: bytes,
                result: PassResult, what: str) -> None:
    try:
        stored = store.read_record(packed)
    except Exception as exc:  # any failure is a lost record
        result.fail(f"{what} {packed}: read back failed: {exc!r}")
        return
    if stored != payload:
        result.fail(f"{what} {packed}: payload differs from what was written")


# ------------------------------------------------------------------ ingest

def ingest_pass(events: Sequence[traffic.Event], keys: KeySet, tmp: Path,
                recorder: Optional[SpanRecorder] = None) -> PassResult:
    """Write-only tenant traffic: 201 accept, 202 defer, 429 backlog-full."""
    result = PassResult()
    start = _now()
    clock = ManualClock()
    journal_dir = Path(tempfile.mkdtemp(dir=tmp))
    journal = FileIntentJournal(journal_dir / "intent.jsonl")
    store = ShardedWormStore.build(
        shard_count=SHARDS, config=StoreConfig(group_commit_size=GROUP_COMMIT),
        keyring=keys.primary, clock=clock, journal=journal)
    service = WormService(store, tenants=[
        TenantConfig(name, rate=traffic.INGEST_RATE,
                     burst=traffic.INGEST_BURST,
                     max_deferred=traffic.INGEST_MAX_DEFERRED)
        for name in traffic.TENANTS])
    result.setup_s = _now() - start

    acked: Dict[str, bytes] = {}
    outstanding: Dict[str, Dict[str, bytes]] = {t: {} for t in traffic.TENANTS}
    statuses: Counter = Counter()
    write_requests = rejected = 0
    model = ModelWindow()
    before = _meters(store.shards)
    with _Timed(result, recorder, probe_dir=journal_dir) as timed:
        for serial, event in enumerate(events):
            if event.at > clock.now:
                clock.set(event.at)
            timed.request(serial)
            if event.op == "flush":
                service.flush()
                result.attempted += 1
                continue
            if event.op == "redeem":
                pending = outstanding[event.tenant]
                for ticket in list(pending):
                    while True:
                        response = service.handle(ServiceRequest(
                            "redeem", event.tenant, {"ticket": ticket}))
                        result.attempted += 1
                        statuses[f"redeem:{response.status}"] += 1
                        if not _coded_429(response, "rate-limited"):
                            break
                        # The caller honours Retry-After, in virtual time.
                        clock.advance(float(response.headers["Retry-After"]))
                    if (response.status == 200
                            and response.body["state"] == "durable"):
                        acked[response.body["locator"]] = pending.pop(ticket)
                    else:
                        result.fail(f"redeem {ticket} after a flush answered "
                                    f"{response.status}")
                continue
            params = ({"payload": event.payloads[0]} if event.op == "write"
                      else {"payloads": list(event.payloads)})
            params["retention_seconds"] = traffic.LONG_RETENTION
            t0 = _now()
            response = service.handle(ServiceRequest(event.op, event.tenant,
                                                     params))
            result.sample("write", _now() - t0)
            result.attempted += 1
            write_requests += 1
            statuses[str(response.status)] += 1
            body = response.body or {}
            if response.status == 201:
                locators = ([body["locator"]] if event.op == "write"
                            else body["locators"])
                acked.update(zip(locators, event.payloads))
            elif response.status == 202:
                tickets = ([body["ticket"]] if event.op == "write"
                           else body["tickets"])
                outstanding[event.tenant].update(zip(tickets, event.payloads))
            elif _coded_429(response, "backlog-full"):
                rejected += 1
            else:
                result.fail(f"{event.op} answered {response.status} "
                            f"{response.problem}")
    model.add(before, _meters(store.shards))

    for tenant, pending in outstanding.items():
        if pending:
            result.fail(f"{len(pending)} tickets of {tenant} never became "
                        "durable")
    for scoped, payload in acked.items():
        _reads_back(store, scoped.split("/", 1)[1], payload, result,
                    "acknowledged record")
    for problem in service.reconcile():
        result.fail(problem)
    shutil.rmtree(journal_dir)

    result.work = len(acked)
    result.work_wall_s = result.timed_s
    result.model_s = model.total_s
    result.layer = model.totals()
    result.exact = {"statuses": dict(sorted(statuses.items())),
                    "records_acknowledged": len(acked),
                    "scpu.crossings": result.layer["scpu.crossings"],
                    "model_s": model.total_s,
                    "model_busiest_s": model.busiest_s}
    result.named = {
        "records_per_s": len(acked) / result.timed_s,
        "model_writes_per_s": len(acked) / model.busiest_s,
        "rejected_share": rejected / write_requests,
    }
    return result


# -------------------------------------------------------------- audit_read

def audit_read_pass(inputs: traffic.AuditTraffic, keys: KeySet, tmp: Path,
                    recorder: Optional[SpanRecorder] = None) -> PassResult:
    """Auditor reads over a preloaded store; a tenth name expired records."""
    result = PassResult()
    start = _now()
    clock = ManualClock()
    store = ShardedWormStore.build(
        shard_count=SHARDS, config=StoreConfig(group_commit_size=GROUP_COMMIT),
        keyring=keys.primary, clock=clock)
    client = store.make_client(keys.ca)
    service = WormService(store, client=client, tenants=[
        TenantConfig(name, rate=traffic.AUDIT_RATE, burst=10**9)
        for name in traffic.TENANTS])
    locators: List[str] = []
    for batch in inputs.preload:
        clock.advance(0.01)
        response = service.handle(ServiceRequest(
            "write_batch", batch.tenant,
            {"payloads": list(batch.payloads),
             "retention_seconds": (traffic.AUDIT_LAPSE_SECONDS
                                   if batch.lapsing
                                   else traffic.LONG_RETENTION)}))
        if response.status != 201:
            result.fail(f"preload answered {response.status}")
            return result
        locators.extend(response.body["locators"])
    clock.advance(2 * traffic.AUDIT_LAPSE_SECONDS)
    expired = store.maintenance()["expired"]
    lapsing = sum(batch.lapsing for batch in inputs.preload)
    if expired != lapsing:
        result.fail(f"maintenance expired {expired} VRs, expected {lapsing}")
    memo = (client.sig_cache_hits, client.sig_cache_misses)
    result.setup_s = _now() - start

    origin = clock.now
    statuses: Counter = Counter()
    model = ModelWindow()
    before = _meters(store.shards)
    with _Timed(result, recorder) as timed:
        for serial, request in enumerate(inputs.requests):
            clock.set(origin + request.at)
            timed.request(serial)
            if request.op == "write":
                t0 = _now()
                response = service.handle(ServiceRequest(
                    "write", request.tenant,
                    {"payload": request.payload,
                     "retention_seconds": traffic.LONG_RETENTION}))
                result.sample("write", _now() - t0)
                if response.status != 201:
                    result.fail(f"write answered {response.status}")
            else:
                tenant = inputs.record_owner(request.record)
                t0 = _now()
                response = service.handle(ServiceRequest(
                    request.op, tenant, {"locator": locators[request.record]}))
                result.sample(request.op, _now() - t0)
                _check_read(inputs, request, response, result)
            result.attempted += 1
            statuses[f"{request.op}:{response.status}"] += 1
    model.add(before, _meters(store.shards))

    result.work = result.attempted
    result.work_wall_s = result.timed_s
    result.model_s = model.total_s
    result.layer = model.totals()
    result.layer["client.sig_memo_hit_ratio"] = _memo_ratio(client, memo)
    result.exact = {"statuses": dict(sorted(statuses.items())),
                    "records_acknowledged": statuses["write:201"],
                    "scpu.crossings": result.layer["scpu.crossings"],
                    "sig_memo_hits": client.sig_cache_hits - memo[0],
                    "model_s": model.total_s}
    result.named = {"ops_per_s": result.attempted / result.timed_s}
    return result


def _memo_ratio(client: WormClient, before: tuple) -> float:
    """Share of signature checks the client's memo answered since *before*."""
    hits = client.sig_cache_hits - before[0]
    misses = client.sig_cache_misses - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def _check_read(inputs: traffic.AuditTraffic, request, response,
                result: PassResult) -> None:
    if inputs.record_lapsed(request.record):
        if (response.status != 404 or response.problem is None
                or response.problem.code != "missing-record"):
            result.fail(f"{request.op} of expired record {request.record} "
                        f"answered {response.status}")
        return
    if response.status != 200:
        result.fail(f"{request.op} of record {request.record} answered "
                    f"{response.status} {response.problem}")
    elif response.body["payload"] != inputs.record_payload(request.record):
        result.fail(f"{request.op} of record {request.record} returned "
                    "other bytes")


# --------------------------------------------------------------- lifecycle

def lifecycle_pass(rounds: Sequence[traffic.LifecycleRound], keys: KeySet,
                   tmp: Path,
                   recorder: Optional[SpanRecorder] = None) -> PassResult:
    """Weak/HMAC bursts, idle maintenance slices, verified reads."""
    result = PassResult()
    start = _now()
    clock = ManualClock()
    policies = PolicyRegistry()
    policies.register(RegulationPolicy(
        name=traffic.SHRED_POLICY, citation="perfbench", retention_seconds=0.0,
        secure_deletion_required=True, shredding_algorithm="dod-5220-3pass"))
    store = ShardedWormStore.build(
        shard_count=SHARDS,
        config=StoreConfig(group_commit_size=GROUP_COMMIT, policies=policies),
        keyring=keys.primary, clock=clock)
    client = store.make_client(keys.ca)
    result.setup_s = _now() - start

    memo = (client.sig_cache_hits, client.sig_cache_misses)
    written: List[tuple] = []  # (locator, payload, expires_at)
    summary: Counter = Counter()
    statuses: Counter = Counter()
    maint_wall = 0.0
    maint_model = ModelWindow()
    model = ModelWindow()
    before = _meters(store.shards)
    serial = 0
    with _Timed(result, recorder) as timed:
        for round_ in rounds:
            for write in round_.writes:
                clock.set(write.at)
                timed.request(serial)
                serial += 1
                t0 = _now()
                receipt = store.write([write.payload], policy=write.policy,
                                      retention_seconds=write.retention,
                                      strength=write.strength,
                                      defer_data_hash=True)
                result.sample("write", _now() - t0)
                result.attempted += 1
                written.append((receipt.locator, write.payload,
                                write.at + write.retention))
            for at in round_.slice_times:
                clock.set(at)
                timed.request(serial)
                serial += 1
                marks = _meters(store.shards)
                t0 = _now()
                done = store.maintenance(
                    strengthen_budget=traffic.LIFECYCLE_SLICE_BUDGET,
                    verify_budget=traffic.LIFECYCLE_SLICE_BUDGET)
                maint_wall += _now() - t0
                maint_model.add(marks, _meters(store.shards))
                result.attempted += 1
                summary.update(done)
            for index in round_.reads:
                locator, payload, expires_at = written[index]
                timed.request(serial)
                serial += 1
                t0 = _now()
                try:
                    served = store.read(locator)
                    verified = client.verify_read(served, locator.sn)
                except Exception as exc:  # a rejected read is a wrong outcome
                    result.fail(f"read of {locator.pack()} raised {exc!r}")
                    continue
                finally:
                    result.sample("read", _now() - t0)
                    result.attempted += 1
                expected = "deleted" if expires_at <= clock.now else "active"
                statuses[f"read:{verified.status}"] += 1
                if verified.status != expected:
                    result.fail(f"read of {locator.pack()} was "
                                f"{verified.status}, expected {expected}")
                elif (expected == "active"
                      and served.records[locator.record_index] != payload):
                    result.fail(f"read of {locator.pack()} returned other "
                                "bytes")
    model.add(before, _meters(store.shards))

    now = clock.now
    overdue = sum(s.strengthening.overdue_count(now) for s in store.shards)
    violations = sum(s.strengthening.lifetime_violations for s in store.shards)
    mismatches = sum(len(s.hash_verification.mismatches) for s in store.shards)
    if overdue or violations or mismatches:
        result.fail(f"deferred work left behind: {overdue} overdue, "
                    f"{violations} lifetime violations, {mismatches} hash "
                    "mismatches")
    for shard_id, shard in enumerate(store.shards):
        report = StoreAuditor(shard, client).sweep()
        if not report.clean:
            result.fail(f"auditor sweep of shard {shard_id}: "
                        f"{report.violations[:3]}")

    maintained = (summary["expired"] + summary["strengthened"]
                  + summary["hashes_verified"])
    result.work = maintained
    result.work_wall_s = maint_wall
    result.model_s = maint_model.total_s
    result.layer = model.totals()
    result.layer.update({"client.sig_memo_hit_ratio": _memo_ratio(client, memo),
                         "retention.expired": summary["expired"],
                         "deferred.strengthened": summary["strengthened"],
                         "deferred.hashes_verified": summary["hashes_verified"],
                         "deferred.overdue": overdue})
    result.exact = {"statuses": dict(sorted(statuses.items())),
                    "records_acknowledged": len(written),
                    "maintenance": dict(sorted(summary.items())),
                    "scpu.crossings": result.layer["scpu.crossings"],
                    "model_s": model.total_s}
    result.named = {"maint_records_per_s": maintained / maint_wall,
                    "maintenance_share": maint_wall / result.timed_s}
    return result


# ----------------------------------------------------------- site_recovery

def site_recovery_pass(inputs: traffic.SiteTraffic, keys: KeySet, tmp: Path,
                       recorder: Optional[SpanRecorder] = None) -> PassResult:
    """Replicated ingest, a site kill, and a staged rebuild of a standby."""
    result = PassResult()
    start = _now()
    clock = ManualClock()
    plan = FaultPlan(transient_rate=traffic.SITE_LOSS, seed=inputs.fault_seed)
    transport = ReplicationTransport(plan=plan)
    replica = ReplicaSite()
    journal = ReplicatedIntentJournal(MemoryIntentJournal(), transport,
                                      replica, clock=clock)
    config = StoreConfig(group_commit_size=GROUP_COMMIT)
    primary = ShardedWormStore.build(shard_count=SHARDS, config=config,
                                     keyring=keys.primary, clock=clock,
                                     journal=journal)
    pump = ReplicationPump(primary, transport, replica, ca=keys.ca)
    standby = ShardedWormStore.build(shard_count=SHARDS, config=config,
                                     keyring=keys.standby, clock=ManualClock())
    result.setup_s = _now() - start

    acked: Dict[str, str] = {}  # tag -> packed locator on the dead site
    model = ModelWindow()
    stores = list(primary.shards) + list(standby.shards)
    before = _meters(stores)
    with _Timed(result, recorder) as timed:
        t_ingest = _now()
        for i, (at, payload) in enumerate(zip(inputs.arrivals,
                                              inputs.payloads)):
            clock.set(at)
            timed.request(i)
            t0 = _now()
            primary.submit(payload, tag=f"r{i}", policy="default",
                           retention_seconds=traffic.LONG_RETENTION)
            for tag, receipt in primary.take_tagged_receipts().items():
                acked[tag] = receipt.locator.pack()
            result.sample("write", _now() - t0)
            result.attempted += 1
            if (i + 1) % traffic.SITE_PUMP_EVERY == 0:
                pump.pump()
                result.attempted += 1
        ingest_wall = _now() - t_ingest
        # The primary dies here: whatever it had not shipped is gone with it.
        timed.request("recovery")
        t0 = _now()
        report = SiteRecovery(replica, standby, keys.ca).run()
        rto = _now() - t0
        result.attempted += 1
    model.add(before, _meters(stores))

    if not report.complete or report.unverifiable:
        result.fail(f"recovery incomplete: {report.stages_completed} "
                    f"unverifiable={report.unverifiable[:3]}")
    new_locators = set()
    for i, payload in enumerate(inputs.payloads):
        tag = f"r{i}"
        if tag in acked:
            new = report.locator_mapping.get(acked[tag])
            what = "acknowledged record"
        else:
            receipt = report.tagged_receipts.get(tag)
            new = receipt.locator.pack() if receipt is not None else None
            what = "admitted record"
        if new is None:
            result.fail(f"{what} {tag} was lost in the site kill")
            continue
        _reads_back(standby, new, payload, result, what)
        new_locators.add(new)
    client = standby.make_client(keys.ca)
    for shard_id, sn in sorted({(loc.shard_id, loc.sn) for loc in
                                map(RecordLocator.unpack, new_locators)}):
        verified = client.verify_read(standby.shard(shard_id).read(sn), sn)
        if verified.status != "active":
            result.fail(f"recovered VR {shard_id}:{sn} is {verified.status}")

    records = len(inputs.payloads)
    result.work = records
    result.work_wall_s = rto
    result.model_s = report.rto_seconds
    result.layer = model.totals()
    result.layer.update({
        "recovery.records_replayed": report.records_replayed,
        "replication.lost_ratio": (plan.injected["transient"]
                                   / max(1, plan.consulted))})
    result.exact = {"records_acknowledged": len(acked),
                    "records_admitted": records,
                    "report": {"records_verified": report.records_verified,
                               "records_replayed": report.records_replayed,
                               "windows_verified": report.windows_verified,
                               "journal_requeued": report.journal_requeued},
                    "sends_lost": plan.injected["transient"],
                    "scpu.crossings": result.layer["scpu.crossings"],
                    "model_rto_s": report.rto_seconds}
    result.named = {"records_per_s": len(acked) / ingest_wall,
                    "rto_s": rto,
                    "model_rto_s": report.rto_seconds}
    return result
