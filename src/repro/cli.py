"""Command-line interface: a persistent on-disk Strong WORM store.

Turns the library into a usable tool::

    python -m repro.cli init /var/worm
    python -m repro.cli write /var/worm report.pdf --policy sox
    python -m repro.cli cat /var/worm 1 > report.pdf
    python -m repro.cli status /var/worm
    python -m repro.cli maintain /var/worm
    python -m repro.cli audit /var/worm
    python -m repro.cli shard-bench --shards 4 --batch 8

SIMULATION CAVEAT: the real system's trust anchor is key material sealed
inside a tamper-responding coprocessor.  This CLI necessarily persists
the simulated SCPU's state (keys, counters) in ``scpu_state.json`` on
ordinary disk — fine for evaluation and demos, meaningless against a
real insider.  Deployments would replace :func:`_load_state`'s key
handling with an actual card.

Store directory layout::

    <dir>/blocks/            record payloads (DirectoryBlockStore)
    <dir>/scpu_state.json    simulated card NVRAM (keys, counters)
    <dir>/ca.json            the demo regulatory CA's root key
    <dir>/state.json         VRDT snapshot
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Tuple

from repro.core.audit import StoreAuditor
from repro.core.errors import TamperedError
from repro.core.worm import StrongWormStore
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import CertificateAuthority, SigningKey
from repro.crypto.rsa import RsaKeyPair, RsaPrivateKey
from repro.hardware.scpu import ScpuKeyring, SecureCoprocessor, Strength
from repro.sim.clock import SystemClock
from repro.sim.metrics import format_table
from repro.storage.block_store import DirectoryBlockStore
from repro.storage.vrdt import VrdTable

__all__ = ["main"]

_YEAR = 365.0 * 24 * 3600


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _key_to_dict(key: SigningKey) -> dict:
    return {"private": key.keypair.private.to_dict(), "role": key.role}


def _key_from_dict(data: dict) -> SigningKey:
    private = RsaPrivateKey.from_dict(data["private"])
    return SigningKey(keypair=RsaKeyPair(private=private), role=data["role"])


def _save_state(root: Path, store: StrongWormStore) -> None:
    keys = store.scpu._keys_or_die()  # wormlint: disable=W001 - simulation-only persistence of the demo card
    scpu_state = {
        "s_key": _key_to_dict(keys.s_key),
        "d_key": _key_to_dict(keys.d_key),
        "burst_key": _key_to_dict(keys.burst_key),
        "hmac_key": keys.hmac._key.hex(),
        "sn_counter": store.scpu._sn_counter,  # wormlint: disable=W001 - demo persistence
        "sn_base": store.scpu._sn_base,  # wormlint: disable=W001 - demo persistence
        "retired_burst": list(store.scpu._retired_burst_fingerprints),  # wormlint: disable=W001 - demo persistence
    }
    (root / "scpu_state.json").write_text(json.dumps(scpu_state))
    state = {"vrdt": store.vrdt.to_dict()}
    (root / "state.json").write_text(json.dumps(state))


def _load_state(root: Path) -> Tuple[StrongWormStore, CertificateAuthority]:
    scpu_state = json.loads((root / "scpu_state.json").read_text())
    keyring = ScpuKeyring(
        s_key=_key_from_dict(scpu_state["s_key"]),
        d_key=_key_from_dict(scpu_state["d_key"]),
        burst_key=_key_from_dict(scpu_state["burst_key"]),
        hmac=HmacScheme(key=bytes.fromhex(scpu_state["hmac_key"])),
    )
    scpu = SecureCoprocessor(keyring=keyring, clock=SystemClock())
    scpu._sn_counter = int(scpu_state["sn_counter"])  # wormlint: disable=W001 - demo persistence
    scpu._sn_base = int(scpu_state["sn_base"])  # wormlint: disable=W001 - demo persistence
    scpu._retired_burst_fingerprints = list(scpu_state["retired_burst"])  # wormlint: disable=W001 - demo persistence

    store = StrongWormStore(
        scpu=scpu, block_store=DirectoryBlockStore(root / "blocks"))
    state = json.loads((root / "state.json").read_text())
    restored = VrdTable.from_dict(state["vrdt"])
    store.vrdt.__dict__.update(restored.__dict__)
    # Rebuild SCPU-side schedules from the (verified) table.
    store.retention.night_scan(store.now)
    _reenqueue_weak(store)

    ca_data = json.loads((root / "ca.json").read_text())
    ca = CertificateAuthority(root_key=_key_from_dict(ca_data))
    return store, ca


def _reenqueue_weak(store: StrongWormStore) -> None:
    """Re-discover weak/HMAC constructs that still need strengthening."""
    from repro.crypto.keys import security_lifetime
    strong_fp = store.scpu.public_keys()["s"].fingerprint()
    for sn in store.vrdt.active_sns:
        vrd = store.vrdt.get_active(sn)
        if vrd is None:
            continue
        signed = vrd.metasig
        if signed.scheme == "hmac":
            store.strengthening.enqueue(sn, signed.timestamp, 3600.0)
        elif signed.key_fingerprint != strong_fp:
            store.strengthening.enqueue(
                sn, signed.timestamp, security_lifetime(signed.key_bits))


def _open(directory: str):
    root = Path(directory)
    if not (root / "scpu_state.json").exists():
        raise SystemExit(f"{directory} is not an initialized WORM store "
                         f"(run: repro.cli init {directory})")
    return root, *_load_state(root)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_init(args) -> int:
    root = Path(args.directory)
    if (root / "scpu_state.json").exists():
        raise SystemExit(f"{args.directory} is already initialized")
    root.mkdir(parents=True, exist_ok=True)
    bits = args.strong_bits
    print(f"generating {bits}-bit SCPU keys (one-time)...")
    keyring = ScpuKeyring(
        s_key=SigningKey.generate(bits, "s"),
        d_key=SigningKey.generate(bits, "d"),
        burst_key=SigningKey.generate(512, "burst"),
        hmac=HmacScheme(),
    )
    scpu = SecureCoprocessor(keyring=keyring, clock=SystemClock())
    store = StrongWormStore(
        scpu=scpu, block_store=DirectoryBlockStore(root / "blocks"))
    ca = CertificateAuthority(bits=min(bits, 1024))
    (root / "ca.json").write_text(json.dumps(_key_to_dict(ca._root)))
    _save_state(root, store)
    print(f"initialized WORM store at {root} "
          f"(s-key fingerprint {keyring.s_key.fingerprint})")
    return 0


def cmd_write(args) -> int:
    root, store, ca = _open(args.directory)
    payload = Path(args.file).read_bytes()
    retention = args.retention_years * _YEAR if args.retention_years else None
    receipt = store.write([payload], policy=args.policy,
                          retention_seconds=retention,
                          strength=args.strength)
    _save_state(root, store)
    print(f"SN {receipt.sn}  ({len(payload)} bytes, policy={args.policy}, "
          f"strength={args.strength}, "
          f"scpu cost {receipt.costs['scpu'] * 1000:.2f} virtual ms)")
    return 0


def cmd_cat(args) -> int:
    root, store, ca = _open(args.directory)
    client = store.make_client(ca)
    result = store.read(args.sn)
    verified = client.verify_read(result, args.sn)
    if verified.status != "active":
        print(f"SN {args.sn}: {verified.status} "
              f"(proof: {verified.proof_kind})", file=sys.stderr)
        return 1
    sys.stdout.buffer.write(verified.data)
    sys.stdout.buffer.flush()
    print(f"\n[verified: weakly_signed={verified.weakly_signed}]",
          file=sys.stderr)
    return 0


def cmd_status(args) -> int:
    root, store, ca = _open(args.directory)
    client = store.make_client(ca)
    overview = StoreAuditor(store, client).compliance_overview()
    print(f"store:          {root}")
    print(f"frontier SN:    {store.scpu.current_serial_number}")
    print(f"SN base:        {store.scpu.sn_base}")
    for key, value in overview.items():
        print(f"{key + ':':24s}{value}")
    return 0


def cmd_maintain(args) -> int:
    root, store, ca = _open(args.directory)
    summary = store.maintenance()
    _save_state(root, store)
    for key, value in summary.items():
        print(f"{key + ':':22s}{value}")
    return 0


def cmd_audit(args) -> int:
    root, store, ca = _open(args.directory)
    client = store.make_client(ca)
    store.auth.refresh(force=True)
    report = StoreAuditor(store, client).sweep()
    rows = [[str(f.sn), f.verdict,
             "weak" if f.weakly_signed else "", f.detail[:60]]
            for f in report.findings]
    print(format_table(["SN", "verdict", "sig", "detail"], rows,
                       title=f"Audit sweep @ {time.ctime(report.audited_at)}"))
    summary = report.summary()
    print(f"\n{summary}")
    if not report.clean:
        print("TAMPERING DETECTED", file=sys.stderr)
        return 2
    print("store is clean")
    return 0


def cmd_attest(args) -> int:
    """Print (and optionally chain-verify) an SCPU attestation."""
    root, store, ca = _open(args.directory)
    attestation = store.scpu.attest()
    blob = json.dumps(attestation.to_dict())
    if args.previous:
        from repro.crypto.envelope import SignedEnvelope
        from repro.hardware.scpu import SecureCoprocessor
        previous = SignedEnvelope.from_dict(
            json.loads(Path(args.previous).read_text()))
        ok = SecureCoprocessor.verify_attestation(
            attestation, store.scpu.public_keys()["s"], previous=previous)
        print(f"chain check vs {args.previous}: "
              f"{'OK' if ok else 'FAILED (rollback or forgery)'}",
              file=sys.stderr)
        if not ok:
            return 2
    if args.out:
        Path(args.out).write_text(blob)
        print(f"attestation written to {args.out}", file=sys.stderr)
    env = attestation.envelope
    print(f"sn_counter={env.fields['sn_counter']} "
          f"sn_base={env.fields['sn_base']} "
          f"epoch={env.fields['epoch_id']} "
          f"t={env.timestamp:.0f}")
    return 0


def cmd_shard_bench(args) -> int:
    """Virtual-time scaling benchmark of the sharded group-commit front-end.

    Prints :func:`repro.perf.bench_shard` as a table: closed-loop write
    throughput of in-memory sharded stores (no directory needed) for
    1..N shards, plus the group-commit gain at N shards.  Deterministic
    virtual-time results — at the defaults, the committed
    ``benchmarks/BENCH_shard.json``.
    """
    from repro import perf

    bench = perf.bench_shard(shards=args.shards, batch=args.batch,
                             records=args.records,
                             record_size=args.record_size,
                             workers=args.workers)
    points, headline = bench["points"], bench["headline"]
    base = points[0]["writes_per_sec"]
    rows = [[str(p["shards"]), f"{p['writes_per_sec']:.0f}",
             f"{p['writes_per_sec'] / base:.2f}x"] for p in points]
    rows.append([f"{args.shards} (batch={args.batch})",
                 f"{headline['writes_per_sec']:.0f}",
                 f"{headline['speedup_vs_1shard']:.2f}x"])
    print(format_table(
        ["shards", "writes/s", "vs 1 shard"], rows,
        title=f"Sharded write throughput — {args.record_size}B records, "
              f"virtual time"))
    print(f"\ngroup-commit gain at {args.shards} shards: "
          f"{headline['group_commit_gain']:.2f}x over per-record writes")
    return 0


def cmd_faults_demo(args) -> int:
    """Replay a canned fault plan against a sharded store (in-memory).

    Four failure domains ingest records through the best-effort
    group-commit path while one card trips tamper response mid-run and
    every card drops a fraction of its requests.  Afterwards every
    accepted record is read back and client-verified; the health/retry
    report is printed.  Exit 0 when zero accepted records were lost,
    2 otherwise — the degraded-mode availability claim, checkable from
    a shell.
    """
    from repro import demo_keyring
    from repro.core.config import StoreConfig
    from repro.faults import FaultPlan
    from repro.sim.driver import (SimulationConfig, make_sharded_sim_store,
                                  run_sharded_chaos_loop)
    from repro.sim.workload import WorkRequest
    from repro.storage.journal import MemoryIntentJournal

    shards = args.shards
    plans = [FaultPlan(seed=args.seed + i, transient_rate=args.fault_rate)
             for i in range(shards)]
    plans[1].tamper(after_ops=args.tamper_after)
    simstore = make_sharded_sim_store(
        shards,
        config=SimulationConfig(workers=16),
        keyring=demo_keyring(),
        store_config=StoreConfig(shard_count=shards, group_commit_size=4),
        fault_plans=plans,
        journal=MemoryIntentJournal())
    requests = [WorkRequest(kind="write", arrival=0.0, size=args.record_size,
                            retention=3600.0)
                for _ in range(args.records)]
    result = run_sharded_chaos_loop(simstore, requests)

    store = simstore.store
    ca = CertificateAuthority(bits=512)
    client = store.make_client(ca)
    lost = 0
    for receipt in result.receipts:
        try:
            read = store.read(receipt.locator)
            verified = client.verify_read(read, receipt.locator)
            if verified.status != "active":
                lost += 1
        except TamperedError:
            # Terminal: the front-end says the *whole store* is dead, not
            # one unreadable record — that is an outage, not a loss count.
            raise
        except Exception:
            lost += 1

    health = result.health
    rows = []
    for shard in health["shards"]:
        rows.append([
            str(shard["shard_id"]), shard["state"],
            "yes" if shard["tamper_tripped"] else "no",
            str(shard["retry"]["retries"]),
            str(shard["pending_records"]),
        ])
    print(format_table(
        ["shard", "state", "tamper", "retries", "pending"], rows,
        title=f"Fault replay — {shards} shards, {args.records} records, "
              f"{args.fault_rate:.0%} transient faults, "
              f"shard 1 zeroized after {args.tamper_after} ops"))
    injected = {kind: sum(plan.injected[kind] for plan in plans)
                for kind in ("transient", "tamper")}
    print(f"\naccepted:   {result.accepted} records "
          f"({health['pending_records']} still pending)")
    print(f"verified:   {result.accepted - lost} readable+verifiable, "
          f"{lost} lost")
    print(f"faults:     {injected['transient']} transient, "
          f"{injected['tamper']} tamper")
    print(f"retries:    {health['retry_total']['retries']} "
          f"({health['retry_total']['exhausted']} exhausted)")
    print(f"failovers:  {health['failovers']}")
    print(f"degraded:   shards {health['degraded_shards']}")
    if lost:
        print("RECORD LOSS DETECTED", file=sys.stderr)
        return 2
    print("no accepted record lost")
    return 0


def cmd_obs(args) -> int:
    """Run a short sharded workload and export its telemetry (in-memory).

    Drives a fault-injected group-commit ingest through the chaos loop
    with a :class:`~repro.obs.TelemetryBus` attached, reads a few
    records back, runs one maintenance slice and a few service writes,
    then checks the service's tenant accounting against its receipts —
    exit 2 with ``TENANT ACCOUNTING MISMATCH`` when they disagree.
    ``--check SCHEMA`` additionally validates the snapshot against a
    committed JSON schema (counter names are an API; CI runs this so
    renames fail loudly).  ``--format`` selects the export:
    ``summary`` (human table), ``snapshot`` (canonical JSON), ``jsonl``
    (event log), ``prom`` (Prometheus text), ``chrome`` (trace spans).
    """
    from repro import demo_keyring
    from repro.core.config import StoreConfig
    from repro.faults import FaultPlan
    from repro.obs import (TelemetryBus, load_schema, snapshot_json,
                           to_chrome_trace, to_jsonl, to_prometheus,
                           validate)
    from repro.sim.driver import (SimulationConfig, make_sharded_sim_store,
                                  run_sharded_chaos_loop)
    from repro.sim.tracing import TraceRecorder
    from repro.sim.workload import WorkRequest

    if args.tamper_after > 0 and args.shards < 2:
        print("obs: --tamper-after needs --shards >= 2 (one card dies)",
              file=sys.stderr)
        return 2

    bus = TelemetryBus(trace=TraceRecorder())
    plans = None
    if args.fault_rate > 0 or args.tamper_after > 0:
        plans = [FaultPlan(seed=args.seed + i,
                           transient_rate=args.fault_rate)
                 for i in range(args.shards)]
        if args.tamper_after > 0:
            plans[1].tamper(after_ops=args.tamper_after)
    simstore = make_sharded_sim_store(
        args.shards,
        config=SimulationConfig(workers=16),
        keyring=demo_keyring(),
        store_config=StoreConfig(shard_count=args.shards,
                                 group_commit_size=4, observe=bus),
        fault_plans=plans)
    requests = [WorkRequest(kind="write", arrival=0.0,
                            size=args.record_size, retention=3600.0)
                for _ in range(args.records)]
    result = run_sharded_chaos_loop(
        simstore, requests, write_kwargs={"strength": Strength.WEAK})

    store = simstore.store
    for receipt in result.receipts[:8]:
        store.read(receipt.locator)
    store.maintenance()

    # Exercise the service front-end so its counters (including the
    # canonical "default" tenant's) are part of the committed snapshot
    # schema — a rename in repro.service must fail `make obs`.  Only
    # batch writes, so every store write stays a group commit and the
    # writes==group_commits invariant of this loop survives.
    from repro.service import ServiceRequest, TenantConfig, WormService
    service = WormService(store, tenants=[
        TenantConfig("default", rate=0.1, burst=8, max_deferred=64)])
    for batch in range(3):
        service.handle(ServiceRequest(
            operation="write_batch", tenant="default",
            params={"payloads": [b"obs-%d-%d" % (batch, i)
                                 for i in range(4)],
                    "retention_seconds": 3600.0}))
    service.flush()

    # Exercise cross-site replication + verified recovery on the same
    # bus so the replication.*/recovery.* names (and the lag histogram)
    # are part of the committed snapshot schema.  The mini-site's own
    # store metrics deliberately stay OFF the bus — only the
    # replication/recovery layers observe here — so the store counters
    # keep describing the main store alone.
    from repro.recovery import SiteRecovery
    from repro.recovery.drill import build_primary, build_standby, catch_up
    ca = CertificateAuthority(bits=512)
    mini, _, mini_replica, mini_pump = build_primary(
        ca=ca, plan=FaultPlan(seed=args.seed, transient_rate=0.25), obs=bus)
    for batch in range(3):
        mini.write_batch([b"obs-replica-%d-%d" % (batch, i)
                          for i in range(4)], retention_seconds=3600.0)
        mini.advance_clocks(1.0)
        mini_pump.pump()
    catch_up(mini_pump, cycles=60)
    SiteRecovery(mini_replica, build_standby(), ca, obs=bus).run()

    snapshot = store.telemetry_snapshot()

    status = 0
    problems = service.reconcile()
    if problems:
        print("TENANT ACCOUNTING MISMATCH", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        status = 2
    if args.check:
        schema_problems = validate(snapshot, load_schema(args.check))
        if schema_problems:
            print(f"SCHEMA VIOLATION ({args.check})", file=sys.stderr)
            for problem in schema_problems:
                print(f"  {problem}", file=sys.stderr)
            status = 2

    if args.format == "snapshot":
        output = snapshot_json(bus)
    elif args.format == "jsonl":
        output = to_jsonl(bus)
    elif args.format == "prom":
        output = to_prometheus(bus)
    elif args.format == "chrome":
        output = to_chrome_trace(bus)
    else:
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        rows = [[name, f"{counters[name]:g}"] for name in sorted(counters)]
        rows += [[name, f"{gauges[name]:g} (gauge)"]
                 for name in sorted(gauges)]
        output = format_table(
            ["metric", "value"], rows,
            title=f"Telemetry — {args.shards} shards, {args.records} "
                  f"records, {args.fault_rate:.0%} transient faults")
        events = snapshot["events"]
        output += (f"\n\nevents: {events['count']} "
                   f"({events['dropped']} dropped)  "
                   f"spans: {snapshot['spans']}")
    if args.out:
        Path(args.out).write_text(output + "\n")
        print(f"telemetry written to {args.out}", file=sys.stderr)
    else:
        print(output)
    return status


def cmd_recover(args) -> int:
    """Site-loss recovery drill at small scale (in-memory, virtual time).

    Builds a primary site whose intent journal mirrors synchronously and
    whose catalog ships asynchronously to an untrusted standby over a
    flaky WAN (``--fault-rate``), ingests ``--records`` group-committed
    records, then kills the whole site mid-stream — catalog tail
    unshipped, artifacts still in flight.  A fresh site is rebuilt from
    the replica through the staged recovery machine (DISCOVER →
    DOWNLOAD → VERIFY → REPLAY → RESUME) and the drill proves the
    compliance story: every acknowledged locator reads back
    byte-identical *and verifies* against the new site's own SCPU, with
    the virtual-time RTO under ``--rto-bound``.  Exit 2 on any loss,
    laundered tamper, or bound violation.  ``--corrupt`` flips one
    replicated payload byte first and inverts the expectation: recovery
    must terminate in ``TamperedError`` (exit 2 if the lying replica is
    imported instead).
    """
    from repro.core.config import StoreConfig
    from repro.faults import FaultPlan
    from repro.obs import TelemetryBus
    from repro.recovery import SiteRecovery
    from repro.recovery.drill import (audit_zero_loss, build_primary,
                                      build_standby, catch_up,
                                      flip_replicated_byte)

    bus = TelemetryBus()
    ca = CertificateAuthority(bits=512)
    plan = (FaultPlan(seed=args.seed, transient_rate=args.fault_rate)
            if args.fault_rate > 0 else None)
    config = StoreConfig(shard_count=args.shards,
                         group_commit_size=args.group_commit)
    store, transport, replica, pump = build_primary(config, ca=ca, plan=plan,
                                                    obs=bus)

    ledger = {}
    written = chunks = 0
    while written < args.records:
        count = min(args.group_commit, args.records - written)
        payloads = [b"recover-%06d|" % (written + i)
                    + b"." * args.record_size for i in range(count)]
        receipts = store.write_batch(payloads, retention_seconds=86_400.0)
        for receipt, payload in zip(receipts, payloads):
            ledger[receipt.locator.pack()] = payload
        written += count
        chunks += 1
        store.advance_clocks(1.0)
        if chunks % 4 == 0:
            pump.pump()
    # The kill loses the catalog tail, never the CA chain: a drill of a
    # few batches has not shipped the certificates yet (or they are
    # still in flight), so pump after the last batch until they land.
    # With --corrupt the standby must catch up completely before its
    # disk starts lying, so the lie is the only thing DISCOVER can see.
    catch_up(pump, cycles=200, keep_tail=not args.corrupt)
    shipped_tail = pump.unacked_count > 0 or transport.in_flight > 0
    del store, pump, transport  # the site is gone

    if args.corrupt:
        flip_replicated_byte(replica)

    standby = build_standby(config)
    recovery = SiteRecovery(replica, standby, ca,
                            link_bandwidth=args.link_bandwidth, obs=bus)

    if args.corrupt:
        try:
            recovery.run()
        except TamperedError as exc:  # wormlint: disable=W004,W008 - drill asserts detection: the terminal tamper *is* the passing outcome
            imported = sum(len(s.vrdt.active_sns) for s in standby.shards)
            if imported:
                print(f"tamper detected but {imported} records were "
                      "imported first", file=sys.stderr)
                return 2
            print(f"TAMPER DETECTED (as required): {exc}")
            print("corrupted replica refused; nothing laundered into "
                  "the new site")
            return 0
        print("CORRUPTED REPLICA LAUNDERED INTO THE NEW SITE",
              file=sys.stderr)
        return 2

    report = recovery.run()
    lost = audit_zero_loss(standby, ca, ledger, report).lost

    rows = [
        ["records acknowledged", str(len(ledger))],
        ["catalog tail unshipped at kill", "yes" if shipped_tail else "no"],
        ["stages completed", " -> ".join(report.stages_completed)],
        ["windows re-verified", str(report.windows_verified)],
        ["VRs verified / replayed",
         f"{report.records_verified} / {report.records_replayed}"],
        ["journal entries requeued", str(report.journal_requeued)],
        ["VRs unverifiable (re-ingested)", str(len(report.unverifiable))],
        ["records lost", str(len(lost))],
        ["transfer seconds (virtual)", f"{report.transfer_seconds:.2f}"],
        ["RTO seconds (virtual)",
         f"{report.rto_seconds:.2f} (bound {args.rto_bound:.0f})"],
    ]
    print(format_table(["measure", "value"], rows,
                       title=f"Recovery drill — {args.shards} shards, "
                             f"{len(ledger)} records, "
                             f"{args.fault_rate:.0%} WAN faults"))
    for old_packed, reason in lost[:10]:
        print(f"  LOST {old_packed}: {reason}", file=sys.stderr)
    if lost or not report.complete:
        print("RECOVERY FAILED: acknowledged writes lost", file=sys.stderr)
        return 2
    if report.rto_seconds > args.rto_bound:
        print(f"RTO BOUND EXCEEDED: {report.rto_seconds:.1f}s > "
              f"{args.rto_bound:.1f}s", file=sys.stderr)
        return 2
    print(f"\nzero acknowledged-write loss: {len(ledger)} records "
          f"readable and verified on the rebuilt site")
    return 0


def cmd_tenant_bench(args) -> int:
    """Open-loop multi-tenant service benchmark in virtual time.

    Drives a diurnal, Zipf-skewed, Poisson workload (simulating
    ``--users`` end users per tenant) through the service front-end,
    with the end-of-day burst deliberately above the per-tenant
    admission rate so overload sheds into the deferred group-commit
    machinery.  Afterwards every admitted-or-deferred write is redeemed
    and read back **through the service**, rejections are checked for
    well-formed problem payloads and ``RateLimit-*`` headers, and the
    per-tenant counters are reconciled against the service's receipt
    ledger.  Exit 0 only when not a single admitted write was
    lost and every accounting agrees; 2 otherwise.
    """
    from repro import demo_keyring
    from repro.core.config import StoreConfig
    from repro.core.sharded import ShardedWormStore
    from repro.obs import TelemetryBus
    from repro.service import ServiceRequest, TenantConfig, WormService
    from repro.sim.workload import FixedSize, MultiTenantArrivals

    bus = TelemetryBus()
    store = ShardedWormStore.build(
        shard_count=args.shards, keyring=demo_keyring(),
        config=StoreConfig(shard_count=args.shards,
                           group_commit_size=args.group_commit,
                           observe=bus))
    names = [f"tenant{i}" for i in range(args.tenants)]
    service = WormService(store, tenants=[
        TenantConfig(name, rate=args.rate, burst=args.burst_tokens,
                     max_deferred=args.max_deferred)
        for name in names])
    workload = MultiTenantArrivals(
        names, FixedSize(args.record_size), days=args.days,
        night_rate=args.night_rate, day_rate=args.day_rate,
        burst_rate=args.burst_rate, burst_seconds=args.burst_seconds,
        skew=args.skew, users_per_tenant=args.users,
        hour_seconds=args.hour_seconds, seed=args.seed)

    current = store.now

    def advance(to: float) -> None:
        nonlocal current
        if to > current:
            store.advance_clocks(to - current)
            current = to

    malformed = []
    rejected_codes = {}

    def well_formed_rejection(response) -> bool:
        """Every refusal must be a coded problem with honest headers."""
        problem = response.problem
        ok = (problem is not None and problem.code
              and problem.type.endswith(problem.code)
              and problem.status == response.status
              and "RateLimit-Limit" in response.headers
              and "RateLimit-Remaining" in response.headers
              and "RateLimit-Reset" in response.headers
              and ("Retry-After" in response.headers
                   if response.status == 429 else True))
        if ok:
            rejected_codes[problem.code] = (
                rejected_codes.get(problem.code, 0) + 1)
        else:
            malformed.append(response.to_dict())
        return ok

    def patient(request) -> object:
        """Handle *request*, honoring Retry-After in virtual time."""
        response = service.handle(request)
        while response.status == 429 and well_formed_rejection(response):
            advance(current + float(response.headers["Retry-After"]))
            response = service.handle(request)
        return response

    ledger = {}        # scoped locator -> expected payload
    open_tickets = {}  # ticket -> (tenant, expected payload)
    offered = accepted = deferred = rejected = 0
    last_flush = current
    seq = 0
    for item in workload:
        advance(item.request.arrival)
        if current - last_flush >= args.flush_interval:
            service.flush()
            last_flush = current
        seq += 1
        head = f"{item.tenant}|u{item.user}|{seq}|".encode()
        payload = head + b"." * max(0, item.request.size - len(head))
        offered += 1
        resp = service.handle(ServiceRequest(
            operation="write", tenant=item.tenant,
            params={"payload": payload,
                    "retention_seconds": item.request.retention},
            request_id=f"w{seq}"))
        if resp.status == 201:
            accepted += 1
            ledger[resp.body["locator"]] = payload
        elif resp.status == 202:
            deferred += 1
            open_tickets[resp.body["ticket"]] = (item.tenant, payload)
        else:
            rejected += 1
            if not well_formed_rejection(resp):
                print(f"MALFORMED REJECTION: {resp.to_dict()}",
                      file=sys.stderr)
                return 2

    # Drain: commit every pending group, then redeem every ticket.
    service.flush()
    for ticket, (tenant, payload) in sorted(open_tickets.items()):
        resp = patient(ServiceRequest(operation="redeem", tenant=tenant,
                                      params={"ticket": ticket}))
        if resp.status != 200:
            print(f"UNREDEEMED TICKET {ticket}: {resp.to_dict()}",
                  file=sys.stderr)
            return 2
        ledger[resp.body["locator"]] = payload

    unreadable = 0
    for locator, payload in sorted(ledger.items()):
        tenant = locator.split("/", 1)[0]
        resp = patient(ServiceRequest(operation="read", tenant=tenant,
                                      params={"locator": locator}))
        if resp.status != 200 or resp.body["payload"] != payload:
            unreadable += 1

    isolation_ok = True
    if args.tenants >= 2 and ledger:
        victim = next(iter(sorted(ledger)))
        intruder = next(n for n in names if n != victim.split("/", 1)[0])
        resp = patient(ServiceRequest(operation="read", tenant=intruder,
                                      params={"locator": victim}))
        isolation_ok = (resp.status == 404 and resp.problem is not None
                        and resp.problem.code == "tenant-isolation")

    problems = service.reconcile()
    if store.pending_count or len(ledger) != accepted + deferred:
        problems.append(
            f"ledger holds {len(ledger)} locators for {accepted} accepted "
            f"+ {deferred} deferred writes "
            f"({store.pending_count} still pending)")
    if malformed:
        problems.extend(f"malformed rejection: {entry}"
                        for entry in malformed[:5])
    if not rejected_codes and args.burst_rate > args.tenants * args.rate:
        problems.append("overload burst produced no rejections to check")

    stats = service.stats()
    rows = [[name,
             str(s["requests"]), str(s["accepted"]), str(s["deferred"]),
             str(s["redeemed"]), str(s["rejected"]),
             str(s["durable_records"]), str(s["pending_deferred"])]
            for name, s in ((n, stats[n]) for n in names)]
    print(format_table(
        ["tenant", "requests", "accepted", "deferred", "redeemed",
         "rejected", "durable", "pending"], rows,
        title=f"Tenant bench — {args.tenants} tenants (Zipf "
              f"{args.skew:g}), {args.users:,} users each, "
              f"{args.shards} shards, burst {args.burst_rate:g}/s vs "
              f"admission {args.rate:g}/s/tenant"))
    print(f"\noffered:   {offered} writes over {current:.0f}s virtual "
          f"({args.days} day(s))")
    print(f"admitted:  {accepted} immediate + {deferred} deferred "
          f"(all {len(ledger)} durable+verified), {rejected} rejected")
    if rejected_codes:
        breakdown = ", ".join(f"{code}={count}" for code, count
                              in sorted(rejected_codes.items()))
        print(f"rejections: {breakdown} "
              f"(all well-formed: coded problem + RateLimit headers)")
    print(f"isolation: cross-tenant probe "
          f"{'refused (404 tenant-isolation)' if isolation_ok else 'LEAKED'}")
    if unreadable:
        print(f"RECORD LOSS: {unreadable} admitted writes unreadable",
              file=sys.stderr)
    for problem in problems:
        print(f"RECONCILE: {problem}", file=sys.stderr)
    if unreadable or problems or not isolation_ok:
        return 2
    print("zero dropped writes; tenant accounting reconciles")
    return 0


def cmd_serve(args) -> int:
    """Serve the versioned contract as JSON lines on stdin/stdout.

    A demo transport for the in-process service layer: each input line
    is one ``ServiceRequest`` dict (payload bytes as
    ``{"$bytes": base64}``), each output line the matching
    ``ServiceResponse``.  The store is in-memory and wall-clock timed;
    persistence would wire the same service over a directory store.
    """
    from repro import demo_keyring
    from repro.core.config import StoreConfig
    from repro.core.sharded import ShardedWormStore
    from repro.service import (PROTOCOL_VERSION, BadRequestError,
                               ServiceRequest, TenantConfig, WormService,
                               problem_from_error)

    names = [name.strip() for name in args.tenants.split(",") if name.strip()]
    if not names:
        print("serve: need at least one tenant name", file=sys.stderr)
        return 2
    store = ShardedWormStore.build(
        shard_count=args.shards, keyring=demo_keyring(), clock=SystemClock(),
        config=StoreConfig(shard_count=args.shards, group_commit_size=4))
    ca = CertificateAuthority(bits=512)
    service = WormService(store, ca=ca, tenants=[
        TenantConfig(name, rate=args.rate, burst=args.burst_tokens,
                     max_deferred=args.max_deferred) for name in names])
    print(f"serve: protocol v{PROTOCOL_VERSION}, {args.shards} shards, "
          f"tenants {', '.join(names)}; one JSON request per line",
          file=sys.stderr)
    try:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                request = ServiceRequest.from_dict(json.loads(line))
            except (ValueError, TypeError) as exc:
                problem = problem_from_error(
                    BadRequestError(f"unparseable request: {exc}"))
                print(json.dumps({"status": problem.status, "headers": {},
                                  "problem": problem.to_dict(),
                                  "request_id": None}), flush=True)
                continue
            print(json.dumps(service.handle(request).to_dict()), flush=True)
    except BrokenPipeError:
        return 0  # reader went away; nothing left to answer
    service.flush()
    return 0


def cmd_perf(args) -> int:
    """Regenerate (or check) every committed ``BENCH_*.json``.

    Runs :mod:`repro.perf` — the shard-bench scaling table, a reduced
    Figure 1 sweep, the read+verify path, the record-granular read
    against group size and the three-way authentication-scheme
    ablation — and writes the seven artifacts.  All
    numbers are virtual-time and deterministic, so ``--check``
    regenerates them and compares byte for byte; any difference, better
    or worse, exits 2.
    """
    from repro import perf

    out_dir = Path(args.out_dir)
    if args.check:
        drifted = perf.check_baselines(out_dir)
        if drifted:
            print(f"DRIFT: {', '.join(drifted)} missing or different from "
                  f"a fresh run; regenerate with `make perf` and review "
                  f"`git diff benchmarks/`", file=sys.stderr)
            return 2
        print(f"all {len(perf.BASELINE_NAMES)} artifacts match a fresh run")
        return 0
    written = perf.write_baselines(out_dir)
    data = json.loads((out_dir / "BENCH_shard.json").read_text())
    rows = [[str(p["shards"]), str(p["batch"]), f"{p['writes_per_sec']:.0f}",
             str(p["scpu_crossings"])]
            for p in data["points"] + [data["headline"]]]
    print(format_table(
        ["shards", "batch", "writes/s", "SCPU crossings"], rows,
        title="Hot-path baseline — sharded writes (virtual time)"))
    read = json.loads((out_dir / "BENCH_read.json").read_text())
    print(f"\nread path: {read['reads_per_sec']:.0f} verified reads/s, "
          f"{read['read_scpu_crossings']} SCPU crossings, "
          f"sig-cache {read['sig_cache_hits']}/"
          f"{read['sig_cache_hits'] + read['sig_cache_misses']} hits")
    print(f"wrote {len(written)} artifact(s) to {out_dir}/")
    return 0


def cmd_report(args) -> int:
    from repro.core.report import generate_report
    root, store, ca = _open(args.directory)
    client = store.make_client(ca)
    # Persistent stores run on the system clock, so the store's "virtual"
    # time *is* the calendar — pass it as the report's wall stamp.
    report = generate_report(store, client, wall_time=store.now)
    print(report.text)
    if report.verdict == "FAIL":
        return 2
    return 0


# ---------------------------------------------------------------------------

def _at_least(minimum: float, kind=int, strict: bool = False,
              below: Optional[float] = None):
    """An argparse ``type=``: a *kind* number >= *minimum* (> if *strict*),
    and < *below* when given.

    A value out of range is a usage error: argparse prints the usage
    line and the rule, and exits 2.
    """
    rule = f"must be {'>' if strict else '>='} {minimum}"
    if below is not None:
        rule += f" and < {below}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(  # wormlint: disable=W005 - argparse's usage-error type: exit 2 with the rule
                f"invalid {kind.__name__} value: {text!r}") from None
        in_range = ((value > minimum if strict else value >= minimum)
                    and (below is None or value < below))
        if not in_range:
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")  # wormlint: disable=W005 - argparse's usage-error type: exit 2 with the rule
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Strong WORM compliance store (ICDCS 2008 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="initialize a store directory")
    p.add_argument("directory")
    p.add_argument("--strong-bits", type=int, default=1024,
                   help="modulus size for the durable SCPU keys")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("write", help="commit a file as one WORM record")
    p.add_argument("directory")
    p.add_argument("file")
    p.add_argument("--policy", default="default")
    p.add_argument("--retention-years", type=float, default=None)
    p.add_argument("--strength", default=Strength.STRONG,
                   choices=[Strength.STRONG, Strength.WEAK, Strength.HMAC])
    p.set_defaults(func=cmd_write)

    p = sub.add_parser("cat", help="read + verify a record by SN")
    p.add_argument("directory")
    p.add_argument("sn", type=int)
    p.set_defaults(func=cmd_cat)

    p = sub.add_parser("status", help="compliance overview")
    p.add_argument("directory")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("maintain", help="run one idle-period maintenance slice")
    p.add_argument("directory")
    p.set_defaults(func=cmd_maintain)

    p = sub.add_parser("audit", help="full verification sweep (exit 2 on tamper)")
    p.add_argument("directory")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("report",
                       help="full compliance report (exit 2 on FAIL)")
    p.add_argument("directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("shard-bench",
                       help="virtual-time sharded-scaling benchmark "
                            "(in-memory; no store directory needed)")
    p.add_argument("--shards", type=_at_least(1), default=4)
    p.add_argument("--batch", type=_at_least(1), default=8,
                   help="group-commit batch size for the batched run")
    p.add_argument("--records", type=_at_least(1), default=240,
                   help="records per measured run")
    p.add_argument("--record-size", type=_at_least(0), default=1024)
    p.add_argument("--workers", type=_at_least(1), default=64,
                   help="closed-loop client concurrency")
    p.set_defaults(func=cmd_shard_bench)

    p = sub.add_parser("faults-demo",
                       help="replay a canned fault plan; exit 2 on record "
                            "loss (in-memory; no store directory needed)")
    p.add_argument("--shards", type=_at_least(2), default=4,
                   help="failure domains (one card dies)")
    p.add_argument("--records", type=_at_least(1), default=120)
    p.add_argument("--record-size", type=_at_least(0), default=512)
    p.add_argument("--fault-rate", type=_at_least(0, float, below=1),
                   default=0.08,
                   help="per-op transient fault probability per shard")
    p.add_argument("--tamper-after", type=_at_least(1), default=12,
                   help="SCPU ops before shard 1's card zeroizes")
    p.add_argument("--seed", type=int, default=40,
                   help="base RNG seed for the per-shard fault plans")
    p.set_defaults(func=cmd_faults_demo)

    p = sub.add_parser("obs",
                       help="run a short sharded workload and export its "
                            "telemetry (in-memory; exit 2 on a tenant "
                            "accounting mismatch or schema violation)")
    p.add_argument("--shards", type=_at_least(1), default=2)
    p.add_argument("--records", type=_at_least(1), default=48)
    p.add_argument("--record-size", type=_at_least(0), default=512)
    p.add_argument("--fault-rate", type=_at_least(0, float, below=1),
                   default=0.05,
                   help="per-op transient fault probability per shard")
    p.add_argument("--tamper-after", type=_at_least(0), default=0,
                   help="SCPU ops before shard 1's card zeroizes "
                        "(0 = no tamper)")
    p.add_argument("--seed", type=int, default=71,
                   help="base RNG seed for the per-shard fault plans")
    p.add_argument("--format", default="summary",
                   choices=["summary", "snapshot", "jsonl", "prom", "chrome"])
    p.add_argument("--out", default=None,
                   help="write the export here instead of stdout")
    p.add_argument("--check", default=None, metavar="SCHEMA",
                   help="validate the snapshot against this JSON schema")
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser("recover",
                       help="site-loss recovery drill: replicate to a "
                            "standby, kill the site mid-stream, rebuild "
                            "with verified recovery; exit 2 on loss, "
                            "laundered tamper, or RTO breach (in-memory)")
    p.add_argument("--shards", type=_at_least(1), default=2)
    p.add_argument("--records", type=_at_least(1), default=400)
    p.add_argument("--record-size", type=_at_least(0), default=64)
    p.add_argument("--group-commit", type=_at_least(1), default=8)
    p.add_argument("--fault-rate", type=_at_least(0, float, below=1),
                   default=0.05,
                   help="transient loss rate on the replication WAN")
    p.add_argument("--link-bandwidth", type=_at_least(0, float, strict=True),
                   default=1e6,
                   help="recovery download bandwidth (bytes/s, virtual)")
    p.add_argument("--rto-bound", type=_at_least(0, float), default=1800.0,
                   help="virtual-seconds recovery-time objective")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one replicated byte; the drill then "
                        "passes only if recovery raises TamperedError")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("tenant-bench",
                       help="open-loop multi-tenant service benchmark in "
                            "virtual time; exit 2 on lost writes or "
                            "telemetry mismatch (in-memory)")
    positive = _at_least(0, float, strict=True)
    p.add_argument("--shards", type=_at_least(1), default=2)
    p.add_argument("--tenants", type=_at_least(1), default=3)
    p.add_argument("--days", type=_at_least(1), default=1)
    p.add_argument("--hour-seconds", type=positive, default=2.0,
                   help="virtual seconds per diurnal 'hour' (compresses "
                        "the day; rates stay per-second)")
    p.add_argument("--night-rate", type=positive, default=0.5)
    p.add_argument("--day-rate", type=positive, default=2.0)
    p.add_argument("--burst-rate", type=positive, default=40.0,
                   help="end-of-day burst arrival rate (set above "
                        "tenants*rate to exercise deferral)")
    p.add_argument("--burst-seconds", type=_at_least(0, float), default=6.0)
    p.add_argument("--rate", type=positive, default=4.0,
                   help="per-tenant sustained admission rate (tokens/s)")
    p.add_argument("--burst-tokens", type=_at_least(1), default=8,
                   help="per-tenant token-bucket depth")
    p.add_argument("--max-deferred", type=_at_least(0), default=48,
                   help="per-tenant deferred-backlog cap (beyond it: "
                        "429 backlog-full)")
    p.add_argument("--record-size", type=_at_least(0), default=256)
    p.add_argument("--skew", type=_at_least(0, float), default=1.1,
                   help="Zipf skew of tenant popularity")
    p.add_argument("--users", type=_at_least(1), default=1_000_000,
                   help="simulated end users per tenant")
    p.add_argument("--group-commit", type=_at_least(1), default=8)
    p.add_argument("--flush-interval", type=_at_least(0, float), default=5.0,
                   help="virtual seconds between forced group commits")
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(func=cmd_tenant_bench)

    p = sub.add_parser("serve",
                       help="JSON-lines service transport on stdin/stdout "
                            "(in-memory demo store)")
    p.add_argument("--shards", type=_at_least(1), default=2)
    p.add_argument("--tenants", default="default",
                   help="comma-separated tenant names")
    p.add_argument("--rate", type=_at_least(0, float, strict=True),
                   default=100.0)
    p.add_argument("--burst-tokens", type=_at_least(1), default=200)
    p.add_argument("--max-deferred", type=_at_least(0), default=256)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("perf",
                       help="every committed BENCH_*.json: shard scaling, "
                            "figure-1 subset, read path, granular reads, "
                            "auth-scheme ablation (virtual time, "
                            "deterministic)")
    p.add_argument("--out-dir", default="benchmarks",
                   help="directory receiving the BENCH_*.json artifacts")
    p.add_argument("--check", action="store_true",
                   help="regenerate and compare byte for byte against the "
                        "committed artifacts instead of writing; exit 2 "
                        "on any difference")
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser("attest",
                       help="signed SCPU state snapshot; chain with --previous")
    p.add_argument("directory")
    p.add_argument("--out", default=None,
                   help="write the attestation JSON here for later chaining")
    p.add_argument("--previous", default=None,
                   help="verify monotonicity against a saved attestation")
    p.set_defaults(func=cmd_attest)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
