"""Seeded inputs for the four workloads.

Everything the program receives is made here, from ``random.Random``
streams keyed by the workload and ``--seed``; nothing comes from
``repro.sim.workload``, so a change to the program cannot change the
traffic it is measured with.  Each function returns a plain, immutable
schedule: virtual arrival times plus the operation to send.  The
benchmark loop advances the store's ``ManualClock`` to every arrival, so
admission, expiry and group-commit decisions are the same on every run
of a seed, and wall time measures only the implementation.

Draws are stratified: every share (tenants, batches, op mix, strengths,
retention profiles) is met exactly and then shuffled, each period has a
fixed number of arrivals at seeded times, and record sizes are the same
quantile-spaced set in a seeded order.  Seeds therefore differ in order
and timing, not in how much work a run holds, which keeps the
run-to-run spread of the metrics close to the machine's own noise.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

YEAR = 365 * 24 * 3600.0
#: Retention of records meant to outlive the run.
LONG_RETENTION = 7 * YEAR
TENANTS = ("acme", "globex", "initech")
#: Zipf exponent of tenant popularity (about 57 % / 27 % / 17 %).
TENANT_SKEW = 1.1


class Zipf:
    """Ranks 0..n-1 with P(rank k) proportional to 1 / (k + 1) ** s."""

    def __init__(self, n: int, s: float) -> None:
        if n < 1:
            raise ValueError("a Zipf sampler needs at least one rank")
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        total = sum(weights)
        self.probabilities = [w / total for w in weights]
        self._cdf: List[float] = []
        acc = 0.0
        for p in self.probabilities:
            acc += p
            self._cdf.append(acc)

    def sample(self, rng: random.Random) -> int:
        return min(bisect.bisect_left(self._cdf, rng.random()),
                   len(self._cdf) - 1)


def exact_shares(rng: random.Random, options: Sequence,
                 shares: Sequence[float], n: int) -> list:
    """*n* picks meeting *shares* exactly (largest remainder), shuffled."""
    total = sum(shares)
    quotas = [n * s / total for s in shares]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(options)),
                          key=lambda i: quotas[i] - counts[i], reverse=True)
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    picks = [option for option, count in zip(options, counts)
             for _ in range(count)]
    rng.shuffle(picks)
    return picks


def spread_sizes(rng: random.Random, lo: int, hi: int, n: int) -> List[int]:
    """*n* sizes at evenly spaced quantiles of log-uniform [lo, hi], shuffled."""
    sizes = [int(round(lo * (hi / lo) ** ((i + 0.5) / n))) for i in range(n)]
    rng.shuffle(sizes)
    return sizes


def arrival_times(rng: random.Random, start: float, duration: float,
                  n: int) -> List[float]:
    """*n* arrivals in [start, start + duration): a Poisson process given n."""
    return sorted(start + rng.random() * duration for _ in range(n))


def make_payload(rng: random.Random, label: str, size: int) -> bytes:
    """*size* bytes: a readable label, then seeded filler."""
    head = label.encode("ascii") + b"|"
    return head + rng.randbytes(max(0, size - len(head)))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# --------------------------------------------------------------------- ingest

#: Per-tenant admission: records/s refilled, bucket depth, deferred cap.
INGEST_RATE = 50.0
INGEST_BURST = 40
INGEST_MAX_DEFERRED = 10
#: Periods under the admission rate, then bursts far above it:
#: (virtual seconds, requests in the period).
INGEST_CYCLES = 2
INGEST_CALM = (8.0, 240)
INGEST_BURST_PERIOD = (0.4, 200)
INGEST_BATCH_SHARE = 0.15
INGEST_BATCH = 8
INGEST_SIZES = (512, 64 * 1024)
#: Offsets into each calm period of a flush + redeem round.
INGEST_FLUSH_AT = (3.0, 6.0)


@dataclass(frozen=True)
class Event:
    """One request of a service workload at virtual time *at*.

    ``op`` is ``write``/``write_batch`` (with ``payloads``), ``flush``,
    or ``redeem`` (redeem every outstanding ticket of ``tenant``).
    """

    at: float
    op: str
    tenant: str = ""
    payloads: Tuple[bytes, ...] = ()


def ingest(seed: int) -> List[Event]:
    """Write-only tenant traffic alternating calm periods and bursts."""
    rng = _rng("ingest", seed)
    popularity = Zipf(len(TENANTS), TENANT_SKEW).probabilities
    periods = []  # (start, duration, requests)
    flushes = []
    t = 0.0
    for _ in range(INGEST_CYCLES):
        for duration, requests in (INGEST_CALM, INGEST_BURST_PERIOD):
            periods.append((t, duration, requests))
            t += duration
        flushes.extend(periods[-2][0] + offset for offset in INGEST_FLUSH_AT)
    flushes.append(t + 5.0)

    shapes = []  # (at, tenant, batch)
    for start, duration, requests in periods:
        shapes.extend(zip(
            arrival_times(rng, start, duration, requests),
            exact_shares(rng, TENANTS, popularity, requests),
            exact_shares(rng, (True, False),
                         (INGEST_BATCH_SHARE, 1 - INGEST_BATCH_SHARE),
                         requests)))
    records = sum(INGEST_BATCH if batch else 1 for _, _, batch in shapes)
    sizes = iter(spread_sizes(rng, *INGEST_SIZES, records))
    events: List[Event] = []
    serial = 0
    for at, tenant, batch in shapes:
        payloads = []
        for _ in range(INGEST_BATCH if batch else 1):
            serial += 1
            payloads.append(make_payload(rng, f"{tenant}:{serial}",
                                         next(sizes)))
        events.append(Event(at=at, op="write_batch" if batch else "write",
                            tenant=tenant, payloads=tuple(payloads)))
    for at in flushes:
        events.append(Event(at=at, op="flush"))
        events.extend(Event(at=at, op="redeem", tenant=name)
                      for name in TENANTS)
    events.sort(key=lambda event: event.at)  # stable: flush before redeems
    return events


# ----------------------------------------------------------------- audit_read

AUDIT_RATE = 1e6               # admission never limits the auditors
AUDIT_PRELOAD_BATCHES = 375    # x 8 records = 3000 preloaded records
AUDIT_BATCH = 8
AUDIT_LAPSING_SHARE = 0.10     # preload batches whose retention lapses
AUDIT_LAPSE_SECONDS = 60.0
AUDIT_SIZES = (256, 8 * 1024)
AUDIT_REQUESTS = 12_000
AUDIT_SECONDS = 12.0           # virtual span of the timed phase
AUDIT_MIX = (("read_verified", 0.90), ("read", 0.05), ("write", 0.05))
AUDIT_EXPIRED_READ_SHARE = 0.10
#: Zipf exponent over live records: the hot head fits the client's
#: 256-signature memo, the ~2 signatures of every VR do not.
AUDIT_LOCATOR_SKEW = 1.1


@dataclass(frozen=True)
class PreloadBatch:
    tenant: str
    payloads: Tuple[bytes, ...]
    lapsing: bool


@dataclass(frozen=True)
class AuditRequest:
    """``record`` indexes the preloaded records (reads); writes carry a payload."""

    at: float
    op: str
    record: int = -1
    tenant: str = ""
    payload: bytes = b""


@dataclass(frozen=True)
class AuditTraffic:
    preload: Tuple[PreloadBatch, ...]
    requests: Tuple[AuditRequest, ...]

    def record_owner(self, record: int) -> str:
        return self.preload[record // AUDIT_BATCH].tenant

    def record_payload(self, record: int) -> bytes:
        return self.preload[record // AUDIT_BATCH].payloads[record % AUDIT_BATCH]

    def record_lapsed(self, record: int) -> bool:
        return self.preload[record // AUDIT_BATCH].lapsing


def audit_read(seed: int) -> AuditTraffic:
    """A preload with a lapsing tenth, then Zipf-skewed auditor reads."""
    rng = _rng("audit_read", seed)
    popularity = Zipf(len(TENANTS), TENANT_SKEW).probabilities
    batches = AUDIT_PRELOAD_BATCHES
    ops = exact_shares(rng, [op for op, _ in AUDIT_MIX],
                       [share for _, share in AUDIT_MIX], AUDIT_REQUESTS)
    writes = ops.count("write")
    sizes = iter(spread_sizes(rng, *AUDIT_SIZES,
                              batches * AUDIT_BATCH + writes))
    owners = exact_shares(rng, TENANTS, popularity, batches)
    lapsing = exact_shares(rng, (True, False),
                           (AUDIT_LAPSING_SHARE, 1 - AUDIT_LAPSING_SHARE),
                           batches)
    preload = tuple(
        PreloadBatch(owner, tuple(
            make_payload(rng, f"{owner}:pre{index}.{i}", next(sizes))
            for i in range(AUDIT_BATCH)), lapses)
        for index, (owner, lapses) in enumerate(zip(owners, lapsing)))

    records = range(batches * AUDIT_BATCH)
    live = [r for r in records if not preload[r // AUDIT_BATCH].lapsing]
    lapsed = [r for r in records if preload[r // AUDIT_BATCH].lapsing]
    rng.shuffle(live)  # hot ranks land on arbitrary VRs
    hot = Zipf(len(live), AUDIT_LOCATOR_SKEW)
    expired = iter(exact_shares(
        rng, (True, False),
        (AUDIT_EXPIRED_READ_SHARE, 1 - AUDIT_EXPIRED_READ_SHARE),
        AUDIT_REQUESTS - writes))
    writers = iter(exact_shares(rng, TENANTS, popularity, writes))
    requests = []
    for serial, (at, op) in enumerate(zip(
            arrival_times(rng, 0.0, AUDIT_SECONDS, AUDIT_REQUESTS), ops)):
        if op == "write":
            tenant = next(writers)
            requests.append(AuditRequest(
                at=at, op=op, tenant=tenant,
                payload=make_payload(rng, f"{tenant}:w{serial}",
                                     next(sizes))))
        elif next(expired):
            requests.append(AuditRequest(at=at, op=op,
                                         record=rng.choice(lapsed)))
        else:
            requests.append(AuditRequest(at=at, op=op,
                                         record=live[hot.sample(rng)]))
    return AuditTraffic(preload=preload, requests=tuple(requests))


# ------------------------------------------------------------------ lifecycle

#: A policy that mandates multi-pass shredding (registered per store).
SHRED_POLICY = "perfbench-shred"
LIFECYCLE_BURSTS = 6
LIFECYCLE_WRITES = 100          # per burst
LIFECYCLE_BURST_SECONDS = 5.0
LIFECYCLE_STRENGTHS = (("weak", 0.7), ("hmac", 0.3))
LIFECYCLE_SHRED_SHARE = 0.3
#: (retention seconds, share): short profiles expire out of insertion order.
LIFECYCLE_RETENTION = ((300.0, 0.25), (900.0, 0.25), (2400.0, 0.2),
                       (6000.0, 0.1), (LONG_RETENTION, 0.2))
LIFECYCLE_SIZES = (256, 16 * 1024)
LIFECYCLE_GAP = 600.0           # idle virtual seconds after each burst
LIFECYCLE_SLICE_EVERY = 60.0    # a maintenance slice per idle minute
LIFECYCLE_SLICE_BUDGET = 32     # strengthen / verify budget per slice
LIFECYCLE_READS = 60            # verified reads after each idle gap


@dataclass(frozen=True)
class LifecycleWrite:
    at: float
    payload: bytes
    strength: str
    policy: str
    retention: float


@dataclass(frozen=True)
class LifecycleRound:
    """One burst of writes, the idle gap's slices, then reads.

    ``reads`` index every write of the pass made so far (this round's
    included), in the order they were written.
    """

    writes: Tuple[LifecycleWrite, ...]
    slice_times: Tuple[float, ...]
    reads: Tuple[int, ...]


def lifecycle(seed: int) -> Tuple[LifecycleRound, ...]:
    """Bursts of weak/HMAC writes with short, mixed retention periods."""
    rng = _rng("lifecycle", seed)
    n = LIFECYCLE_WRITES
    sizes = iter(spread_sizes(rng, *LIFECYCLE_SIZES, n * LIFECYCLE_BURSTS))
    rounds = []
    t = 0.0
    written = 0
    for burst in range(LIFECYCLE_BURSTS):
        writes = tuple(
            LifecycleWrite(at=at,
                           payload=make_payload(rng, f"life:{burst}.{i}",
                                                next(sizes)),
                           strength=strength, policy=policy,
                           retention=retention)
            for i, (at, strength, policy, retention) in enumerate(zip(
                arrival_times(rng, t, LIFECYCLE_BURST_SECONDS, n),
                exact_shares(rng, *zip(*LIFECYCLE_STRENGTHS), n),
                exact_shares(rng, (SHRED_POLICY, "default"),
                             (LIFECYCLE_SHRED_SHARE,
                              1 - LIFECYCLE_SHRED_SHARE), n),
                exact_shares(rng, *zip(*LIFECYCLE_RETENTION), n))))
        written += n
        t += LIFECYCLE_BURST_SECONDS
        slices = tuple(t + LIFECYCLE_SLICE_EVERY * k for k in range(
            1, int(LIFECYCLE_GAP // LIFECYCLE_SLICE_EVERY) + 1))
        t = slices[-1]
        reads = tuple(rng.randrange(written) for _ in range(LIFECYCLE_READS))
        rounds.append(LifecycleRound(writes, slices, reads))
    return tuple(rounds)


# -------------------------------------------------------------- site_recovery

#: Not a multiple of 2 shards x 8, so a tail stays uncommitted at the kill.
SITE_RECORDS = 2006
SITE_SECONDS = 10.0             # virtual span of the replicated ingest
SITE_PUMP_EVERY = 64            # submits between replication cycles
SITE_LOSS = 0.05                # share of WAN sends the transport drops
SITE_SIZES = (256, 16 * 1024)


@dataclass(frozen=True)
class SiteTraffic:
    arrivals: Tuple[float, ...]
    payloads: Tuple[bytes, ...]
    fault_seed: int


def site_recovery(seed: int) -> SiteTraffic:
    """Arrivals and payloads of one replicated ingest, and the WAN's faults."""
    rng = _rng("site_recovery", seed)
    sizes = spread_sizes(rng, *SITE_SIZES, SITE_RECORDS)
    return SiteTraffic(
        arrivals=tuple(arrival_times(rng, 0.0, SITE_SECONDS, SITE_RECORDS)),
        payloads=tuple(make_payload(rng, f"site:{i}", size)
                       for i, size in enumerate(sizes)),
        fault_seed=rng.getrandbits(32))
