"""Simulation driver: turns metered costs into virtual-time throughput.

The evaluation's throughput numbers (Figure 1, the multi-SCPU scaling
claim, the burst-absorption experiments) are queueing results: writers
contend for the SCPU — a slow, serial device — while the host CPU and
disks run an order of magnitude faster.  This driver executes WORM
operations *functionally* (instantaneously, producing correct state and
signatures) and replays their metered per-device costs through FIFO
:class:`~repro.hardware.device.TimedDevice` resources in a
:class:`~repro.sim.engine.Simulator`, so contention and pipelining fall
out of the model rather than being assumed.

A request flows host → disk → SCPU (when its SCPU cost is non-zero),
matching the write path: the main CPU stages and lands the data, then the
SCPU witnesses it.  Reads never enter the SCPU queue — the paper's
central design point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.config import StoreConfig
from repro.core.errors import TamperedError, WormError
from repro.core.sharded import ShardedWormStore, ShardedWriteReceipt
from repro.core.worm import StrongWormStore
from repro.faults import FaultPlan, FaultyScpu
from repro.hardware.device import TimedDevice
from repro.hardware.scpu import ScpuKeyring, SecureCoprocessor
from repro.sim.engine import Simulator, all_of
from repro.sim.metrics import MetricsCollector, RequestSample
from repro.sim.workload import WorkRequest
from repro.storage.journal import IntentJournal

__all__ = ["SimulatedStore", "SimulationConfig", "ShardedSimStore",
           "ChaosResult", "make_sim_store", "make_sharded_sim_store",
           "run_closed_loop", "run_open_loop", "run_sharded_closed_loop",
           "run_sharded_chaos_loop"]


@dataclass
class SimulationConfig:
    """Device pool sizes and driver concurrency for one simulation run."""

    scpu_count: int = 1
    host_count: int = 2
    disk_count: int = 8
    workers: int = 32                       # closed-loop concurrency
    strengthen_when_idle: bool = False      # drain the §4.3 queue in gaps
    maintenance_interval: float = 60.0      # idle-loop poll period


@dataclass
class SimulatedStore:
    """A store wired into a simulator with timed device pools."""

    sim: Simulator
    store: StrongWormStore
    scpu_dev: TimedDevice
    host_dev: TimedDevice
    disk_dev: TimedDevice
    trace: Optional[object] = None  # TraceRecorder, when tracing is on

    def replay(self, costs: Dict[str, float], label: str = "op"):
        """Process-generator: replay a cost breakdown through the pools."""
        for device in (self.host_dev, self.disk_dev, self.scpu_dev):
            cost = costs.get(device.name, 0.0)
            if cost == 0.0:
                continue
            start = self.sim.now
            yield from device.use(cost)
            if self.trace is not None:
                self.trace.record(label, device.name, start, self.sim.now,
                                  service=cost)

    def utilization(self, elapsed: float) -> Dict[str, float]:
        return {
            "scpu": self.scpu_dev.utilization(elapsed),
            "host": self.host_dev.utilization(elapsed),
            "disk": self.disk_dev.utilization(elapsed),
        }


def make_sim_store(config: Optional[SimulationConfig] = None,
                   keyring: Optional[ScpuKeyring] = None,
                   trace: Optional[object] = None,
                   **store_kwargs) -> SimulatedStore:
    """Build a simulator + store sharing one virtual clock.

    The SCPU's internal clock *is* the simulation clock, so signature
    timestamps, retention expirations and freshness windows all live in
    the same virtual timeline the queueing model advances.
    """
    config = config if config is not None else SimulationConfig()
    sim = Simulator()
    if keyring is None:
        from repro import demo_keyring
        keyring = demo_keyring()
    scpu = SecureCoprocessor(keyring=keyring, clock=sim.clock)
    store = StrongWormStore(scpu=scpu, **store_kwargs)
    return SimulatedStore(
        sim=sim,
        store=store,
        scpu_dev=TimedDevice(sim, "scpu", capacity=config.scpu_count),
        host_dev=TimedDevice(sim, "host", capacity=config.host_count),
        disk_dev=TimedDevice(sim, "disk", capacity=config.disk_count),
        trace=trace,
    )


@dataclass
class ShardedSimStore:
    """A sharded front-end wired into one simulator.

    Every shard owns a full device triple (its SCPU card plus its own
    host/disk lanes — shards are independent stores, §2.2's deployment
    replicated N times), all advancing on one virtual clock.  Costs from
    a shard's operations replay on *that shard's* devices, so cross-shard
    parallelism falls out of the queueing model instead of being assumed.
    """

    sim: Simulator
    store: ShardedWormStore
    devices: List[Dict[str, TimedDevice]]  # per shard: scpu/host/disk
    fault_plans: List[Optional[FaultPlan]] = field(default_factory=list)

    def replay(self, shard_id: int, costs: Dict[str, float]):
        """Process-generator: replay one cost breakdown on one shard."""
        triple = self.devices[shard_id]
        for name in ("host", "disk", "scpu"):
            cost = costs.get(name, 0.0)
            if cost:
                yield from triple[name].use(cost)

    def replay_commit(self, receipts: Iterable[ShardedWriteReceipt]):
        """Process-generator: replay one commit's receipts.

        A commit is one flush per shard touched: each shard's summed
        receipt costs replay on that shard's devices, the shards in
        parallel.
        """
        flush_costs: Dict[int, Dict[str, float]] = {}
        for receipt in receipts:
            shard_costs = flush_costs.setdefault(receipt.shard_id, {})
            for device, cost in receipt.costs.items():
                shard_costs[device] = shard_costs.get(device, 0.0) + cost
        replays = [self.sim.process(self.replay(shard_id, costs))
                   for shard_id, costs in flush_costs.items()]
        if replays:
            yield all_of(self.sim, replays)

    def utilization(self, elapsed: float) -> List[Dict[str, float]]:
        return [{name: dev.utilization(elapsed)
                 for name, dev in triple.items()}
                for triple in self.devices]


def make_sharded_sim_store(shard_count: int,
                           config: Optional[SimulationConfig] = None,
                           keyring: Optional[ScpuKeyring] = None,
                           store_config: Optional[StoreConfig] = None,
                           fault_plans: Optional[
                               Sequence[Optional[FaultPlan]]] = None,
                           journal: Optional[IntentJournal] = None
                           ) -> ShardedSimStore:
    """Build a simulator + sharded store sharing one virtual clock.

    ``config.scpu_count`` is the per-shard card count (usually 1 — the
    point of sharding is one card per shard); host/disk pool sizes are
    per shard as well.

    *fault_plans*, when given, holds one optional
    :class:`~repro.faults.FaultPlan` per shard: that shard's SCPU is
    wrapped in a :class:`~repro.faults.FaultyScpu` driven by the plan,
    so chaos runs inject deterministic faults into specific failure
    domains.  A *journal* makes the group-commit pending queue
    crash-durable, exactly as on the real store.
    """
    config = config if config is not None else SimulationConfig()
    store_config = (store_config if store_config is not None
                    else StoreConfig())
    sim = Simulator()
    if keyring is None:
        from repro import demo_keyring
        keyring = demo_keyring()
    plans: List[Optional[FaultPlan]] = (
        list(fault_plans) if fault_plans is not None else [])
    if plans and len(plans) != shard_count:
        raise ValueError(
            f"fault_plans has {len(plans)} entries for {shard_count} shards")
    if plans:
        # Wrap each shard's card before its store ever sees it, so every
        # trust-boundary call of that shard runs under its plan.
        template = store_config.per_shard()
        stores = []
        for plan in plans:
            scpu: object = SecureCoprocessor(keyring=keyring,
                                             clock=sim.clock)
            if plan is not None:
                scpu = FaultyScpu(scpu, plan)
            stores.append(StrongWormStore(
                config=template.replace(scpu=scpu)))
        store = ShardedWormStore(
            stores, config=store_config.replace(shard_count=shard_count),
            journal=journal)
    else:
        store = ShardedWormStore.build(
            shard_count=shard_count, config=store_config,
            keyring=keyring, clock=sim.clock, journal=journal)
    devices = [{
        "scpu": TimedDevice(sim, f"scpu{i}", capacity=config.scpu_count),
        "host": TimedDevice(sim, f"host{i}", capacity=config.host_count),
        "disk": TimedDevice(sim, f"disk{i}", capacity=config.disk_count),
    } for i in range(shard_count)]
    return ShardedSimStore(sim=sim, store=store, devices=devices,
                           fault_plans=plans)


def run_sharded_closed_loop(shardstore: ShardedSimStore,
                            requests: Iterable[WorkRequest],
                            config: Optional[SimulationConfig] = None,
                            write_kwargs: Optional[Dict] = None,
                            batch_size: int = 1) -> MetricsCollector:
    """Peak throughput of a sharded store, with optional group commit.

    Each worker claims *batch_size* pending write requests, commits them
    through :meth:`ShardedWormStore.write_batch` (one multi-record write
    per shard touched), and replays every touched shard's costs on that
    shard's devices *concurrently* — the flush really is parallel
    hardware work.  ``batch_size=1`` degenerates to per-record writes
    routed round-robin, the baseline the group-commit benchmark beats.
    """
    config = config if config is not None else SimulationConfig()
    write_kwargs = write_kwargs if write_kwargs is not None else {}
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    metrics = MetricsCollector()
    sim = shardstore.sim
    queue = list(requests)
    queue.reverse()  # pop() from the end in original order

    def worker():
        while queue:
            batch = [queue.pop()
                     for _ in range(min(batch_size, len(queue)))]
            arrival = sim.now
            receipts = shardstore.store.write_batch(
                [b"\xa5" * request.size for request in batch],
                retention_seconds=max(
                    max(r.retention for r in batch), 1.0),
                **write_kwargs)
            yield from shardstore.replay_commit(receipts)
            for request, receipt in zip(batch, receipts):
                metrics.record(RequestSample(
                    kind="write", arrival=arrival, start=arrival,
                    finish=sim.now, size=request.size))

    for _ in range(config.workers):
        sim.process(worker())
    sim.run()
    return metrics


@dataclass
class ChaosResult:
    """What a chaos run produced: receipts, metrics, and final health.

    ``receipts`` is the complete set of commit receipts — the loss
    invariant a chaos test asserts is that every one of them reads back
    and verifies.  ``health`` is the store's final
    :meth:`~repro.core.sharded.ShardedWormStore.health_report`.
    """

    metrics: MetricsCollector
    receipts: List[ShardedWriteReceipt]
    health: Dict[str, object]

    @property
    def accepted(self) -> int:
        """Records the store acknowledged (committed, receipt issued)."""
        return len(self.receipts)


def run_sharded_chaos_loop(shardstore: ShardedSimStore,
                           requests: Iterable[WorkRequest],
                           config: Optional[SimulationConfig] = None,
                           write_kwargs: Optional[Dict] = None,
                           drain_attempts: int = 20) -> ChaosResult:
    """Closed-loop ingest through ``submit``/``flush`` under fault plans.

    Workers push every request through the best-effort
    :meth:`~repro.core.sharded.ShardedWormStore.submit` path; group
    commits replay their costs on the committing shards' devices.  After
    the simulation drains, leftover pending records are flushed (up to
    *drain_attempts* rounds — transient faults may bounce a flush).
    Retry, failover and degradation totals are in the result's
    ``health``; injected faults stay on the plans.

    Ingest stops early only when the store raises
    :class:`~repro.core.errors.TamperedError` — every card gone — which
    the result records under the ``chaos.store_dead`` counter.
    """
    config = config if config is not None else SimulationConfig()
    write_kwargs = write_kwargs if write_kwargs is not None else {}
    metrics = MetricsCollector()
    receipts: List[ShardedWriteReceipt] = []
    sim = shardstore.sim
    store = shardstore.store
    queue = list(requests)
    queue.reverse()  # pop() from the end in original order

    def worker():
        while queue:
            request = queue.pop()
            arrival = sim.now
            payload = b"\xa5" * request.size
            try:
                flushed = store.submit(
                    payload,
                    retention_seconds=max(request.retention, 1.0),
                    **write_kwargs)
            except TamperedError:  # wormlint: disable=W004,W008 - chaos harness: store death is the measured outcome
                metrics.increment("chaos.store_dead")
                queue.clear()
                return
            if flushed:
                receipts.extend(flushed)
                yield from shardstore.replay_commit(flushed)
                for _ in flushed:
                    metrics.record(RequestSample(
                        kind="write", arrival=arrival, start=arrival,
                        finish=sim.now))

    for _ in range(config.workers):
        sim.process(worker())
    sim.run()

    # Drain what the group-commit threshold never triggered.  A flush
    # restores uncommittable groups and re-raises, so loop a bounded
    # number of rounds — transient faults clear, tamper does not.
    for _ in range(max(1, drain_attempts)):
        if store.pending_count == 0:
            break
        try:
            receipts.extend(store.flush())
        except TamperedError as exc:  # wormlint: disable=W004,W008 - chaos harness: store death is the measured outcome
            receipts.extend(getattr(exc, "partial_receipts", []))
            metrics.increment("chaos.store_dead")
            break
        except WormError as exc:  # wormlint: disable=W004,W008 - drain loop retries transients; tamper breaks out above
            receipts.extend(getattr(exc, "partial_receipts", []))
            metrics.increment("chaos.drain_retries")

    return ChaosResult(metrics=metrics, receipts=receipts,
                       health=store.health_report())


def _execute(simstore: SimulatedStore, request: WorkRequest,
             written_sns: List[int], write_kwargs: Dict,
             metrics: MetricsCollector, arrival: float):
    """Process-generator: run one request functionally, then replay costs."""
    store = simstore.store
    start = simstore.sim.now
    if request.kind == "write":
        payload = b"\xa5" * request.size
        receipt = store.write([payload],
                              retention_seconds=max(request.retention, 1.0),
                              **write_kwargs)
        written_sns.append(receipt.sn)
        costs = receipt.costs
    else:
        index = request.target_sn if request.target_sn is not None else 0
        if not written_sns:
            return
        sn = written_sns[index % len(written_sns)]
        marks = store._cost_checkpoints()
        store.read(sn)
        costs = store._cost_delta(marks)
    yield from simstore.replay(costs, label=request.kind)
    metrics.record(RequestSample(
        kind=request.kind,
        arrival=arrival,
        start=start,
        finish=simstore.sim.now,
        size=request.size,
    ))


def _maintenance_loop(simstore: SimulatedStore, interval: float):
    """Idle-time work: §4.3 strengthening + deferred hash verification.

    Steals the card only when no foreground request holds or awaits it.
    """
    store = simstore.store

    def card_idle():
        return (simstore.scpu_dev.resource.queue_length == 0
                and simstore.scpu_dev.resource.in_use == 0)

    # Drain in batches: one cost replay and one SCPU round trip per
    # chunk instead of a full checkpoint/replay cycle — and a simulation
    # event — per entry.
    batch = 8
    while True:
        yield simstore.sim.timeout(interval)
        while len(store.strengthening) > 0 and card_idle():
            marks = store._cost_checkpoints()
            if store.strengthening.drain(simstore.sim.now,
                                         max_items=batch) == 0:
                break
            yield from simstore.replay(store._cost_delta(marks))
        while len(store.hash_verification) > 0 and card_idle():
            marks = store._cost_checkpoints()
            if store.hash_verification.drain(max_items=batch) == 0:
                break
            yield from simstore.replay(store._cost_delta(marks))


def run_closed_loop(simstore: SimulatedStore, requests: Iterable[WorkRequest],
                    config: Optional[SimulationConfig] = None,
                    write_kwargs: Optional[Dict] = None) -> MetricsCollector:
    """Peak-throughput measurement: *workers* concurrent back-to-back clients.

    This is what Figure 1 plots — the maximum records/second the WORM
    layer absorbs for a given record size and witnessing mode.
    """
    config = config if config is not None else SimulationConfig()
    write_kwargs = write_kwargs if write_kwargs is not None else {}
    metrics = MetricsCollector()
    written_sns: List[int] = []
    queue = list(requests)
    queue.reverse()  # pop() from the end in original order

    def worker():
        while queue:
            request = queue.pop()
            yield from _execute(simstore, request, written_sns,
                                write_kwargs, metrics, simstore.sim.now)

    for _ in range(config.workers):
        simstore.sim.process(worker())
    if config.strengthen_when_idle:
        simstore.sim.process(_maintenance_loop(simstore,
                                               config.maintenance_interval))
        simstore.sim.run(until=10 * 24 * 3600.0)
    else:
        simstore.sim.run()
    return metrics


def run_open_loop(simstore: SimulatedStore, requests: Iterable[WorkRequest],
                  config: Optional[SimulationConfig] = None,
                  write_kwargs: Optional[Dict] = None,
                  horizon: Optional[float] = None) -> MetricsCollector:
    """Arrival-timed workload: requests arrive per their timestamps.

    Used for burst/idle experiments (§4.3) and read/write mixes; latency
    percentiles are meaningful here because queueing delay is visible.
    """
    config = config if config is not None else SimulationConfig()
    write_kwargs = write_kwargs if write_kwargs is not None else {}
    metrics = MetricsCollector()
    written_sns: List[int] = []

    def generator():
        for request in requests:
            delay = request.arrival - simstore.sim.now
            if delay > 0:
                yield simstore.sim.timeout(delay)
            simstore.sim.process(_execute(
                simstore, request, written_sns, write_kwargs, metrics,
                request.arrival))

    simstore.sim.process(generator())
    if config.strengthen_when_idle:
        simstore.sim.process(_maintenance_loop(simstore,
                                               config.maintenance_interval))
        simstore.sim.run(until=horizon if horizon is not None else 10 * 24 * 3600.0)
    else:
        simstore.sim.run(until=horizon)
    return metrics
