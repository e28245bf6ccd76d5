"""Sharded group-commit front-end: many stores, one surface (§4.3 + §5).

The paper's throughput analysis (§4.3, Figure 1) shows that SCPU work
per record — not disk — bounds write throughput, and §5 answers with
hardware parallelism: "results naturally scale if multiple SCPUs are
available."  :class:`ShardedWormStore` is that scaling layer grown to
production shape: it partitions writes across N independent
:class:`~repro.core.worm.StrongWormStore` shards (each backed by its own
:class:`~repro.hardware.device.ScpuLike` trust anchor — a dedicated
card, or one drawn from an :class:`~repro.hardware.pool.ScpuPool`) and
adds a **group-commit batching pipeline**: incoming records accumulate
into per-shard batches and flush as single multi-record ``write()``
calls, so the per-update SCPU witnessing cost (two signatures) is
amortized across the batch exactly as §4.3's deferred-strength bursts
amortize signature strength.

Identity across shards
----------------------
Each shard keeps its own SCPU serial-number space, so a record is named
by a :class:`RecordLocator` ``(shard_id, sn, record_index)`` — the
stable locator every :class:`ShardedWriteReceipt` carries and every read
routes by.  ``record_index`` selects the record inside a group-committed
multi-record VR (0 for unbatched writes).

Verification is unchanged — and that is the point.  A client bootstrapped
by :meth:`ShardedWormStore.make_client` holds the union of the shards'
certified keys; a read of ``locator`` is served by shard ``shard_id``
with that shard's ordinary proofs — the one record plus its path in the
VR's data tree — and is verified with the ordinary
:meth:`~repro.core.client.WormClient.verify_read`.  Per-shard
verification stays O(1) under partitioning: no cross-shard structure
exists for an insider to splice, and tampering inside one shard is
detected by that shard's proofs without touching its siblings.

Failure domains & degraded mode
-------------------------------
Each shard's SCPU is an independent failure domain, tracked by a
:class:`~repro.core.health.CircuitBreaker`.  Transient faults open the
breaker (writes route around the shard until a cooldown); a tamper trip
— the paper's zeroization — is terminal: the shard becomes
**read-only-degraded**, serving every stored proof forever but never
witnessing another write.  Committing work fails over to healthy shards
(the keys live in every enclosure when shards share a keyring, so
receipts stay verifiable), and only when *every* card is gone does the
front-end fail loud with :class:`TamperedError`.  An optional
:class:`~repro.storage.journal.IntentJournal` makes the group-commit
pending queue crash-durable: journalled-but-unflushed records are
re-queued on construction.

The front-end itself is *untrusted main-CPU code*, like the stores it
wraps: nothing about its routing tables, breakers, or journal provides
security, and a lost locator map costs availability, never integrity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar, Union)

from repro.core.client import WormClient
from repro.core.config import StoreConfig
from repro.core.errors import (
    CrashError,
    DegradedError,
    JournalError,
    ShardRoutingError,
    TamperedError,
    TransientFaultError,
    WormError,
)
from repro.core.health import CircuitBreaker, SiteState
from repro.core.locator import RecordLocator, resolve_locator
from repro.core.proofs import ReadResult
from repro.core.retry import RetryStats
from repro.core.worm import StrongWormStore, WriteReceipt
from repro.crypto.keys import Certificate, CertificateAuthority
from repro.hardware.pool import ScpuPool
from repro.hardware.scpu import ScpuKeyring, SecureCoprocessor
from repro.obs.bus import NULL_BUS
from repro.sim.manual_clock import ManualClock
from repro.storage.journal import IntentJournal
from repro.storage.vrd import VirtualRecordDescriptor

__all__ = ["RecordLocator", "ShardedWriteReceipt", "ShardedWormStore"]

#: Locator value accepted anywhere the front-end routes by record: a
#: :class:`RecordLocator`, a receipt, a packed string (``"2:41:0"``), or
#: a raw ``(shard_id, sn)`` / ``(shard_id, sn, record_index)`` tuple.
#: (:class:`RecordLocator` itself now lives in :mod:`repro.core.locator`
#: and is re-exported here for back-compat.)
LocatorLike = Union["RecordLocator", "ShardedWriteReceipt", str,
                    Tuple[int, int], Tuple[int, int, int]]

_T = TypeVar("_T")


@dataclass(frozen=True)
class ShardedWriteReceipt:
    """What a sharded write returns: routing plus the cost breakdown.

    ``costs`` is the per-device virtual-cost breakdown attributable to
    *this record*: for an unbatched write it is the underlying
    :class:`~repro.core.worm.WriteReceipt.costs` verbatim; for a
    group-committed record it is the flush's breakdown divided evenly
    over the ``batch_size`` records that shared the SCPU witnessing —
    the amortization §4.3 is about, made visible per record.
    """

    shard_id: int
    sn: int
    vrd: VirtualRecordDescriptor
    strength: str
    costs: Dict[str, float] = field(default_factory=dict)
    record_index: int = 0
    batch_size: int = 1

    @property
    def locator(self) -> RecordLocator:
        return RecordLocator(shard_id=self.shard_id, sn=self.sn,
                             record_index=self.record_index)

    @property
    def total_cost(self) -> float:
        return sum(self.costs.values())


def _group_key(kwargs: Dict) -> Tuple:
    """Hashable identity of a write-parameter set (batch compatibility)."""
    return tuple(sorted(kwargs.items()))


@dataclass
class _PendingGroup:
    """Records awaiting one group-commit flush on one shard.

    ``entry_ids`` parallels ``payloads``: the intent-journal id of each
    record (``None`` when no journal is attached), acknowledged when the
    group commits.  ``tags`` parallels them too: the caller's opaque
    correlation handle for each record (``None`` when untracked), paired
    with its receipt when the group commits — the mechanism that lets a
    service hand out 202-style deferred receipts and redeem them later.
    """

    kwargs: Dict
    payloads: List[bytes] = field(default_factory=list)
    entry_ids: List[Optional[int]] = field(default_factory=list)
    tags: List[Optional[object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Groups built from a bare payload list (write_batch) carry no
        # correlation state; pad so the three lists stay parallel.
        while len(self.entry_ids) < len(self.payloads):
            self.entry_ids.append(None)
        while len(self.tags) < len(self.payloads):
            self.tags.append(None)

    def add(self, payload: bytes, entry_id: Optional[int],
            tag: Optional[object] = None) -> None:
        self.payloads.append(bytes(payload))
        self.entry_ids.append(entry_id)
        self.tags.append(tag)

    def restore_front(self, other: "_PendingGroup") -> None:
        """Put *other*'s records back ahead of this group's (oldest first)."""
        self.payloads[:0] = other.payloads
        self.entry_ids[:0] = other.entry_ids
        self.tags[:0] = other.tags


class ShardedWormStore:
    """N Strong WORM shards behind one store surface, with group commit.

    Construct over existing stores (``ShardedWormStore(stores)``) or let
    :meth:`build` provision ``shard_count`` shards from one
    :class:`~repro.core.config.StoreConfig`.  The single-store surface —
    ``write`` / ``read`` / ``expire_record`` / ``maintenance`` /
    ``make_client`` — carries over; ``submit``/``flush`` and
    :meth:`write_batch` expose the group-commit pipeline.
    """

    def __init__(self, stores: Sequence[StrongWormStore],
                 config: Optional[StoreConfig] = None,
                 journal: Optional[IntentJournal] = None) -> None:
        if not stores:
            raise ValueError("a sharded store needs at least one shard")
        self._stores: List[StrongWormStore] = list(stores)
        self.config = config if config is not None else StoreConfig(
            shard_count=len(self._stores))
        self.obs = (self.config.observe if self.config.observe is not None
                    else NULL_BUS)
        self._next_shard = 0
        self._maintenance_cursor = 0
        # pending[shard_id] holds per-parameter-set groups, oldest first.
        self._pending: List[Dict[Tuple, _PendingGroup]] = [
            {} for _ in self._stores]
        # One circuit breaker per shard: the failure-domain health latch.
        self._breakers: List[CircuitBreaker] = [
            CircuitBreaker(
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_seconds=self.config.breaker_cooldown_seconds,
                obs=self.obs, label=f"shard{shard_id}")
            for shard_id in range(len(self._stores))]
        self._failover_count = 0
        if self.obs.enabled:
            for name in ("sharded.group_commits", "sharded.flushes",
                         "sharded.groups_restored"):
                self.obs.declare_counter(name)
            self.obs.register_counter("sharded.failovers",
                                      lambda: self._failover_count)
            self.obs.declare_histogram("sharded.batch_size",
                                       buckets=(1, 2, 4, 8, 16, 32, 64))
            self.obs.register_gauge("sharded.pending_records",
                                    lambda: float(self.pending_count))
        # tag -> receipt for group-committed records submitted with a
        # correlation tag; drained by take_tagged_receipts().
        self._tagged_receipts: Dict[object, ShardedWriteReceipt] = {}
        # Whole-site lifecycle: ACTIVE serves normally; RECOVERING means
        # a SiteRecovery pass is rebuilding this site and the service
        # layer refuses external writes (503 + Retry-After).
        self._site_state = SiteState.ACTIVE
        self._journal = journal if journal is not None else self.config.journal
        if self._journal is not None:
            # Crash recovery: re-queue every journalled-but-unflushed
            # record (tags included, so deferred tickets survive the
            # restart).  Replay only queues — the caller decides when
            # to flush, exactly as the crashed process would have.
            for entry in self._journal.replay():
                self._enqueue(entry.payload, entry.kwargs, entry.entry_id,
                              entry.tag)

    # ------------------------------------------------------------ construction

    @classmethod
    def build(cls, shard_count: Optional[int] = None,
              config: Optional[StoreConfig] = None,
              keyring: Optional[ScpuKeyring] = None,
              clock: Optional[object] = None,
              pool: Optional[ScpuPool] = None,
              journal: Optional[IntentJournal] = None,
              **scpu_kwargs) -> "ShardedWormStore":
        """Provision a sharded store from scratch.

        Each shard gets its own :class:`SecureCoprocessor` — all sharing
        one *keyring* (so one certificate set verifies every shard, as
        with :class:`~repro.hardware.pool.ScpuPool` cards) and one
        *clock* (so retention and freshness share a timeline).  Pass an
        existing *pool* to draw one card per shard from it instead;
        the pool's size then fixes the shard count.  A *journal* (or
        ``config.journal``) makes the pending queue crash-durable and is
        replayed before the store accepts new work.
        """
        config = config if config is not None else StoreConfig()
        if journal is not None:
            config = config.replace(journal=journal)
        if shard_count is None:
            shard_count = pool.size if pool is not None else config.shard_count
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if pool is not None:
            if pool.size < shard_count:
                raise ValueError(
                    f"pool has {pool.size} cards; {shard_count} shards asked")
            scpus: Sequence[object] = pool.cards[:shard_count]
        else:
            if keyring is None:
                keyring = ScpuKeyring.generate()
            if clock is None:
                clock = ManualClock()
            scpus = [SecureCoprocessor(keyring=keyring, clock=clock,
                                       **scpu_kwargs)
                     for _ in range(shard_count)]
        template = config.per_shard()
        stores = [StrongWormStore(config=template.replace(scpu=scpu))
                  for scpu in scpus]
        return cls(stores, config=config.replace(shard_count=shard_count))

    # ---------------------------------------------------------------- topology

    @property
    def shard_count(self) -> int:
        return len(self._stores)

    @property
    def shards(self) -> Tuple[StrongWormStore, ...]:
        return tuple(self._stores)

    @property
    def now(self) -> float:
        return self._stores[0].now

    def shard(self, shard_id: int) -> StrongWormStore:
        if not 0 <= shard_id < len(self._stores):
            raise ShardRoutingError(
                f"shard {shard_id} does not exist "
                f"(store has {len(self._stores)} shards)")
        return self._stores[shard_id]

    def _resolve(self, locator: LocatorLike) -> RecordLocator:
        resolved = resolve_locator(locator)
        self.shard(resolved.shard_id)  # raises on out-of-range shards
        return resolved

    def _pick_shard(self) -> int:
        """Next write-eligible shard, round-robin over healthy domains.

        Open-breaker shards are skipped until their cooldown elapses;
        degraded (zeroized) shards are skipped forever.  When no shard
        currently allows writes but some are merely open, the next
        non-degraded shard is used anyway (a forced probe — better one
        risky attempt than refusing an ingest).  When every card is
        gone, fail loud.
        """
        n = len(self._stores)
        now = self.now
        for _ in range(n):
            shard_id = self._next_shard % n
            self._next_shard += 1
            if self._breakers[shard_id].allows_writes(now):
                return shard_id
        for _ in range(n):
            shard_id = self._next_shard % n
            self._next_shard += 1
            if not self._breakers[shard_id].degraded:
                return shard_id
        raise TamperedError(
            "every shard's SCPU has been destroyed; the store is read-only")

    def _next_candidate(self, exclude: Sequence[int]) -> Optional[int]:
        """Failover target: a writable shard not yet tried, else any
        non-degraded one (forced probe), else None."""
        now = self.now
        candidates = [i for i in range(len(self._stores)) if i not in exclude]
        for shard_id in candidates:
            if self._breakers[shard_id].allows_writes(now):
                return shard_id
        for shard_id in candidates:
            if not self._breakers[shard_id].degraded:
                return shard_id
        return None

    def _with_failover(self, shard_id: int,
                       commit: Callable[[int], "_T"]) -> "_T":
        """Run *commit* against *shard_id*, failing over across shards.

        Transient faults (retry budget already exhausted inside the
        shard store) count against the shard's breaker; a tamper trip
        marks it degraded for good.  Either way the work moves to the
        next candidate shard.  When every shard has been tried: if all
        are degraded the store is dead — :class:`TamperedError` — else
        the last failure propagates for the caller to restore state.
        """
        tried: List[int] = []
        current = shard_id
        last_exc: Optional[WormError] = None
        while True:
            breaker = self._breakers[current]
            if breaker.degraded:
                if last_exc is None:
                    last_exc = DegradedError(
                        f"shard {current} is read-only (SCPU zeroized)")
            else:
                try:
                    result = commit(current)
                except TamperedError as exc:  # wormlint: disable=W004 - escalates via breaker; re-raised when all shards fail
                    breaker.record_permanent_failure(self.now)
                    last_exc = exc
                except TransientFaultError as exc:
                    breaker.record_transient_failure(self.now)
                    last_exc = exc
                else:
                    breaker.record_success(self.now)
                    if current != shard_id:
                        self._failover_count += 1
                        self.obs.event("failover", self.now,
                                       from_shard=shard_id, to_shard=current)
                    return result
            tried.append(current)
            nxt = self._next_candidate(tried)
            if nxt is None:
                if all(b.degraded for b in self._breakers):
                    raise TamperedError(
                        "every shard's SCPU has been destroyed; "
                        "the store is read-only") from last_exc
                assert last_exc is not None
                raise last_exc
            current = nxt

    # ------------------------------------------------------------------ writes

    def write(self, records: Sequence[bytes],
              **write_kwargs) -> ShardedWriteReceipt:
        """Commit one virtual record immediately (no batching).

        Same contract as :meth:`StrongWormStore.write` — *records* are
        the physical records of one VR — plus routing: the VR lands on
        the next healthy shard in round-robin order (failing over if
        that shard dies mid-write), and the receipt carries the
        ``(shard_id, sn)`` locator.

        With an intent journal attached, single-payload writes are
        journalled too (append before the commit, locator-carrying
        acknowledgement after), so a replicated journal gives the
        standby site a complete ledger of *every* acknowledged write —
        the direct path included — not just the deferred queue.
        Multi-record VRs and shared-descriptor writes skip the journal
        (their inputs are not journalable payload bytes).
        """
        shard_id = self._pick_shard()
        entry_id = (self._journal_direct(records, write_kwargs)[0]
                    if len(records) == 1 else None)

        def commit(target: int) -> ShardedWriteReceipt:
            receipt = self._stores[target].write(records, **write_kwargs)
            return self._wrap(target, receipt, record_index=0, batch_size=1,
                              costs=receipt.costs)

        wrapped = self._with_failover(shard_id, commit)
        if entry_id is not None:
            self._journal.mark_committed([entry_id],
                                         [wrapped.locator.pack()])
        return wrapped

    def _journal_direct(self, payloads: Sequence[bytes],
                        write_kwargs: Dict) -> List[Optional[int]]:
        """Journal direct one-record writes in one append.

        Returns each payload's entry id, ``None`` where it was not
        journalable (a shared descriptor rather than payload bytes).
        """
        entry_ids: List[Optional[int]] = [None] * len(payloads)
        slots = [index for index, payload in enumerate(payloads)
                 if isinstance(payload, (bytes, bytearray))]
        if self._journal is None or not slots:
            return entry_ids
        try:
            journalled = self._journal.append_many(
                [bytes(payloads[index]) for index in slots],
                dict(write_kwargs))
        except JournalError:
            # Non-JSON-safe kwargs (e.g. shared descriptors): the write
            # is synchronous anyway — proceed unjournalled, exactly as
            # this path behaved before journaling was added to it.
            return entry_ids
        for index, entry_id in zip(slots, journalled):
            entry_ids[index] = entry_id
        return entry_ids

    def _enqueue(self, payload: bytes, kwargs: Dict,
                 entry_id: Optional[int],
                 tag: Optional[object] = None
                 ) -> Tuple[int, Tuple, _PendingGroup]:
        shard_id = self._pick_shard()
        key = _group_key(kwargs)
        pending = self._pending[shard_id]
        group = pending.get(key)
        if group is None:
            group = pending[key] = _PendingGroup(kwargs=dict(kwargs))
        group.add(payload, entry_id, tag)
        return shard_id, key, group

    def _restore_group(self, shard_id: int, key: Tuple,
                       group: _PendingGroup) -> None:
        """Put an uncommitted group back in the pending queue (no loss)."""
        existing = self._pending[shard_id].get(key)
        if existing is None:
            self._pending[shard_id][key] = group
        else:
            existing.restore_front(group)
        self.obs.inc("sharded.groups_restored")

    def submit(self, payload: bytes, tag: Optional[object] = None,
               **write_kwargs) -> Optional[List[ShardedWriteReceipt]]:
        """Queue one record for the next group commit (best-effort path):
        :meth:`submit_many` of one *payload* under its *tag*."""
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeError("submit() takes one record payload (bytes)")
        return self.submit_many([payload], [tag], **write_kwargs)

    def submit_many(self, payloads: Sequence[bytes],
                    tags: Optional[Sequence[Optional[object]]] = None,
                    **write_kwargs) -> Optional[List[ShardedWriteReceipt]]:
        """Queue records for the next group commit (best-effort path).

        The records are journalled in one append (when an intent journal
        is attached), then each is assigned a shard round-robin and
        parked with other pending records that share its write
        parameters.  When a shard's pending group reaches
        ``config.group_commit_size`` it flushes automatically — failing
        over to healthy shards if its own SCPU has died — and the
        flushed receipts are returned; otherwise returns ``None`` (call
        :meth:`flush` to force the commit).

        *tags*, when given, parallels *payloads*.  A tag is an opaque,
        hashable correlation handle: when its record eventually
        group-commits — on this call, a later submission, or a
        :meth:`flush` — its receipt is filed under the tag for
        :meth:`take_tagged_receipts` to drain.  This is how a front-end
        that acknowledged a deferred write (a 202) later resolves the
        acknowledgement to a durable locator.  Tags that are not
        JSON-safe stay in memory only: the batch is then journalled
        without tags, and after a crash its replayed entries re-commit
        untagged.

        This path never raises :class:`DegradedError`: if the commit
        cannot land anywhere *right now* (every candidate transiently
        failing), the records simply stay queued — and journalled — for
        the next flush.  Only total loss of the trust anchors (every
        card zeroized) raises, with :class:`TamperedError`.
        """
        if isinstance(payloads, (bytes, bytearray)):
            raise TypeError("submitted record payloads must be bytes")
        records: List[bytes] = []
        for payload in payloads:
            if not isinstance(payload, (bytes, bytearray)):
                raise TypeError("submitted record payloads must be bytes")
            records.append(bytes(payload))
        tags = [None] * len(records) if tags is None else list(tags)
        if len(tags) != len(records):
            raise ValueError(f"{len(tags)} tags for {len(records)} payloads")
        entry_ids: Sequence[Optional[int]] = [None] * len(records)
        if self._journal is not None:
            try:
                entry_ids = self._journal.append_many(records, write_kwargs,
                                                      tags)
            except JournalError:
                # Opaque in-memory-only tags are still allowed; they
                # just don't survive a restart (the pre-tag-journal
                # contract).  The payloads themselves must journal.
                entry_ids = self._journal.append_many(records, write_kwargs)
        flushed: List[ShardedWriteReceipt] = []
        for payload, entry_id, tag in zip(records, entry_ids, tags):
            shard_id, key, group = self._enqueue(payload, write_kwargs,
                                                 entry_id, tag)
            if len(group.payloads) < max(1, self.config.group_commit_size):
                continue
            del self._pending[shard_id][key]
            try:
                flushed.extend(self._commit_with_failover(shard_id, group))
            except (TamperedError, CrashError):
                # Total trust-anchor loss, or the (injected) death of
                # this very process: both outrank best-effort.
                self._restore_group(shard_id, key, group)
                raise
            except WormError:
                # Best-effort: keep the records queued (and journalled)
                # for the next flush rather than bouncing the ingest.
                self._restore_group(shard_id, key, group)
        return flushed or None

    @property
    def pending_count(self) -> int:
        """Records submitted but not yet group-committed."""
        return sum(len(group.payloads)
                   for shard in self._pending for group in shard.values())

    def flush(self) -> List[ShardedWriteReceipt]:
        """Group-commit every pending record; returns all new receipts.

        Commits one group at a time: a group that cannot land anywhere
        is restored to the pending queue (no record is ever dropped) and
        the flush *continues* with the remaining groups and shards, so
        one sick failure domain cannot hold the others' records hostage.
        The first failure is re-raised at the end, after everything
        committable has committed; receipts of the groups that *did*
        commit ride on the exception as ``partial_receipts``.
        """
        receipts: List[ShardedWriteReceipt] = []
        first_error: Optional[WormError] = None
        self.obs.inc("sharded.flushes")
        for shard_id in range(len(self._stores)):
            groups = self._pending[shard_id]
            for key in list(groups.keys()):
                group = groups.pop(key)
                try:
                    receipts.extend(
                        self._commit_with_failover(shard_id, group))
                except CrashError as exc:
                    # The (injected) process death: stop immediately.
                    self._restore_group(shard_id, key, group)
                    exc.partial_receipts = receipts
                    raise
                except WormError as exc:  # wormlint: disable=W004,W008 - group restored; first_error re-raised below
                    self._restore_group(shard_id, key, group)
                    if first_error is None:
                        first_error = exc
        if first_error is not None:
            first_error.partial_receipts = receipts
            raise first_error
        return receipts

    def write_batch(self, payloads: Sequence[bytes],
                    **write_kwargs) -> List[ShardedWriteReceipt]:
        """Group-commit *payloads* across the shards in one call.

        Each payload is one logical record.  Payloads are split into
        contiguous chunks of up to ``config.group_commit_size`` records,
        and each chunk lands on the next shard round-robin as a single
        multi-record ``write()`` — one SN, one metasig/datasig pair for
        the whole chunk — so SCPU witnessing cost amortizes over the full
        group-commit size rather than thinning out to batch/shard-count
        records per signature.  Concurrent batches (the closed-loop
        drivers issue one per worker) still spread across every shard.
        Receipts come back in input order.  With an intent journal
        attached, the payloads are journalled in one append before any
        commit, and each is acknowledged with its locator, like
        :meth:`submit`.
        """
        if isinstance(payloads, (bytes, bytearray)):
            raise TypeError("pass a sequence of record payloads")
        payloads = list(payloads)
        chunk = max(1, self.config.group_commit_size)
        slots: List[List[bytes]] = [[] for _ in self._stores]
        entry_slots: List[List[Optional[int]]] = [[] for _ in self._stores]
        order: List[Tuple[int, int]] = []  # (shard_id, index-in-shard-batch)
        for start in range(0, len(payloads), chunk):
            shard_id = self._pick_shard()
            for payload in payloads[start:start + chunk]:
                order.append((shard_id, len(slots[shard_id])))
                slots[shard_id].append(payload)
        for (shard_id, _), entry_id in zip(
                order, self._journal_direct(payloads, write_kwargs)):
            entry_slots[shard_id].append(entry_id)
        per_shard: Dict[int, List[ShardedWriteReceipt]] = {}
        for shard_id, batch in enumerate(slots):
            if batch:
                per_shard[shard_id] = self._commit_with_failover(
                    shard_id, _PendingGroup(kwargs=dict(write_kwargs),
                                            payloads=batch,
                                            entry_ids=entry_slots[shard_id]))
        return [per_shard[shard_id][index] for shard_id, index in order]

    def _commit_with_failover(
            self, shard_id: int,
            group: _PendingGroup) -> List[ShardedWriteReceipt]:
        """Commit *group*, moving it to a healthy shard if needed."""
        receipts = self._with_failover(
            shard_id, lambda target: self._commit_group(target, group))
        if self._journal is not None:
            committed = [(entry_id, receipt.locator.pack())
                         for entry_id, receipt in zip(group.entry_ids,
                                                      receipts)
                         if entry_id is not None]
            if committed:
                self._journal.mark_committed(
                    [entry_id for entry_id, _ in committed],
                    [locator for _, locator in committed])
        for tag, receipt in zip(group.tags, receipts):
            if tag is not None:
                self._tagged_receipts[tag] = receipt
        return receipts

    def take_tagged_receipts(self) -> Dict[object, ShardedWriteReceipt]:
        """Drain the tag → receipt map of committed tagged submissions.

        Every record handed to :meth:`submit` with a ``tag`` that has
        since group-committed appears exactly once across successive
        calls; uncommitted tags stay invisible until their group lands.
        """
        taken = self._tagged_receipts
        self._tagged_receipts = {}
        return taken

    def _commit_group(self, shard_id: int,
                      group: _PendingGroup) -> List[ShardedWriteReceipt]:
        """One group commit: a single multi-record write on one shard."""
        receipt = self._stores[shard_id].write(group.payloads, **group.kwargs)
        size = len(group.payloads)
        if self.obs.enabled:
            self.obs.inc("sharded.group_commits")
            self.obs.observe("sharded.batch_size", size,
                             buckets=(1, 2, 4, 8, 16, 32, 64))
        share = {device: cost / size for device, cost in receipt.costs.items()}
        return [self._wrap(shard_id, receipt, record_index=index,
                           batch_size=size, costs=dict(share))
                for index in range(size)]

    def _wrap(self, shard_id: int, receipt: WriteReceipt, record_index: int,
              batch_size: int, costs: Dict[str, float]) -> ShardedWriteReceipt:
        return ShardedWriteReceipt(
            shard_id=shard_id, sn=receipt.sn, vrd=receipt.vrd,
            strength=receipt.strength, costs=costs,
            record_index=record_index, batch_size=batch_size)

    # ------------------------------------------------------------------- reads

    def read(self, locator: LocatorLike, proven: bool = True) -> ReadResult:
        """Serve the record *locator* names, with its proof, from its shard.

        The result is the shard's ordinary :class:`ReadResult` for one
        record: its payload and its path in the VR's data tree.  Verify
        it with ``client.verify_read(result, locator)``; the whole VR
        is ``store.shard(shard_id).read(sn)``.  ``proven=False`` builds
        no proof (see :meth:`StrongWormStore.read`).
        """
        resolved = self._resolve(locator)
        return self._stores[resolved.shard_id].read(
            resolved.sn, record_index=resolved.record_index, proven=proven)

    def read_record(self, locator: LocatorLike) -> bytes:
        """The one payload *locator* names (unverified convenience).

        Reads one block whatever the group size and builds no proof;
        auditors should prefer :meth:`read` + client verification.
        """
        result = self.read(locator, proven=False)
        if result.status != "active":
            raise WormError(
                f"record {self._resolve(locator).pack()} is not active "
                f"({result.status})")
        return result.records[0]

    # ------------------------------------------------------- expiry & lifecycle

    def expire_record(self, locator: LocatorLike, now: float) -> str:
        """Delete a retention-expired VR on its owning shard."""
        resolved = self._resolve(locator)
        return self._stores[resolved.shard_id].expire_record(resolved.sn, now)

    def maintenance(self, strengthen_budget: Optional[int] = None,
                    verify_budget: Optional[int] = None,
                    compact: bool = True) -> Dict[str, int]:
        """One maintenance slice across all shards, merged summary.

        Budgets are *shared*: a budget of B is split over the shards,
        with the remainder going to the shards right after the rotating
        round-robin cursor — so over successive slices every shard gets
        the same share of idle-period SCPU time (§4.2.1's "idle periods"
        are a per-card resource).
        """
        n = len(self._stores)
        start = self._maintenance_cursor % n
        self._maintenance_cursor += 1
        summary: Dict[str, int] = {}
        for offset in range(n):
            shard_id = (start + offset) % n
            if self._breakers[shard_id].degraded:
                # A zeroized card can't strengthen or re-witness anything;
                # its stored proofs stand as-is (§4.2.2).
                continue
            shard_summary = self._stores[shard_id].maintenance(
                strengthen_budget=self._budget_share(
                    strengthen_budget, offset, n),
                verify_budget=self._budget_share(verify_budget, offset, n),
                compact=compact)
            for key, value in shard_summary.items():
                summary[key] = summary.get(key, 0) + value
        return summary

    @staticmethod
    def _budget_share(budget: Optional[int], offset: int,
                      shards: int) -> Optional[int]:
        if budget is None:
            return None
        share, remainder = divmod(budget, shards)
        return share + (1 if offset < remainder else 0)

    def advance_clocks(self, seconds: float) -> None:
        """Advance every shard's (manual) clock; shared clocks tick once."""
        seen: List[int] = []
        for store in self._stores:
            clock = store.scpu.clock
            if id(clock) in seen:
                continue
            seen.append(id(clock))
            clock.advance(seconds)

    # ------------------------------------------------------------------ health

    @property
    def site_state(self) -> str:
        """Whole-site lifecycle state (see :class:`SiteState`)."""
        return self._site_state

    @property
    def recovering(self) -> bool:
        """True while a :class:`repro.recovery.SiteRecovery` pass owns
        this site: reads are served (verifiably, once VERIFY has
        passed), external writes are refused at the service layer."""
        return self._site_state == SiteState.RECOVERING

    def begin_recovery(self) -> None:
        """Mark this site as being rebuilt from a replica.

        Called by :class:`repro.recovery.SiteRecovery` before REPLAY
        starts importing records, so monitoring (``health_report``) and
        the service layer (503 + Retry-After) see the transition.
        Idempotent — a resumed recovery re-enters the same state.
        """
        self._site_state = SiteState.RECOVERING

    def resume_service(self) -> None:
        """Recovery's RESUME stage completed: the site serves writes again."""
        self._site_state = SiteState.ACTIVE

    @property
    def degraded_shards(self) -> Tuple[int, ...]:
        """Shard ids whose SCPU has zeroized (read-only forever)."""
        return tuple(i for i, b in enumerate(self._breakers) if b.degraded)

    @property
    def writable_shards(self) -> Tuple[int, ...]:
        """Shard ids currently accepting writes (closed/half-open)."""
        now = self.now
        return tuple(i for i, b in enumerate(self._breakers)
                     if b.allows_writes(now))

    @property
    def failover_count(self) -> int:
        """Commits that landed on a different shard than first routed."""
        return self._failover_count

    def breaker(self, shard_id: int) -> CircuitBreaker:
        """The circuit breaker tracking *shard_id*'s failure domain."""
        self.shard(shard_id)  # raises on out-of-range shards
        return self._breakers[shard_id]

    def health_report(self) -> Dict[str, object]:
        """Point-in-time health of every failure domain.

        Untrusted operational telemetry: per-shard breaker snapshots,
        tamper status, pending queue depths, and the merged retry-loop
        statistics of all shards.  Safe to call with any number of
        shards degraded — dead cards are reported, not exercised.
        """
        now = self.now
        shards: List[Dict[str, object]] = []
        total_retry = RetryStats()
        for shard_id, store in enumerate(self._stores):
            breaker = self._breakers[shard_id]
            try:
                tripped = bool(store.scpu.tamper.tripped)
            except WormError:  # wormlint: disable=W004 - health report: a dead pool *is* the tripped state
                # A pool whose every card died raises on .tamper access;
                # that *is* a trip for reporting purposes.
                tripped = True
            total_retry.merge(store.retry.stats)
            shards.append({
                "shard_id": shard_id,
                "tamper_tripped": tripped,
                "pending_records": sum(
                    len(g.payloads)
                    for g in self._pending[shard_id].values()),
                "retry": store.retry.stats.as_dict(),
                **breaker.snapshot(now).as_dict(),
            })
        return {
            "shards": shards,
            "auth_scheme": self.config.auth_scheme,
            "site_state": self._site_state,
            "recovering": self.recovering,
            "writable_shards": list(self.writable_shards),
            "degraded_shards": list(self.degraded_shards),
            "failovers": self._failover_count,
            "pending_records": self.pending_count,
            "journal_pending": (self._journal.pending_count()
                                if self._journal is not None else 0),
            "retry_total": total_retry.as_dict(),
        }

    # ------------------------------------------------------------ client setup

    def certificates(self, ca: CertificateAuthority) -> List[Certificate]:
        """The union of every shard's certificates, deduplicated.

        Shards built from one keyring share fingerprints, so this is
        usually exactly one certificate set; independently keyed shards
        contribute their own, and the client trusts the union.
        """
        certs: List[Certificate] = []
        seen: set = set()
        for shard_id, store in enumerate(self._stores):
            if self._breakers[shard_id].degraded:
                # Certification exercises the SCPU; a zeroized card can't
                # sign.  With a shared keyring its siblings cover it.
                continue
            try:
                shard_certs = store.certificates(ca)
            except TamperedError:  # wormlint: disable=W004,W008 - escalates via breaker; raises below when no shard can sign
                # The card died outside any commit path (e.g. during
                # maintenance), so the breaker hasn't heard yet.
                self._breakers[shard_id].record_permanent_failure(self.now)
                continue
            for cert in shard_certs:
                key = (cert.fingerprint, cert.role)
                if key not in seen:
                    seen.add(key)
                    certs.append(cert)
        if not certs and self._stores:
            raise TamperedError(
                "every shard's SCPU has been destroyed; "
                "no certificates can be issued")
        return certs

    def make_client(self, ca: CertificateAuthority, clock=None,
                    freshness_window: float = 300.0,
                    accept_unverifiable: bool = False) -> WormClient:
        """One verifying client that can check reads from any shard."""
        return WormClient(
            ca_public_key=ca.root_public_key,
            certificates=self.certificates(ca),
            clock=clock if clock is not None else self._stores[0].scpu.clock,
            freshness_window=freshness_window,
            accept_unverifiable=accept_unverifiable,
        )

    def telemetry_snapshot(self) -> Dict[str, object]:
        """The shared bus's snapshot (empty structure when unobserved)."""
        return self.obs.snapshot()

    # ------------------------------------------------------- cost attribution

    def cost_summary(self) -> Dict[str, float]:
        """Aggregate virtual seconds per device class across all shards."""
        summary = {"scpu": 0.0, "host": 0.0, "disk": 0.0}
        for store in self._stores:
            summary["scpu"] += store.scpu.meter.total_seconds
            summary["host"] += store.host.meter.total_seconds
            summary["disk"] += store.disk.meter.total_seconds
        return summary

    def per_shard_cost_seconds(self) -> List[Dict[str, float]]:
        """Per-shard virtual-cost breakdown (load-balance inspection)."""
        return [{
            "scpu": store.scpu.meter.total_seconds,
            "host": store.host.meter.total_seconds,
            "disk": store.disk.meter.total_seconds,
        } for store in self._stores]

    # -------------------------------------------------------------- iteration

    def __iter__(self) -> Iterator[StrongWormStore]:
        return iter(self._stores)

    def __len__(self) -> int:
        return len(self._stores)
