"""Cross-site replication: primary → standby over a faulty WAN link.

The paper's trust model survives a *disk* adversary; this module makes
the reproduction survive a *site* adversary — fire, flood, a pulled
rack.  A :class:`ReplicationPump` continuously ships the primary
:class:`~repro.core.sharded.ShardedWormStore`'s durable artifacts to a
:class:`ReplicaSite` at another site, over a
:class:`ReplicationTransport` that injects the WAN's sins (loss, delay,
reordering, in-flight corruption) from a deterministic
:class:`~repro.faults.plan.FaultPlan`.

What ships, and with which durability promise:

* **Catalog stream (async, per shard)** — sealed window artifacts
  (``S_s(SN_current)``, ``S_s(SN_base)``, deletion windows), VRDs with
  their payload blocks, and deletion proofs, as incremental *deltas*
  plus periodic full *snapshots*.  Asynchronous: the pump retransmits
  until the replica acknowledges, and the replication **lag** is an
  observable histogram — but an ingest never waits on the WAN.
* **Journal stream (sync)** — every intent-journal operation, mirrored
  *before* the write is acknowledged, via
  :class:`ReplicatedIntentJournal`.  This is the compliance anchor: a
  write the client saw acknowledged has, at minimum, its journal entry
  at the standby, so losing the whole primary site loses **zero
  acknowledged writes** — the catalog tail that had not shipped yet is
  re-ingested from the mirrored journal during recovery's RESUME stage.

Everything at the replica is **untrusted**, exactly like the primary's
own disk: the standby proves nothing by itself.  Trust is re-established
during recovery by verifying every shipped construct against the
surviving SCPU-signed authenticators (see :mod:`repro.recovery.stages`).

All timing is virtual (the shared :class:`ManualClock` timeline); the
transport never touches the wall clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import CrashError, ReplicationError
from repro.core.sharded import ShardedWormStore
from repro.crypto.envelope import SignedEnvelope
from repro.crypto.keys import Certificate, CertificateAuthority
from repro.faults.plan import FaultKind, FaultPlan
from repro.obs.bus import NULL_BUS, TelemetryBus
from repro.storage.journal import (IntentJournal, JournalEntry, LedgerFold,
                                   _commit_record, _tag_to_json)

__all__ = [
    "ReplicationArtifact",
    "ReplicationTransport",
    "ReplicaSite",
    "ReplicationPump",
    "ReplicatedIntentJournal",
    "declare_replication_metrics",
    "REPLICATION_COUNTERS",
    "LAG_BUCKETS",
]

#: Counter names the replication layer maintains (locked by
#: ``scripts/obs_schema.json`` once they appear in a checked snapshot).
REPLICATION_COUNTERS = (
    "replication.artifacts_shipped",
    "replication.artifacts_applied",
    "replication.retransmits",
    "replication.dropped",
    "replication.bytes_shipped",
    "replication.journal_ops",
)

#: Replication-lag histogram buckets (virtual seconds): sub-second for a
#: healthy LAN-ish link through the minutes a flapping WAN can impose.
LAG_BUCKETS = (0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 900.0)


def declare_replication_metrics(bus: TelemetryBus) -> None:
    """Pre-declare the replication counters and lag histogram on *bus*.

    Idempotent; shared by the transport, the pump and the journal
    mirror so a snapshot always carries the full metric set
    (the obs schema requires the names even when their value is zero).
    """
    if not bus.enabled:
        return
    for name in REPLICATION_COUNTERS:
        bus.declare_counter(name)
    bus.declare_histogram("replication.lag_seconds", buckets=LAG_BUCKETS)


@dataclass(frozen=True)
class ReplicationArtifact:
    """One unit shipped over the replication link.

    ``stream`` orders artifacts: the replica applies each stream's
    artifacts strictly by ``seq`` (buffering gaps), so reordering in
    flight cannot interleave a delta ahead of the snapshot it extends.
    Streams are ``catalog:<shard_id>`` (kinds ``snapshot``/``delta``),
    ``journal`` (mirrored intent-journal records), and ``meta`` (the source
    site's CA-certified SCPU certificates).
    """

    stream: str
    seq: int
    kind: str
    created_at: float
    payload: Dict[str, Any]
    size_bytes: int

    def corrupted(self) -> "ReplicationArtifact":
        """A copy with one payload byte flipped (in-flight tampering).

        The flip targets the most damaging spot available: a record
        payload block if the artifact carries any, else the mirrored
        journal payload, else the raw payload dict is marked.  Recovery
        must *detect* this (TamperedError), never import it.
        """
        payload = dict(self.payload)
        blocks = payload.get("blocks")
        if blocks:
            blocks = dict(blocks)
            key = sorted(blocks)[0]
            data = bytes(blocks[key])
            blocks[key] = bytes([data[0] ^ 0xFF]) + data[1:] if data \
                else b"\xff"
            payload["blocks"] = blocks
        elif isinstance(payload.get("payload"), str) and payload["payload"]:
            text = payload["payload"]
            flipped = format(int(text[:2], 16) ^ 0xFF, "02x")
            payload["payload"] = flipped + text[2:]
        else:
            payload["__corrupted__"] = True
        return replace(self, payload=payload)


class ReplicationTransport:
    """The WAN between the sites, with deterministic fault injection.

    Asynchronous sends enter an in-flight queue and arrive
    ``link_latency`` (plus any injected delay) later; :meth:`deliver`
    releases everything whose arrival time has passed, in arrival
    order — so an injected latency spike on one artifact *reorders* it
    past its successors, which is exactly the case the replica's
    per-stream sequencing has to absorb.  A ``transient`` fault drops
    the artifact entirely (the pump retransmits); ``tamper`` corrupts
    it in flight (recovery must catch it); ``crash-before``/``-after``
    kill the sending host (:class:`CrashError`), modelling a site dying
    mid-ship.

    :meth:`send_sync` is the synchronous path the journal mirror uses:
    it retries transient drops up to *sync_attempts* times and fails
    loud with :class:`ReplicationError` when the link stays down —
    better to refuse an ingest than to acknowledge it unreplicated.
    """

    def __init__(self, plan: Optional[FaultPlan] = None,
                 link_latency: float = 0.05,
                 sync_attempts: int = 8,
                 obs: Optional[TelemetryBus] = None) -> None:
        if link_latency < 0:
            raise ValueError("link latency cannot be negative")
        if sync_attempts < 1:
            raise ValueError("the sync path needs at least one attempt")
        self.plan = plan
        self.link_latency = link_latency
        self.sync_attempts = sync_attempts
        self.obs = obs if obs is not None else NULL_BUS
        declare_replication_metrics(self.obs)
        self._in_flight: List[Tuple[float, int, ReplicationArtifact]] = []
        self._sends = 0
        self.sync_delay_seconds = 0.0

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    def _advise(self, op: str, now: float):
        self._sends += 1
        if self.plan is None:
            return []
        return self.plan.advise(op, now, self._sends)

    def send(self, artifact: ReplicationArtifact, now: float) -> bool:
        """Queue *artifact* for async delivery; False when dropped."""
        actions = self._advise("replicate.send", now)
        delay = self.link_latency
        for action in actions:
            if action.kind == FaultKind.CRASH_BEFORE:
                raise CrashError("site crashed before shipping an artifact")
        for action in actions:
            if action.kind == FaultKind.TRANSIENT:
                self.obs.inc("replication.dropped")
                return False
            if action.kind == FaultKind.LATENCY:
                delay += action.seconds
            if action.kind == FaultKind.TAMPER:
                artifact = artifact.corrupted()
        heapq.heappush(self._in_flight,
                       (now + delay, self._sends, artifact))
        for action in actions:
            if action.kind == FaultKind.CRASH_AFTER:
                raise CrashError("site crashed after shipping an artifact")
        return True

    def send_sync(self, artifact: ReplicationArtifact,
                  now: float) -> ReplicationArtifact:
        """Deliver *artifact* synchronously (journal mirror path).

        Returns the artifact as the wire delivered it — possibly
        corrupted by an injected tamper, which is *not* this layer's
        job to detect (the replica is untrusted storage; recovery
        verifies).  Raises :class:`ReplicationError` once transient
        drops exhaust the attempt budget.
        """
        for _ in range(self.sync_attempts):
            actions = self._advise("replicate.sync", now)
            dropped = False
            for action in actions:
                if action.kind == FaultKind.TRANSIENT:
                    dropped = True
                elif action.kind == FaultKind.LATENCY:
                    self.sync_delay_seconds += action.seconds
                elif action.kind == FaultKind.TAMPER:
                    artifact = artifact.corrupted()
                elif action.kind in (FaultKind.CRASH_BEFORE,
                                     FaultKind.CRASH_AFTER):
                    raise CrashError(
                        "site crashed during a synchronous journal ship")
            if not dropped:
                self.sync_delay_seconds += self.link_latency
                return artifact
            self.obs.inc("replication.dropped")
        raise ReplicationError(
            f"replication link down: journal mirror failed "
            f"{self.sync_attempts} consecutive attempts")

    def deliver(self, now: float) -> List[ReplicationArtifact]:
        """Everything that has arrived by *now*, in arrival order."""
        arrived: List[ReplicationArtifact] = []
        while self._in_flight and self._in_flight[0][0] <= now:
            arrived.append(heapq.heappop(self._in_flight)[2])
        return arrived


class _ShardReplica:
    """The replicated catalog of one shard, as applied artifacts."""

    def __init__(self) -> None:
        # Applied catalog payloads in stream order; a snapshot resets
        # the materialization basis, deltas extend it.
        self.history: List[Dict[str, Any]] = []

    def apply(self, payload: Dict[str, Any]) -> None:
        if payload.get("kind") == "snapshot":
            # Earlier history is subsumed; drop it (the storage saving
            # periodic snapshots exist for).
            self.history = [payload]
        else:
            self.history.append(payload)


class ReplicaSite:
    """The standby site's artifact store — durable, ordered, untrusted.

    Applies incoming artifacts per stream in strict ``seq`` order,
    buffering gaps (the transport reorders); :meth:`ack` exposes each
    stream's contiguous frontier for the pump's retransmission logic.
    Holds the replicated per-shard catalogs, the mirrored journal
    records, and the source site's certificates.  None of it is trusted: the
    recovery VERIFY stage checks every construct against the surviving
    SCPU authenticators before a byte of it is re-imported.
    """

    def __init__(self) -> None:
        self._frontier: Dict[str, int] = {}
        self._buffered: Dict[str, Dict[int, ReplicationArtifact]] = {}
        self._shards: Dict[int, _ShardReplica] = {}
        self._journal_records: List[Dict[str, Any]] = []
        self.source_certificates: Tuple[Certificate, ...] = ()
        self.applied_count = 0

    # -- ingest ---------------------------------------------------------------

    def apply(self, artifact: ReplicationArtifact) -> int:
        """Apply *artifact* (and any now-contiguous buffered successors).

        Returns how many artifacts were applied; duplicates (seq at or
        below the frontier — retransmissions) apply zero and are
        harmless, matching the journal's at-least-once doctrine.
        """
        stream = artifact.stream
        frontier = self._frontier.get(stream, 0)
        if artifact.seq <= frontier:
            return 0
        buffered = self._buffered.setdefault(stream, {})
        buffered[artifact.seq] = artifact
        applied = 0
        while frontier + 1 in buffered:
            frontier += 1
            self._apply_one(buffered.pop(frontier))
            applied += 1
        self._frontier[stream] = frontier
        self.applied_count += applied
        return applied

    def _apply_one(self, artifact: ReplicationArtifact) -> None:
        payload = artifact.payload
        if artifact.stream == "journal":
            self._journal_records.append(payload)
        elif artifact.stream == "meta":
            certs = payload.get("certificates", ())
            self.source_certificates = tuple(certs)
        else:
            shard_id = int(payload["shard_id"])
            self._shards.setdefault(shard_id, _ShardReplica()).apply(payload)

    def ack(self, stream: str) -> int:
        """The stream's contiguous frontier (highest seq fully applied)."""
        return self._frontier.get(stream, 0)

    # -- recovery-side views ----------------------------------------------------

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._shards))

    def materialize_shard(self, shard_id: int) -> Dict[str, Any]:
        """Fold one shard's snapshot + deltas into a catalog image.

        The image is what recovery downloads: active VRDs (as dicts),
        their payload blocks, deletion proofs, the window authenticator
        envelopes, and compacted deletion windows.  Purely mechanical —
        no verification happens here.
        """
        vrds: Dict[int, Dict[str, Any]] = {}
        blocks: Dict[str, bytes] = {}
        proofs: Dict[int, Dict[str, Any]] = {}
        image: Dict[str, Any] = {"vrds": vrds, "blocks": blocks,
                                 "deletion_proofs": proofs,
                                 "sn_current": None, "sn_base": None,
                                 "deletion_windows": []}
        replica = self._shards.get(shard_id)
        if replica is None:
            return image
        for payload in replica.history:
            if payload.get("kind") == "snapshot":
                vrdt = payload["vrdt"]
                vrds.clear()
                proofs.clear()
                for vrd_data in vrdt["active"]:
                    vrds[int(vrd_data["sn"])] = vrd_data
                for proof_data in vrdt.get("deletion_proofs", []):
                    sn = int(SignedEnvelope.from_dict(proof_data).field("sn"))
                    proofs[sn] = proof_data
                image["sn_current"] = vrdt.get("sn_current")
                image["sn_base"] = vrdt.get("sn_base")
                image["deletion_windows"] = list(
                    vrdt.get("deletion_windows", []))
            else:
                for vrd_data in payload.get("vrds", []):
                    vrds[int(vrd_data["sn"])] = vrd_data
                for sn, proof_data in payload.get("expired", []):
                    vrds.pop(int(sn), None)
                    proofs[int(sn)] = proof_data
                if payload.get("sn_current") is not None:
                    image["sn_current"] = payload["sn_current"]
                if payload.get("sn_base") is not None:
                    image["sn_base"] = payload["sn_base"]
                if payload.get("deletion_windows") is not None:
                    image["deletion_windows"] = list(
                        payload["deletion_windows"])
            blocks.update(payload.get("blocks", {}))
        return image

    def journal_ledger(self) -> List[JournalEntry]:
        """The mirrored journal records, folded as the journal folds them.

        This is recovery's zero-loss oracle: every write the primary
        acknowledged has an entry here (the mirror is synchronous), with
        ``committed``/``locator`` reflecting the last mirrored state.
        """
        fold = LedgerFold()
        for record in self._journal_records:
            fold.add(record)
        return fold.ledger()


class ReplicationPump:
    """Ships the primary's durable artifacts to the standby, forever.

    Drive :meth:`pump` from the ingest loop (each call is one
    replication cycle at the current virtual time): it delivers what
    the link has carried, reads the replica's ack frontiers,
    retransmits anything unacknowledged past ``retransmit_after``, and
    ships fresh per-shard deltas — every VRD (with payload blocks)
    above the shipped frontier, every shipped VRD replaced in place
    since (a litigation hold or release, strengthening), newly expired
    SNs with their deletion proofs, and the current window
    authenticators — plus a full snapshot every ``snapshot_interval``
    virtual seconds so a recovery never replays an unbounded delta
    chain.

    Replication **lag** (apply time minus artifact creation time) is
    observed into the ``replication.lag_seconds`` histogram — the
    operational answer to "how much catalog would a site loss right
    now have to re-ingest from the journal?".
    """

    def __init__(self, store: ShardedWormStore,
                 transport: ReplicationTransport,
                 replica: ReplicaSite,
                 ca: Optional[CertificateAuthority] = None,
                 snapshot_interval: float = 3600.0,
                 retransmit_after: float = 1.0,
                 obs: Optional[TelemetryBus] = None) -> None:
        if snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        self.store = store
        self.transport = transport
        self.replica = replica
        self.ca = ca
        self.snapshot_interval = snapshot_interval
        self.retransmit_after = retransmit_after
        self.obs = obs if obs is not None else store.obs
        declare_replication_metrics(self.obs)
        self._seq: Dict[str, int] = {}
        # stream -> seq -> (artifact, last-send time); retransmission state.
        self._unacked: Dict[str, Dict[int, Tuple[ReplicationArtifact,
                                                 float]]] = {}
        self._shipped_sn: Dict[int, int] = {}
        self._shipped_expired: Dict[int, set] = {}
        self._last_snapshot: Dict[int, float] = {}
        self._last_window_sig: Dict[int, Optional[str]] = {}
        self._certs_shipped = False

    # -- plumbing ---------------------------------------------------------------

    def _next_seq(self, stream: str) -> int:
        self._seq[stream] = self._seq.get(stream, 0) + 1
        return self._seq[stream]

    def _ship(self, artifact: ReplicationArtifact, now: float) -> None:
        self._unacked.setdefault(artifact.stream, {})[artifact.seq] = (
            artifact, now)
        if self.transport.send(artifact, now):
            self.obs.inc("replication.artifacts_shipped")
            self.obs.inc("replication.bytes_shipped", artifact.size_bytes)

    # -- artifact builders --------------------------------------------------------

    def _delta_for(self, shard_id: int, now: float
                   ) -> Optional[ReplicationArtifact]:
        shard = self.store.shard(shard_id)
        frontier = self._shipped_sn.get(shard_id, 0)
        new_sns = [sn for sn in shard.vrdt.active_sns if sn > frontier]
        replaced = [sn for sn in shard.vrdt.take_replaced()
                    if sn <= frontier]
        shipped_expired = self._shipped_expired.setdefault(shard_id, set())
        new_expired = [sn for sn in shard.vrdt.expired_sns
                       if sn not in shipped_expired]
        env = shard.vrdt.sn_current_envelope
        window_sig = env.signature.hex() if env is not None else None
        if (not new_sns and not replaced and not new_expired
                and window_sig == self._last_window_sig.get(shard_id)):
            return None
        vrds = [vrd for vrd in map(shard.vrdt.get_active, new_sns)
                if vrd is not None]
        blocks = shard.read_blocks(vrds)
        # Shipped VRDs re-signed in place since (lit_hold, lit_release,
        # strengthening) ship again, without the blocks they shipped with.
        vrds += [vrd for vrd in map(shard.vrdt.get_active, replaced)
                 if vrd is not None]
        expired: List[Tuple[int, Dict[str, Any]]] = []
        for sn in new_expired:
            proof = shard.vrdt.get_deletion_proof(sn)
            if proof is not None:
                expired.append((sn, proof.to_dict()))
        payload: Dict[str, Any] = {
            "kind": "delta",
            "shard_id": shard_id,
            "vrds": [vrd.to_dict() for vrd in vrds],
            "blocks": blocks,
            "expired": expired,
            "sn_current": env.to_dict() if env is not None else None,
            "sn_base": (shard.vrdt.sn_base_envelope.to_dict()
                        if shard.vrdt.sn_base_envelope is not None else None),
            "deletion_windows": [w.to_dict()
                                 for w in shard.vrdt.deletion_windows],
        }
        artifact = ReplicationArtifact(
            stream=f"catalog:{shard_id}",
            seq=self._next_seq(f"catalog:{shard_id}"),
            kind="delta", created_at=now, payload=payload,
            size_bytes=(sum(map(len, blocks.values()))
                        + 512 * (len(vrds) + len(expired)) + 256))
        if new_sns:
            self._shipped_sn[shard_id] = max(new_sns)
        shipped_expired.update(new_expired)
        self._last_window_sig[shard_id] = window_sig
        return artifact

    def _snapshot_for(self, shard_id: int,
                      now: float) -> ReplicationArtifact:
        shard = self.store.shard(shard_id)
        snapshot = shard.vrdt.to_dict()
        blocks = shard.read_blocks(
            map(shard.vrdt.get_active, shard.vrdt.active_sns))
        payload = {"kind": "snapshot", "shard_id": shard_id,
                   "vrdt": snapshot, "blocks": blocks}
        artifact = ReplicationArtifact(
            stream=f"catalog:{shard_id}",
            seq=self._next_seq(f"catalog:{shard_id}"),
            kind="snapshot", created_at=now, payload=payload,
            size_bytes=(sum(map(len, blocks.values()))
                        + 512 * len(snapshot["active"]) + 1024))
        self._shipped_sn[shard_id] = max(shard.vrdt.active_sns, default=0)
        shard.vrdt.take_replaced()  # the snapshot carries them all
        self._shipped_expired[shard_id] = set(shard.vrdt.expired_sns)
        env = shard.vrdt.sn_current_envelope
        self._last_window_sig[shard_id] = (env.signature.hex()
                                           if env is not None else None)
        self._last_snapshot[shard_id] = now
        return artifact

    # -- the cycle ---------------------------------------------------------------

    def pump(self, now: Optional[float] = None) -> None:
        """One replication cycle."""
        if now is None:
            now = self.store.now
        for artifact in self.transport.deliver(now):
            count = self.replica.apply(artifact)
            if count:
                self.obs.inc("replication.artifacts_applied", count)
                self.obs.observe("replication.lag_seconds",
                                 max(0.0, now - artifact.created_at),
                                 buckets=LAG_BUCKETS)
        for stream, pending in self._unacked.items():
            frontier = self.replica.ack(stream)
            for seq in [s for s in pending if s <= frontier]:
                del pending[seq]
            for seq in sorted(pending):
                artifact, last_sent = pending[seq]
                if now - last_sent >= self.retransmit_after:
                    pending[seq] = (artifact, now)
                    if self.transport.send(artifact, now):
                        self.obs.inc("replication.retransmits")
        if self.ca is not None and not self._certs_shipped:
            certs = tuple(self.store.certificates(self.ca))
            self._ship(ReplicationArtifact(
                stream="meta", seq=self._next_seq("meta"), kind="certs",
                created_at=now,
                payload={"kind": "certs", "certificates": certs},
                size_bytes=256 * len(certs)), now)
            self._certs_shipped = True
        for shard_id in range(self.store.shard_count):
            if (now - self._last_snapshot.get(shard_id, float("-inf"))
                    >= self.snapshot_interval):
                self._ship(self._snapshot_for(shard_id, now), now)
            else:
                delta = self._delta_for(shard_id, now)
                if delta is not None:
                    self._ship(delta, now)

    @property
    def unacked_count(self) -> int:
        """Artifacts shipped but not yet acknowledged by the replica."""
        return sum(len(p) for p in self._unacked.values())


class ReplicatedIntentJournal(IntentJournal):
    """An intent journal whose every operation is mirrored to a standby.

    Wraps any :class:`IntentJournal` backend; ``append_many`` and
    ``mark_committed`` first land locally (one inner call each), then
    ship synchronously over the transport's
    :meth:`~ReplicationTransport.send_sync` path, one artifact per
    appended entry, and apply at the :class:`ReplicaSite` before
    returning — so the moment an ingest is acknowledged, its intent
    exists at both sites.  The artifacts carry the ``submit`` and
    ``commit`` records the file journal writes, and the replica folds
    them as the journal does.  When the link is down past the
    transport's retry budget the operation raises
    :class:`~repro.core.errors.ReplicationError` instead of
    acknowledging an unreplicated write.

    The mirror's sequence numbers continue from the replica's journal
    frontier, so a restarted primary wrapping its reopened journal over
    the same replica is not taken for a retransmission and dropped.

    ``mark_committed`` mirrors best-effort by design: the write it
    acknowledges is already replicated (its append was), so a lost
    commit mark merely costs a duplicate re-ingest at recovery —
    at-least-once, never at-most-once.
    """

    def __init__(self, inner: IntentJournal,
                 transport: ReplicationTransport,
                 replica: ReplicaSite,
                 clock: Optional[Any] = None,
                 obs: Optional[TelemetryBus] = None) -> None:
        self.inner = inner
        self.transport = transport
        self.replica = replica
        self._clock = clock
        self.obs = obs if obs is not None else NULL_BUS
        declare_replication_metrics(self.obs)
        self._seq = replica.ack("journal")

    def _now(self) -> float:
        if self._clock is None:
            return 0.0
        now = self._clock.now
        return now() if callable(now) else float(now)

    def _mirror(self, record: Dict[str, Any], size: int) -> None:
        now = self._now()
        artifact = ReplicationArtifact(
            stream="journal", seq=self._seq + 1, kind="journal",
            created_at=now, payload=record, size_bytes=size)
        delivered = self.transport.send_sync(artifact, now)
        # Only a shipped artifact takes its number: one the link refused
        # would leave a gap the standby buffers every later record behind.
        self._seq += 1
        self.replica.apply(delivered)
        self.obs.inc("replication.journal_ops")
        self.obs.inc("replication.bytes_shipped", size)

    # -- IntentJournal surface ---------------------------------------------------

    def append_many(self, payloads: Sequence[bytes], kwargs: Dict[str, Any],
                    tags: Optional[Sequence[Optional[object]]] = None
                    ) -> List[int]:
        entry_ids = self.inner.append_many(payloads, kwargs, tags)
        for entry_id, payload, tag in zip(
                entry_ids, payloads, tags or [None] * len(payloads)):
            record: Dict[str, Any] = {"op": "submit", "id": entry_id,
                                      "payload": bytes(payload).hex(),
                                      "kwargs": dict(kwargs)}
            if tag is not None:
                record["tag"] = _tag_to_json(tag)
            self._mirror(record, len(payload) + 128)
        return entry_ids

    def mark_committed(self, entry_ids: Iterable[int],
                       locators: Optional[Sequence[str]] = None) -> None:
        ids = [int(i) for i in entry_ids]
        self.inner.mark_committed(ids, locators)
        if not ids:
            return
        self._mirror(_commit_record(ids, locators), 32 * len(ids))

    def replay(self) -> List[JournalEntry]:
        return self.inner.replay()

    def pending_count(self) -> int:
        return self.inner.pending_count()

    def ledger(self) -> List[JournalEntry]:
        return self.inner.ledger()
