"""Staged, verified disaster recovery: rebuilding a dead site.

A whole primary site is gone — machines, disks, SCPU cards.  What
survives is (a) the untrusted :class:`~repro.recovery.replication.ReplicaSite`
at the standby, and (b) the *cryptographic* residue of the dead site:
its CA-certified public keys and every SCPU-signed construct the
replica holds.  :class:`SiteRecovery` rebuilds a fresh site from
exactly those two things, through five explicit stages::

    DISCOVER -> DOWNLOAD -> VERIFY -> REPLAY -> RESUME

* **DISCOVER** — inventory the replica's streams; establish trust in
  the dead site's keys through the CA (a forged certificate is
  :class:`TamperedError`, terminally); flip the new site into the
  ``recovering`` state.
* **DOWNLOAD** — materialize each shard's catalog image (snapshot +
  deltas, in sequence order) and charge the transfer time
  (``bytes / link_bandwidth``) to the virtual clock — the dominant
  term of the recovery-time objective.
* **VERIFY** — *before anything is imported*: every window
  authenticator (``S_s(SN_current)``, ``S_s(SN_base)``, deletion-window
  bounds, deletion proofs) and every VRD's metasig/datasig/data-hash is
  checked by the **new site's own SCPU** against the dead site's
  certified keys, by compliant migration's own code
  (:func:`~repro.core.migration.check_records`).  Any
  mismatch raises :class:`TamperedError` and recovery halts: a replica
  that lies does not get laundered into a fresh store.  (HMAC-witnessed
  records are *unverifiable by construction*, not tampered: they are
  excluded here and re-ingested from the journal in RESUME.)
* **REPLAY** — verified records are re-witnessed under the new site's
  SCPU via :meth:`~repro.core.worm.StrongWormStore.import_records`
  (attributes preserved, retention clocks keep running; one batched
  crossing per shard), building the old→new locator mapping.
* **RESUME** — the zero-loss ledger walk: every entry of the mirrored
  intent journal that is not already covered by a replayed record is
  re-submitted (at-least-once; WORM duplicates are harmless, lost
  records are compliance violations).  Tagged entries keep their tags
  so deferred tickets stay redeemable across the disaster.  Finally the
  site flips back to ``active``.

Recovery is **resumable**: after every stage (and after every shard
within REPLAY) the instance updates a JSON-able checkpoint; a process
that crashes mid-recovery is restarted with
``SiteRecovery(..., checkpoint=saved)`` and continues where it stopped.
Re-running a partially-replayed shard re-imports at-least-once — the
same duplicates-over-loss trade the journal makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import RecoveryError, TamperedError
from repro.core.locator import RecordLocator
from repro.core.migration import check_records, trusted_key, trusted_signers
from repro.core.sharded import ShardedWormStore, ShardedWriteReceipt
from repro.crypto.envelope import Purpose, SignedEnvelope
from repro.crypto.keys import CertificateAuthority
from repro.obs.bus import NULL_BUS, TelemetryBus
from repro.recovery.replication import ReplicaSite
from repro.storage.vrd import VirtualRecordDescriptor

__all__ = ["RecoveryStage", "RecoveryReport", "SiteRecovery",
           "RECOVERY_COUNTERS"]

#: Counter names the recovery pass maintains.
RECOVERY_COUNTERS = (
    "recovery.records_verified",
    "recovery.windows_verified",
    "recovery.records_replayed",
    "recovery.journal_requeued",
    "recovery.stages_completed",
)


def declare_recovery_metrics(bus: TelemetryBus) -> None:
    """Pre-declare the recovery counters on *bus* (idempotent)."""
    if not bus.enabled:
        return
    for name in RECOVERY_COUNTERS:
        bus.declare_counter(name)


class RecoveryStage:
    """Names of the recovery stages, in execution order."""

    DISCOVER = "discover"
    DOWNLOAD = "download"
    VERIFY = "verify"
    REPLAY = "replay"
    RESUME = "resume"
    DONE = "done"

    ORDER = (DISCOVER, DOWNLOAD, VERIFY, REPLAY, RESUME)


@dataclass
class RecoveryReport:
    """What a completed (or in-progress) recovery can prove it did."""

    stages_completed: List[str] = field(default_factory=list)
    shards: int = 0
    records_verified: int = 0
    windows_verified: int = 0
    records_replayed: int = 0
    skipped_expired: int = 0
    journal_requeued: int = 0
    #: (shard_id, sn, reason) for records excluded from REPLAY because
    #: they cannot be verified *by construction* (HMAC-only witnessing)
    #: — re-ingested from the journal, never imported unverified.
    unverifiable: List[Tuple[int, int, str]] = field(default_factory=list)
    #: old packed locator -> new packed locator, for every record that
    #: survived into the new site (REPLAY imports + RESUME re-commits).
    locator_mapping: Dict[str, str] = field(default_factory=dict)
    #: tag -> receipt for journal entries that re-committed under their
    #: original correlation tags (deferred tickets surviving the site).
    tagged_receipts: Dict[object, ShardedWriteReceipt] = (
        field(default_factory=dict))
    transfer_seconds: float = 0.0
    rto_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        return list(RecoveryStage.ORDER) == self.stages_completed


class SiteRecovery:
    """One staged recovery pass: replica + surviving keys → live site.

    *replica* is the standby's untrusted artifact store; *store* the
    freshly provisioned (empty) :class:`ShardedWormStore` being rebuilt
    — its shard count must cover every shard the replica holds; *ca*
    the certificate authority both sites trust.  Drive with
    :meth:`run` (all stages) or :meth:`step` (one stage at a time; the
    chaos tests crash between steps and resume from
    :meth:`checkpoint`).
    """

    #: Tag prefix for journal entries re-submitted without a caller tag.
    RECOVERY_TAG = "__recovery__"

    def __init__(self, replica: ReplicaSite, store: ShardedWormStore,
                 ca: CertificateAuthority,
                 link_bandwidth: float = 50e6,
                 obs: Optional[TelemetryBus] = None,
                 checkpoint: Optional[Dict[str, Any]] = None) -> None:
        if link_bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        self.replica = replica
        self.store = store
        self.ca = ca
        self.link_bandwidth = link_bandwidth
        self.obs = obs if obs is not None else store.obs
        declare_recovery_metrics(self.obs)
        ckpt = dict(checkpoint) if checkpoint else {}
        self._completed: List[str] = list(ckpt.get("completed", []))
        self._replayed_shards: Dict[str, bool] = dict(
            ckpt.get("replayed_shards", {}))
        self._mapping: Dict[str, str] = dict(ckpt.get("locator_mapping", {}))
        self._counts: Dict[str, float] = dict(ckpt.get("counts", {}))
        self._unverifiable: List[Tuple[int, int, str]] = [
            (int(s), int(sn), str(r))
            for s, sn, r in ckpt.get("unverifiable", [])]
        # Rebuilt lazily, never checkpointed: the replica re-materializes.
        self._images: Optional[Dict[int, Dict[str, Any]]] = None
        self._trusted: Optional[Dict[str, Tuple[object, str]]] = None
        self._tagged_receipts: Dict[object, ShardedWriteReceipt] = {}

    # -- progress & checkpointing ------------------------------------------------

    @property
    def stage(self) -> str:
        """The next stage to run (``done`` when recovery is complete)."""
        for name in RecoveryStage.ORDER:
            if name not in self._completed:
                return name
        return RecoveryStage.DONE

    def checkpoint(self) -> Dict[str, Any]:
        """JSON-able progress state: persist it, resume from it.

        Everything needed to continue after a crash mid-recovery:
        completed stages, per-shard REPLAY progress, the locator
        mapping built so far, and the accumulated counters.  The
        downloaded catalog images are deliberately *not* here — they
        re-materialize from the replica, which survives by premise.
        """
        return {
            "completed": list(self._completed),
            "replayed_shards": dict(self._replayed_shards),
            "locator_mapping": dict(self._mapping),
            "counts": dict(self._counts),
            "unverifiable": [list(u) for u in self._unverifiable],
        }

    def report(self) -> RecoveryReport:
        return RecoveryReport(
            stages_completed=list(self._completed),
            shards=len(self.replica.shard_ids),
            records_verified=int(self._counts.get("records_verified", 0)),
            windows_verified=int(self._counts.get("windows_verified", 0)),
            records_replayed=int(self._counts.get("records_replayed", 0)),
            skipped_expired=int(self._counts.get("skipped_expired", 0)),
            journal_requeued=int(self._counts.get("journal_requeued", 0)),
            unverifiable=list(self._unverifiable),
            locator_mapping=dict(self._mapping),
            tagged_receipts=dict(self._tagged_receipts),
            transfer_seconds=float(self._counts.get("transfer_seconds", 0.0)),
            rto_seconds=float(self._counts.get("rto_seconds", 0.0)),
        )

    # -- driving -------------------------------------------------------------------

    def step(self) -> str:
        """Run the next stage; returns its name (``done`` when finished)."""
        stage = self.stage
        if stage == RecoveryStage.DONE:
            return stage
        handlers = {
            RecoveryStage.DISCOVER: self._discover,
            RecoveryStage.DOWNLOAD: self._download,
            RecoveryStage.VERIFY: self._verify,
            RecoveryStage.REPLAY: self._replay,
            RecoveryStage.RESUME: self._resume,
        }
        cost_before = self._site_cost()
        handlers[stage]()
        self._counts["rto_seconds"] = (
            self._counts.get("rto_seconds", 0.0)
            + (self._site_cost() - cost_before))
        self._completed.append(stage)
        self.obs.inc("recovery.stages_completed")
        self.obs.event("recovery.stage", self.store.now, stage=stage,
                       **{k: v for k, v in self._counts.items()})
        return stage

    def run(self) -> RecoveryReport:
        """Run every remaining stage and return the final report."""
        while self.stage != RecoveryStage.DONE:
            self.step()
        return self.report()

    def _site_cost(self) -> float:
        return sum(self.store.cost_summary().values())

    # -- helpers -------------------------------------------------------------------

    def _count(self, key: str, n: float = 1.0) -> None:
        self._counts[key] = self._counts.get(key, 0.0) + n

    def _ensure_trusted(self) -> Dict[str, Tuple[object, str]]:
        """CA-check the dead site's certificates into a trust map."""
        if self._trusted is None:
            certs = self.replica.source_certificates
            if not certs:
                raise RecoveryError(
                    "replica holds no source certificates; the dead site's "
                    "keys cannot be trusted without the CA chain")
            self._trusted = trusted_signers(certs, self.ca,
                                            error=TamperedError)
        return self._trusted

    def _ensure_images(self) -> Dict[int, Dict[str, Any]]:
        """Materialized per-shard catalog images (idempotent)."""
        if self._images is None:
            self._images = {
                shard_id: self.replica.materialize_shard(shard_id)
                for shard_id in self.replica.shard_ids}
        return self._images

    def _stage_signed(self, shard_id: int, signed: SignedEnvelope,
                      purpose: str, role: str, label: str,
                      staged: List[Tuple[SignedEnvelope, Any, str]]) -> None:
        """Host-side checks for one authenticator; its signature joins
        *staged* for the shard's one batched verify."""
        if signed.envelope.purpose != purpose:
            raise TamperedError(
                f"shard {shard_id} {label}: wrong envelope purpose "
                f"{signed.envelope.purpose!r} (expected {purpose!r})")
        key = trusted_key(signed, self._ensure_trusted(), (role,))
        if key is None:
            raise TamperedError(
                f"shard {shard_id} {label}: signed by an untrusted key")
        staged.append((signed, key, label))

    # -- stages ----------------------------------------------------------------------

    def _discover(self) -> None:
        """Inventory the replica and establish trust in the dead keys."""
        self._ensure_trusted()
        shard_ids = self.replica.shard_ids
        missing = [s for s in shard_ids if s >= self.store.shard_count]
        if missing:
            raise RecoveryError(
                f"replica holds shards {missing} but the new site only "
                f"provisions {self.store.shard_count}")
        self._count("shards_discovered",
                    len(shard_ids) - self._counts.get("shards_discovered", 0))
        self.store.begin_recovery()

    def _download(self) -> None:
        """Materialize the catalog images; charge the WAN transfer time."""
        images = self._ensure_images()
        total_bytes = 0
        for image in images.values():
            total_bytes += sum(len(b) for b in image["blocks"].values())
            total_bytes += 512 * (len(image["vrds"])
                                  + len(image["deletion_proofs"]))
        transfer = total_bytes / self.link_bandwidth
        self._counts["transfer_seconds"] = transfer
        self._counts["rto_seconds"] = (
            self._counts.get("rto_seconds", 0.0) + transfer)
        self._count("bytes_downloaded", total_bytes)
        self.store.advance_clocks(transfer)

    def _verify(self) -> None:
        """Check every replicated construct before any of it is imported.

        Window authenticators are host-checked here, records by
        migration's :func:`~repro.core.migration.check_records`; every
        signature of a shard's image, records and authenticators alike,
        crosses into the new site's SCPU as one batched verify call.
        """
        trusted = self._ensure_trusted()
        for shard_id, image in sorted(self._ensure_images().items()):  # wormlint: disable=W009 - the shard is the batch boundary: all of its signatures cross once in check_records
            windows = self._stage_shard_windows(shard_id, image)
            vrds = []
            for sn in sorted(image["vrds"]):
                vrd = VirtualRecordDescriptor.from_dict(image["vrds"][sn])
                if vrd.is_client_verifiable:
                    vrds.append(vrd)
                else:
                    # Only the dead card could check its own HMAC:
                    # unverifiable by construction, excluded from
                    # REPLAY, covered by RESUME.
                    self._unverifiable.append(
                        (shard_id, vrd.sn, "hmac-witnessed (burst mode); "
                                           "re-ingested from the journal"))
            failures, windows_ok = check_records(
                self.store.shard(shard_id), vrds, image["blocks"], trusted,
                extra=[(signed, key) for signed, key, _ in windows])
            for ok, (_, _, label) in zip(windows_ok, windows):
                if not ok:
                    raise TamperedError(f"shard {shard_id} {label}: "
                                        f"signature verification failed")
            for vrd, failure in zip(vrds, failures):
                if failure is not None:
                    raise TamperedError(
                        f"shard {shard_id} SN {vrd.sn}: {failure}")
            if windows:
                self._count("windows_verified", len(windows))
                self.obs.inc("recovery.windows_verified", len(windows))
            if vrds:
                self._count("records_verified", len(vrds))
                self.obs.inc("recovery.records_verified", len(vrds))

    def _stage_shard_windows(self, shard_id: int, image: Dict[str, Any]
                             ) -> List[Tuple[SignedEnvelope, Any, str]]:
        """The shard's window authenticators, host-checked: the O(1)
        trust skeleton, each with its signer's key and a label."""
        if image["vrds"] and image["sn_current"] is None:
            raise RecoveryError(
                f"shard {shard_id}: replica has active records but no "
                f"signed SN_current authenticator")
        staged: List[Tuple[SignedEnvelope, Any, str]] = []
        for key, purpose in (("sn_current", Purpose.SN_CURRENT),
                             ("sn_base", Purpose.SN_BASE)):
            if image[key] is not None:
                self._stage_signed(
                    shard_id, SignedEnvelope.from_dict(image[key]),
                    purpose, "s", key, staged)
        for window in image["deletion_windows"]:
            self._stage_signed(
                shard_id, SignedEnvelope.from_dict(window["lower"]),
                Purpose.WINDOW_LOWER, "s", "deletion-window lower bound",
                staged)
            self._stage_signed(
                shard_id, SignedEnvelope.from_dict(window["upper"]),
                Purpose.WINDOW_UPPER, "s", "deletion-window upper bound",
                staged)
        for sn, proof_data in sorted(image["deletion_proofs"].items()):
            proof = SignedEnvelope.from_dict(proof_data)
            self._stage_signed(shard_id, proof, Purpose.DELETION_PROOF,
                               "d", f"deletion proof SN {sn}", staged)
            if int(proof.field("sn")) != int(sn):
                raise TamperedError(
                    f"shard {shard_id}: deletion proof names SN "
                    f"{proof.field('sn')} but is filed under {sn}")
        return staged

    def _replay(self) -> None:
        """Re-witness every verified record under the new site's SCPUs.

        All of a shard's verified records replay through one
        :meth:`~repro.core.worm.StrongWormStore.import_records` call, so
        hashing, SN issue, and witnessing cross the new SCPU once per
        shard rather than once per record.
        """
        unverifiable = {(s, sn) for s, sn, _ in self._unverifiable}
        for shard_id, image in sorted(self._ensure_images().items()):  # wormlint: disable=W009 - the shard is the batch boundary: each iteration makes one batched import_records crossing
            if self._replayed_shards.get(str(shard_id)):
                continue  # resumed recovery: this shard already landed
            sns = [sn for sn in sorted(image["vrds"])
                   if (shard_id, sn) not in unverifiable]
            vrds = [VirtualRecordDescriptor.from_dict(image["vrds"][sn])
                    for sn in sns]
            receipts = self.store.shard(shard_id).import_records(  # wormlint: disable=W007 - custody spans stages: VERIFY's check_records checked every (shard, sn) against its metasig/datasig before REPLAY can start, and unverifiable records are skipped above
                [(vrd.attr, [image["blocks"][rd.key] for rd in vrd.rdl])
                 for vrd in vrds])
            for sn, vrd, receipt in zip(sns, vrds, receipts):
                for index in range(len(vrd.rdl)):
                    old = RecordLocator(shard_id=shard_id, sn=sn,
                                        record_index=index).pack()
                    new = RecordLocator(shard_id=shard_id, sn=receipt.sn,
                                        record_index=index).pack()
                    self._mapping[old] = new
                self._count("records_replayed")
                self.obs.inc("recovery.records_replayed")
            self._count("skipped_expired",
                        len(image["deletion_proofs"]))
            self._replayed_shards[str(shard_id)] = True

    def _resume(self) -> None:
        """Drain the mirrored journal, then return the site to service.

        The zero-acknowledged-loss argument closes here: a write the
        primary acknowledged either (a) replayed from the verified
        catalog (its commit mark's locator is in the mapping), or (b)
        re-commits now from its mirrored journal entry.  Uncommitted
        entries — admitted writes whose group never flushed before the
        site died — re-commit too, under their original tags, so a
        deferred ticket issued by the dead site redeems on the new one.
        """
        for entry in self.replica.journal_ledger():
            if (entry.committed and entry.locator is not None
                    and entry.locator in self._mapping):
                continue
            if entry.tag is not None and not entry.committed:
                tag: object = entry.tag
            else:
                tag = (self.RECOVERY_TAG,
                       entry.locator if entry.locator is not None
                       else f"entry:{entry.entry_id}")
            self.store.submit(entry.payload, tag=tag, **entry.kwargs)
            self._count("journal_requeued")
            self.obs.inc("recovery.journal_requeued")
        self.store.flush()
        for tag, receipt in self.store.take_tagged_receipts().items():
            if (isinstance(tag, tuple) and len(tag) == 2
                    and tag[0] == self.RECOVERY_TAG):
                old = tag[1]
                if isinstance(old, str) and not old.startswith("entry:"):
                    self._mapping[old] = receipt.locator.pack()
            else:
                self._tagged_receipts[tag] = receipt
        self.store.resume_service()
