"""Compliant migration between stores (§1: Compliant Migration).

"Retention periods are measured in years ... compliant data migration
mechanisms are required to transfer information from obsolete to new
storage media while preserving the associated security assurances."

The protocol implemented here:

1. **Export** — the source store packages its VRDT snapshot and the
   payloads of all active records; the *source SCPU* signs a migration
   manifest over a canonical hash of the package, plus the record count
   and window bounds, so the package cannot be truncated or padded in
   transit.
2. **Import** — the destination store obtains the source SCPU's
   CA-certified public keys, has its *own SCPU* verify the manifest and
   then every record's metasig/datasig (one batched crossing) and data
   hash.  Only records that verify are re-witnessed under the
   destination keys, in one :meth:`~repro.core.worm.StrongWormStore.
   import_records` call, with their original attributes — creation
   time, retention period, litigation holds — preserved, so retention
   clocks keep running.
3. Records that fail verification are **not migrated silently**: they are
   reported, because a migration is precisely where an insider would try
   to launder altered history into a fresh store.

Expired records do not move: their deletion proofs are evidence about the
*source* store and are archived in the report for audit, not re-issued.

:func:`trusted_signers` and :func:`check_records` are the one custody
check for records arriving from another store.  Site recovery's VERIFY
stage (:mod:`repro.recovery.stages`) runs them too, under its own
policy: it halts on the first failure and sets HMAC-witnessed records
aside for the journal to re-ingest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.core.errors import MigrationError, WormError
from repro.core.worm import StrongWormStore
from repro.crypto.envelope import Purpose, SignedEnvelope
from repro.crypto.hashing import data_tree
from repro.crypto.keys import Certificate, CertificateAuthority
from repro.storage.vrd import VirtualRecordDescriptor

__all__ = ["MigrationPackage", "MigrationReport", "export_package",
           "import_package", "trusted_signers", "trusted_key",
           "check_records"]


@dataclass(frozen=True)
class MigrationPackage:
    """Everything that travels from the old store to the new one."""

    vrdt_snapshot: dict
    blocks: Dict[str, bytes]
    manifest: SignedEnvelope
    source_certificates: Tuple[Certificate, ...]


@dataclass
class MigrationReport:
    """Outcome of an import: SN mapping and any verification failures."""

    sn_mapping: Dict[int, int] = field(default_factory=dict)
    migrated: int = 0
    rejected: List[Tuple[int, str]] = field(default_factory=list)
    archived_deletion_proofs: int = 0

    @property
    def clean(self) -> bool:
        """True when every record verified and migrated."""
        return not self.rejected


def _package_hash(vrdt_snapshot: dict, blocks: Dict[str, bytes]) -> bytes:
    """Canonical digest binding the snapshot and every payload byte."""
    hasher = hashlib.sha256()
    hasher.update(json.dumps(vrdt_snapshot, sort_keys=True).encode("utf-8"))
    for key in sorted(blocks):
        hasher.update(key.encode("utf-8"))
        hasher.update(hashlib.sha256(blocks[key]).digest())
    return hasher.digest()


def export_package(store: StrongWormStore,
                   ca: CertificateAuthority) -> MigrationPackage:
    """Snapshot *store* for migration, signed by its SCPU."""
    snapshot = store.vrdt.to_dict()
    blocks = store.read_blocks(
        map(store.vrdt.get_active, store.vrdt.active_sns))
    manifest = store.scpu_rt.sign_migration_manifest(
        manifest_hash=_package_hash(snapshot, blocks),
        record_count=len(store.vrdt.active_sns),
        sn_base=store.scpu.sn_base,
        sn_current=store.scpu.current_serial_number,
    )
    return MigrationPackage(
        vrdt_snapshot=snapshot,
        blocks=blocks,
        manifest=manifest,
        source_certificates=tuple(store.certificates(ca)),
    )


def import_package(dest: StrongWormStore, package: MigrationPackage,
                   ca: CertificateAuthority) -> MigrationReport:
    """Verify *package* with the destination SCPU and re-witness records.

    Raises :class:`MigrationError` when the package-level manifest fails
    (nothing is imported); per-record failures are collected in the
    report while the verifiable remainder still migrates.
    """
    # 1. Establish trust in the source keys through the shared CA.
    trusted = trusted_signers(package.source_certificates, ca)

    # 2. Verify the manifest with the destination SCPU.
    manifest = package.manifest
    if manifest.envelope.purpose != Purpose.MIGRATION_MANIFEST:
        raise MigrationError("manifest has the wrong envelope purpose")
    key = trusted_key(manifest, trusted, ("s",))
    if key is None:
        raise MigrationError("manifest not signed by the source's s key")
    if not dest.scpu_rt.verify_envelope(manifest, key):
        raise MigrationError("manifest signature verification failed")
    if manifest.field("manifest_hash") != _package_hash(
            package.vrdt_snapshot, package.blocks):
        raise MigrationError("package contents do not match the signed manifest")

    # 3. Check every record in one batch; re-witness the ones that verify.
    report = MigrationReport()
    report.archived_deletion_proofs = len(
        package.vrdt_snapshot.get("deletion_proofs", []))
    vrds = [VirtualRecordDescriptor.from_dict(vrd_data)
            for vrd_data in package.vrdt_snapshot["active"]]
    failures, _ = check_records(dest, vrds, package.blocks, trusted)
    verified = []
    for vrd, failure in zip(vrds, failures):
        if failure is None:
            verified.append(vrd)
        else:
            report.rejected.append((vrd.sn, failure))
    receipts = dest.import_records(
        [(vrd.attr, [package.blocks[rd.key] for rd in vrd.rdl])
         for vrd in verified])
    for vrd, receipt in zip(verified, receipts):
        report.sn_mapping[vrd.sn] = receipt.sn
    report.migrated = len(receipts)
    return report


def trusted_signers(certificates: Iterable[Certificate],
                    ca: CertificateAuthority,
                    error: Type[WormError] = MigrationError
                    ) -> Dict[str, Tuple[object, str]]:
    """CA-check another store's *certificates* into a trust map.

    Maps each certificate's key fingerprint to ``(public key, role)``.
    A certificate *ca* did not issue raises *error*: a migration refuses
    the package, a recovery treats the replica as tampered.
    """
    trusted: Dict[str, Tuple[object, str]] = {}
    for cert in certificates:
        if not CertificateAuthority.verify_certificate(cert, ca.root_public_key):
            raise error(
                f"source certificate for role {cert.role!r} fails CA check")
        trusted[cert.fingerprint] = (cert.public_key, cert.role)
    return trusted


def trusted_key(signed: SignedEnvelope, trusted: Dict[str, Tuple[object, str]],
                roles: Tuple[str, ...]) -> Optional[object]:
    """The public key that signed *signed*, if *trusted* holds it in one
    of *roles*; None otherwise."""
    signer = trusted.get(signed.key_fingerprint)
    return signer[0] if signer is not None and signer[1] in roles else None


def check_records(dest: StrongWormStore,
                  vrds: Sequence[VirtualRecordDescriptor],
                  blocks: Dict[str, bytes],
                  trusted: Dict[str, Tuple[object, str]],
                  extra: Sequence[Tuple[SignedEnvelope, object]] = ()
                  ) -> Tuple[List[Optional[str]], List[bool]]:
    """Check records another store's card witnessed, before *dest*
    re-witnesses them (a migration package, a recovery replica).

    The host-side checks run per record, the data check first charging
    *dest*'s card for hashing the blocks.  Then every record signature,
    and each ``(envelope, public key)`` pair of *extra*, crosses into
    *dest*'s card in one ``verify_envelope_batch``.  Returns each VRD's
    first failure, or None when it verifies, in this order: metasig,
    then datasig (each: HMAC-only, untrusted signer, bad signature),
    then the SN fields, the attributes, missing blocks and the data
    tree; and whether each *extra* signature verified.
    """
    pairs = list(extra)
    staged: List[Tuple[List[Tuple[int, str]], Optional[str]]] = []
    for vrd in vrds:
        slots: List[Tuple[int, str]] = []
        failure = None
        for signed, label in ((vrd.metasig, "metasig"),
                              (vrd.datasig, "datasig")):
            key = trusted_key(signed, trusted, ("s", "burst"))
            if signed.scheme == "hmac":
                failure = (f"{label} is HMAC-only; source must strengthen "
                           f"before migrating")
            elif key is None:
                failure = f"{label} signed by an untrusted key"
            if failure is not None:
                break
            slots.append((len(pairs), label))
            pairs.append((signed, key))
        else:
            failure = _content_failure(dest, vrd, blocks)
        staged.append((slots, failure))
    verified = dest.scpu_rt.verify_envelope_batch(pairs) if pairs else []
    failures = [
        next((f"{label} signature verification failed"
              for index, label in slots if not verified[index]), failure)
        for slots, failure in staged]
    return failures, verified[:len(extra)]


def _content_failure(dest: StrongWormStore, vrd: VirtualRecordDescriptor,
                     blocks: Dict[str, bytes]) -> Optional[str]:
    """Do the VRD's SN, attributes and blocks match what it says is signed?

    The data check hashes the RDL's blocks into the VR's data tree,
    charges *dest*'s card the SHA of that pass, and compares the root
    with the signed ``data_hash``.
    """
    if vrd.metasig.field("sn") != vrd.sn or vrd.datasig.field("sn") != vrd.sn:
        return "signatures name a different SN"
    if vrd.metasig.field("attr") != vrd.attr.canonical_bytes():
        return "attributes do not match metasig"
    missing = [rd.key for rd in vrd.rdl if rd.key not in blocks]
    if missing:
        return f"payloads missing from package: {missing}"
    tree = data_tree([blocks[rd.key] for rd in vrd.rdl])
    dest.scpu.meter.charge("sha", dest.scpu.profile.sha_seconds(
        vrd.total_bytes + tree.node_bytes, dest.scpu.hash_block_size))
    if tree.root != vrd.datasig.field("data_hash"):
        return "record data does not match datasig"
    return None
