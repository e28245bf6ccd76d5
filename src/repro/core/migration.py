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
   then every record's metasig/datasig and data hash.  Only records that
   verify are re-witnessed under the destination keys, with their
   original attributes — creation time, retention period, litigation
   holds — preserved, so retention clocks keep running.
3. Records that fail verification are **not migrated silently**: they are
   reported, because a migration is precisely where an insider would try
   to launder altered history into a fresh store.

Expired records do not move: their deletion proofs are evidence about the
*source* store and are archived in the report for audit, not re-issued.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.errors import MigrationError
from repro.core.worm import StrongWormStore
from repro.crypto.envelope import Purpose, SignedEnvelope
from repro.crypto.hashing import data_tree
from repro.crypto.keys import Certificate, CertificateAuthority
from repro.storage.vrd import VirtualRecordDescriptor

__all__ = ["MigrationPackage", "MigrationReport", "export_package",
           "import_package", "datasig_covers"]


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
    blocks: Dict[str, bytes] = {}
    for sn in store.vrdt.active_sns:
        vrd = store.vrdt.get_active(sn)
        assert vrd is not None
        for rd in vrd.rdl:
            if rd.key not in blocks:
                blocks[rd.key] = store.retry.call(
                    "block_store.get", store.blocks.get, rd.key)
                store.disk.read(rd.length)
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
    trusted: Dict[str, Tuple[object, str]] = {}
    for cert in package.source_certificates:
        if not CertificateAuthority.verify_certificate(cert, ca.root_public_key):
            raise MigrationError(
                f"source certificate for role {cert.role!r} fails CA check")
        trusted[cert.fingerprint] = (cert.public_key, cert.role)

    # 2. Verify the manifest with the destination SCPU.
    manifest = package.manifest
    if manifest.envelope.purpose != Purpose.MIGRATION_MANIFEST:
        raise MigrationError("manifest has the wrong envelope purpose")
    signer = trusted.get(manifest.key_fingerprint)
    if signer is None or signer[1] != "s":
        raise MigrationError("manifest not signed by the source's s key")
    if not dest.scpu_rt.verify_envelope(manifest, signer[0]):
        raise MigrationError("manifest signature verification failed")
    if manifest.field("manifest_hash") != _package_hash(
            package.vrdt_snapshot, package.blocks):
        raise MigrationError("package contents do not match the signed manifest")

    # 3. Per-record verification + re-witnessing.
    report = MigrationReport()
    report.archived_deletion_proofs = len(
        package.vrdt_snapshot.get("deletion_proofs", []))
    for vrd_data in package.vrdt_snapshot["active"]:
        vrd = VirtualRecordDescriptor.from_dict(vrd_data)
        failure = _verify_source_record(dest, vrd, package.blocks, trusted)
        if failure is not None:
            report.rejected.append((vrd.sn, failure))
            continue
        payloads = [package.blocks[rd.key] for rd in vrd.rdl]
        receipt = dest.import_record(vrd.attr, payloads)
        report.sn_mapping[vrd.sn] = receipt.sn
        report.migrated += 1
    return report


def _verify_source_record(dest: StrongWormStore, vrd: VirtualRecordDescriptor,
                          blocks: Dict[str, bytes],
                          trusted: Dict[str, Tuple[object, str]]):
    """Return a failure reason, or None when the record fully verifies."""
    for signed, label in ((vrd.metasig, "metasig"), (vrd.datasig, "datasig")):
        if signed.scheme == "hmac":
            return f"{label} is HMAC-only; source must strengthen before migrating"
        signer = trusted.get(signed.key_fingerprint)
        if signer is None or signer[1] not in ("s", "burst"):
            return f"{label} signed by an untrusted key"
        if not dest.scpu_rt.verify_envelope(signed, signer[0]):
            return f"{label} signature verification failed"
    if vrd.metasig.field("sn") != vrd.sn or vrd.datasig.field("sn") != vrd.sn:
        return "signatures name a different SN"
    if vrd.metasig.field("attr") != vrd.attr.canonical_bytes():
        return "attributes do not match metasig"
    missing = [rd.key for rd in vrd.rdl if rd.key not in blocks]
    if missing:
        return f"payloads missing from package: {missing}"
    if not datasig_covers(dest, vrd, blocks):
        return "record data does not match datasig"
    return None


def datasig_covers(dest: StrongWormStore, vrd: VirtualRecordDescriptor,
                   blocks: Dict[str, bytes]) -> bool:
    """Do *blocks* hold the data *vrd*'s datasig signs?

    The one data check of a record arriving from another store (a
    migration package, a recovery replica): hash the RDL's blocks into
    the VR's data tree, charge *dest*'s card the SHA of that pass, and
    compare the root with the signed ``data_hash``.  Every RDL key must
    be in *blocks*.
    """
    tree = data_tree([blocks[rd.key] for rd in vrd.rdl])
    dest.scpu.meter.charge("sha", dest.scpu.profile.sha_seconds(
        vrd.total_bytes + tree.node_bytes, dest.scpu.hash_block_size))
    return tree.root == vrd.datasig.field("data_hash")
