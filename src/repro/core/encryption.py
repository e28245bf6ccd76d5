"""Encrypted WORM records with SCPU-backed crypto-shredding.

§1's Secure Deletion requirement says deleted records "should not be
recoverable even with unrestricted access to the underlying storage
medium".  Physical overwrite passes (:mod:`repro.core.shredding`) deliver
that for the medium the store controls — but not for media *copies* the
insider made before deletion, and not for worn-out disks swapped under
RAID.  The standard remedy (cited as related work in §3's encrypted
storage) is encryption at rest plus key destruction:

* every record is encrypted under a fresh random **DEK** (ChaCha20);
* the DEK is **wrapped** by the SCPU under an *epoch key* that exists
  only inside the enclosure's NVRAM;
* deletion shreds the ciphertext normally AND drops the record's wrapped
  DEK from the survivor set; the next **epoch rotation** re-wraps the
  survivors under a fresh epoch key and destroys the old one — at which
  point every hoarded copy of the deleted record (ciphertext + old
  wrapped DEK) is information-theoretically useless without breaking the
  cipher.

Integrity is unchanged: ``datasig`` covers the *ciphertext*, so all
Theorem 1/2 machinery (and the plain :class:`WormClient`) works untouched;
:class:`EncryptedWormStore` adds decryption on top of a verified read.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.client import WormClient
from repro.core.errors import WormError
from repro.core.worm import StrongWormStore, WriteReceipt
from repro.crypto.chacha import chacha20_xor
from repro.hardware.scpu import WrappedKey

__all__ = ["EncryptedWormStore", "EncryptedRead"]

#: Nonce used for record encryption: DEKs are single-use, so a fixed
#: nonce is safe (one key, one message) and saves storing per-record
#: nonces.  The *wrapping* uses random nonces (epoch keys wrap many DEKs).
_RECORD_NONCE = b"\x00" * 12


@dataclass(frozen=True)
class EncryptedRead:
    """A verified-and-decrypted read."""

    sn: int
    plaintext: bytes
    weakly_signed: bool


class EncryptedWormStore:
    """Encryption-at-rest layer over a :class:`StrongWormStore`.

    The wrapped-DEK table is untrusted state (anyone may copy it; only
    the SCPU can use it), keyed by SN.  ``auto_rotate`` controls whether
    every deletion batch immediately triggers an epoch rotation; large
    stores would rotate once per idle period instead
    (:meth:`shred_epoch`).
    """

    def __init__(self, store: StrongWormStore) -> None:
        self._store = store
        self._wrapped: Dict[int, WrappedKey] = {}
        self.rotations = 0

    @property
    def store(self) -> StrongWormStore:
        return self._store

    @property
    def current_epoch(self) -> int:
        return self._store.scpu.current_epoch

    # -- writes --------------------------------------------------------------

    def write(self, plaintext: bytes, **write_kwargs) -> WriteReceipt:
        """Encrypt under a fresh DEK and commit the ciphertext."""
        dek = secrets.token_bytes(32)
        ciphertext = chacha20_xor(dek, _RECORD_NONCE, plaintext)
        # Host-side stream encryption runs at SHA-like rates.
        self._store.host.meter.charge(
            "chacha", self._store.host.profile.sha_seconds(
                len(plaintext), self._store.host.hash_block_size))
        receipt = self._store.write([ciphertext], **write_kwargs)
        self._wrapped[receipt.sn] = self._store.scpu_rt.wrap_key(dek)
        return receipt

    # -- reads ----------------------------------------------------------------

    def read_verified(self, client: WormClient, sn: int) -> EncryptedRead:
        """Verify the ciphertext record, unwrap the DEK, decrypt."""
        verified = client.verify_read(self._store.read(sn), sn)
        if verified.status != "active":
            raise WormError(f"SN {sn} is {verified.status}")
        wrapped = self._wrapped.get(sn)
        if wrapped is None:
            raise WormError(f"SN {sn} has no wrapped DEK (shredded?)")
        dek = self._store.scpu_rt.unwrap_key(wrapped)
        self._store.host.meter.charge(
            "chacha", self._store.host.profile.sha_seconds(
                len(verified.data), self._store.host.hash_block_size))
        return EncryptedRead(sn=sn,
                             plaintext=chacha20_xor(dek, _RECORD_NONCE,
                                                    verified.data),
                             weakly_signed=verified.weakly_signed)

    # -- crypto-shredding -----------------------------------------------------------

    def shred_epoch(self) -> int:
        """Rotate the epoch key, dropping DEKs of no-longer-active records.

        Returns the number of DEKs destroyed.  Run during idle periods
        after the Retention Monitor has expired records; until this runs,
        a deleted record's DEK still technically exists inside the SCPU's
        current epoch (the paper's deferred-idle-work pattern applies to
        shredding exactly as it does to strengthening).
        """
        active = {sn: w for sn, w in self._wrapped.items()
                  if self._store.vrdt.is_active(sn)}
        destroyed = len(self._wrapped) - len(active)
        survivors = list(active.items())
        rewrapped = self._store.scpu_rt.rotate_epoch([w for _, w in survivors])
        self._wrapped = {sn: new for (sn, _), new in zip(survivors, rewrapped)}
        self.rotations += 1
        return destroyed

    def maintenance(self, **kwargs) -> Dict[str, int]:
        """Run the store's maintenance, then rotate the shredding epoch."""
        summary = self._store.maintenance(**kwargs)
        summary["deks_destroyed"] = self.shred_epoch()
        return summary

    # -- encrypted migration ----------------------------------------------------------

    def migrate_to(self, dest: "EncryptedWormStore", ca) -> "object":
        """Compliant migration of an encrypted store (§1 + extension).

        Two coupled transfers:

        1. the normal record migration — ciphertexts and attributes move
           with full per-record verification at the destination;
        2. the **DEK handoff** — the source SCPU releases the migrated
           records' DEKs only after verifying the destination enclave's
           CA-certified key-transport key, sealed under an RSA-KEM shared
           secret; the destination rewraps them under its own epoch.

        DEK plaintext never exists outside the two enclosures.  Returns
        the record-migration report (with ``sn_mapping``).
        """
        from repro.core.migration import export_package, import_package
        package = export_package(self._store, ca)
        report = import_package(dest.store, package, ca)

        migrated_wraps = {sn: w for sn, w in self._wrapped.items()
                          if sn in report.sn_mapping}
        dest_public, dest_cert = dest.store.scpu_rt.key_transport_public(ca)
        bundle = self._store.scpu_rt.export_deks(
            migrated_wraps, dest_public, dest_cert, ca.root_public_key)
        rewrapped = dest.store.scpu_rt.import_deks(bundle)
        for old_sn, wrapped in rewrapped.items():
            dest._wrapped[report.sn_mapping[old_sn]] = wrapped
        return report

    # -- persistence helpers ---------------------------------------------------------

    def wrapped_table(self) -> Dict[int, dict]:
        """Serialize the (untrusted) wrapped-DEK table."""
        return {sn: w.to_dict() for sn, w in self._wrapped.items()}

    def restore_wrapped_table(self, data: Dict) -> None:
        self._wrapped = {int(sn): WrappedKey.from_dict(w)
                         for sn, w in data.items()}
