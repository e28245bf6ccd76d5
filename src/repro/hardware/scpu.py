"""The secure coprocessor (SCPU): trust anchor of the Strong WORM design.

Models the IBM 4764 of §2.2: a tamper-responding enclosure containing

* the two protocol signature keys — ``s`` (metasig/datasig/window bounds)
  and ``d`` (deletion proofs) — plus a rotating short-lived *burst* key
  and an HMAC key for the §4.3 deferred-strength optimizations,
* a battery-backed monotonic serial-number counter in NVRAM,
* an accurate internal clock protected by the enclosure,
* a crypto engine whose service times follow the Table 2 calibration
  (:mod:`repro.hardware.calibration`), metered on :class:`OpMeter`.

Everything on this object is *inside the trust boundary*: the adversary
model may destroy the device (tripping tamper response and zeroization)
but may never read or alter its state.  The untrusted main CPU interacts
with it only through the service calls named in :data:`CARD_OPS` — the
"certified logic" the paper runs inside the enclosure.  Bulk operations
are batch-only on the card; :class:`BatchOfOne` gives the host their
singular names as batches of one.

Signature strength levels (§4.3):

* ``"strong"`` — the durable ``s`` key (default 1024 bits),
* ``"weak"`` — the short-lived burst key (default 512 bits, security
  lifetime ~60 minutes), to be strengthened during idle periods,
* ``"hmac"`` — an HMAC tag (not client-verifiable until upgraded).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.accumulator import TrapdoorAccumulator
from repro.crypto.envelope import Envelope, Purpose, SignedEnvelope
from repro.crypto.hashing import DataTree, data_tree
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import Certificate, CertificateAuthority, SigningKey
from repro.hardware.calibration import SCPU_IBM_4764, CryptoProfile
from repro.hardware.device import OpMeter
from repro.hardware.tamper import TamperResponder
from repro.sim.manual_clock import ManualClock

__all__ = ["CARD_OPS", "BatchOfOne", "SecureCoprocessor", "ScpuKeyring",
           "Strength", "StrengtheningError", "WrappedKey",
           "install_card_ops"]


@dataclass(frozen=True)
class WrappedKey:
    """A data-encryption key wrapped under an SCPU epoch key.

    Lives in untrusted storage; only the SCPU holding the named epoch's
    key can unwrap it.  ``tag`` authenticates the wrap so a tampered
    wrapped key is rejected rather than silently unwrapping to garbage.
    """

    epoch_id: int
    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def to_dict(self) -> Dict:
        return {"epoch_id": self.epoch_id, "nonce": self.nonce.hex(),
                "ciphertext": self.ciphertext.hex(), "tag": self.tag.hex()}

    @classmethod
    def from_dict(cls, data: Dict) -> "WrappedKey":
        return cls(epoch_id=int(data["epoch_id"]),
                   nonce=bytes.fromhex(data["nonce"]),
                   ciphertext=bytes.fromhex(data["ciphertext"]),
                   tag=bytes.fromhex(data["tag"]))

#: Tiny constant cost charged for counter/NVRAM touches (microseconds).
_NVRAM_TOUCH_SECONDS = 2e-6


class StrengtheningError(ValueError):
    """A prior construct failed its check in :meth:`~SecureCoprocessor.strengthen_batch`.

    ``strengthened`` holds the strong constructs issued for the items
    before it, in order; nothing at or after the refused item was signed.
    """

    def __init__(self, message: str,
                 strengthened: Sequence[SignedEnvelope] = ()) -> None:
        super().__init__(message)
        self.strengthened = list(strengthened)


class Strength:
    """Names of the witnessing strength levels."""

    STRONG = "strong"
    WEAK = "weak"
    HMAC = "hmac"


@dataclass
class ScpuKeyring:
    """The SCPU's private key material (generated inside the enclosure)."""

    s_key: SigningKey          # durable protocol signatures
    d_key: SigningKey          # deletion proofs
    burst_key: SigningKey      # short-lived deferred signatures
    hmac: HmacScheme           # burst-of-bursts witnessing

    @classmethod
    def generate(cls, strong_bits: int = 1024, weak_bits: int = 512) -> "ScpuKeyring":
        return cls(
            s_key=SigningKey.generate(strong_bits, role="s"),
            d_key=SigningKey.generate(strong_bits, role="d"),
            burst_key=SigningKey.generate(weak_bits, role="burst"),
            hmac=HmacScheme(),
        )


#: The card's whole service surface — every certified call the host can
#: make across the trust boundary (§2.2) — and which card of an
#: :class:`~repro.hardware.pool.ScpuPool` serves it.  ``"authority"`` ops
#: touch single-writer NVRAM state (the SN counter and base, the auth
#: backends' state correlated with it, each card's own epoch and
#: key-transport keys) and go to the pool's SN-authority card;
#: ``"worker"`` ops are the expensive signing / hashing / verification
#: work round-robined over live cards.  The pool, the fault and retry
#: wrappers and wormlint W003 all derive their surface from this table.
CARD_OPS: Dict[str, str] = {
    **dict.fromkeys((
        "issue_serial_numbers", "advance_sn_base", "sign_sn_base",
        "sign_migration_manifest", "public_keys", "certify_with",
        "rotate_burst_key", "sign_merkle_root", "accumulator_bootstrap",
        "accumulator_add", "accumulator_remove", "accumulator_witness",
        "accumulator_sign_value", "wrap_key", "unwrap_key", "rotate_epoch",
        "key_transport_public", "export_deks", "import_deks", "attest",
    ), "authority"),
    **dict.fromkeys((
        "hash_record_data_batch", "verify_deferred_hash_batch",
        "witness_write_batch", "strengthen_batch", "verify_own_hmac",
        "verify_envelope_batch", "resign_metadata", "make_deletion_proof",
        "compact_deletion_window", "sign_sn_current",
        "verify_regulator_credential",
    ), "worker"),
}


class BatchOfOne:
    """Singular forms of the batch-only card ops, each a batch of one.

    Inherited by the card, the pool and both wrappers, so a singular
    call is metered, faulted and retried as its batch op: one crossing,
    the same per-item charges.
    """

    def issue_serial_number(self) -> int:
        return self.issue_serial_numbers(1)[0]

    def hash_record_data(self, chunks: Iterable[bytes]) -> bytes:
        """The data hash (tree root) of one VR; the batch op keeps the nodes."""
        return self.hash_record_data_batch([chunks])[0].root

    def verify_deferred_hash(self, chunks: Iterable[bytes],
                             claimed: bytes) -> bool:
        return self.verify_deferred_hash_batch([(chunks, claimed)])[0]

    def witness_write(self, sn: int, attr_bytes: bytes, data_hash: bytes,
                      strength: str = Strength.STRONG
                      ) -> Tuple[SignedEnvelope, SignedEnvelope]:
        return self.witness_write_batch([(sn, attr_bytes, data_hash)],
                                        strength=strength)[0]

    def strengthen(self, signed: SignedEnvelope) -> SignedEnvelope:
        return self.strengthen_batch([signed])[0]

    def verify_envelope(self, signed: SignedEnvelope, public_key) -> bool:
        return self.verify_envelope_batch([(signed, public_key)])[0]


class SecureCoprocessor(BatchOfOne):
    """One IBM-4764-class secure coprocessor.

    Parameters
    ----------
    keyring:
        Pre-generated key material (tests pass small keys for speed); by
        default fresh 1024/512-bit keys are generated.
    clock:
        Any object with a ``.now`` property; defaults to a private
        :class:`ManualClock` at t=0.  Simulations pass the engine clock.
    profile:
        Performance calibration; defaults to the paper's IBM 4764 column.
    secure_memory_bytes:
        Capacity of scarce internal memory available to firmware state
        such as the VEXP expiration list (§4.2.2 "subject to secure
        storage space").
    """

    def __init__(self, keyring: Optional[ScpuKeyring] = None,
                 clock: Optional[object] = None,
                 profile: CryptoProfile = SCPU_IBM_4764,
                 secure_memory_bytes: int = 16 * 1024 * 1024,
                 hash_block_size: int = 64 * 1024) -> None:
        self._keys = keyring if keyring is not None else ScpuKeyring.generate()
        self.clock = clock if clock is not None else ManualClock()
        self.profile = profile
        self.meter = OpMeter()
        self.tamper = TamperResponder()
        self.secure_memory_bytes = secure_memory_bytes
        self.hash_block_size = hash_block_size
        self._sn_counter = 0
        self._sn_base = 1
        self._retired_burst_fingerprints: List[str] = []
        # Crypto-shredding epoch key: wraps per-record DEKs; rotating it
        # (and destroying the old one) unrecoverably shreds every DEK
        # that was not re-wrapped.  Lives only in battery-backed NVRAM.
        self._epoch_key = secrets.token_bytes(32)
        self._epoch_id = 1
        # Trapdoor accumulators for the "accumulator" authentication
        # scheme; provisioned lazily by accumulator_bootstrap().  The
        # trapdoors live only here, inside the enclosure (W001).
        self._accumulators: Dict[str, TrapdoorAccumulator] = {}
        self.tamper.register_zeroizer(self._zeroize)

    # -- trust boundary / lifecycle ---------------------------------------

    def _zeroize(self) -> None:
        """Destroy key material and counters (tamper response)."""
        self._keys = None  # type: ignore[assignment]
        self._sn_counter = -1
        self._sn_base = -1
        self._epoch_key = b""
        self._epoch_id = -1
        for acc in self._accumulators.values():
            acc.zeroize()
        self._accumulators.clear()

    @property
    def now(self) -> float:
        """The SCPU's internal tamper-protected clock."""
        return self.clock.now

    def _keys_or_die(self) -> ScpuKeyring:
        self.tamper.check()
        assert self._keys is not None
        return self._keys

    # -- public key export (for client trust bootstrap) --------------------

    def public_keys(self) -> Dict[str, object]:
        """Public halves of the protocol keys, for CA certification."""
        keys = self._keys_or_die()
        return {
            "s": keys.s_key.public,
            "d": keys.d_key.public,
            "burst": keys.burst_key.public,
        }

    def certify_with(self, ca: CertificateAuthority) -> Dict[str, Certificate]:
        """Have the regulatory CA certify this SCPU's public keys."""
        keys = self._keys_or_die()
        return {
            "s": ca.certify(keys.s_key.public, role="s", now=self.now),
            "d": ca.certify(keys.d_key.public, role="d", now=self.now),
            "burst": ca.certify(keys.burst_key.public, role="burst", now=self.now),
        }

    # -- internal signing helpers ------------------------------------------

    def _sign(self, key: SigningKey, purpose: str, fields: Dict) -> SignedEnvelope:
        return key.sign_envelope(self._to_sign(key, purpose, fields))

    def _to_sign(self, key: SigningKey, purpose: str,
                 fields: Dict) -> Envelope:
        """An envelope for *key* to sign, its signature charged now.

        A batch op charges each of its signatures in protocol order, then
        signs them all in one :meth:`SigningKey.sign_envelopes` call.
        """
        self.meter.charge(f"rsa_sign_{key.bits}", self.profile.rsa_sign_seconds(key.bits))
        return Envelope(purpose=purpose, fields=fields, timestamp=self.now)

    def _hmac_sign(self, purpose: str, fields: Dict) -> SignedEnvelope:
        keys = self._keys_or_die()
        envelope = Envelope(purpose=purpose, fields=fields, timestamp=self.now)
        message = envelope.canonical_bytes()
        self.meter.charge("hmac", self.profile.sha_seconds(len(message), block_size=1024))
        return SignedEnvelope(
            envelope=envelope,
            signature=keys.hmac.sign(message),
            key_fingerprint="hmac",
            key_bits=0,
            scheme="hmac",
        )

    def _witness_key(self, strength: str) -> SigningKey:
        keys = self._keys_or_die()
        if strength == Strength.STRONG:
            return keys.s_key
        if strength == Strength.WEAK:
            return keys.burst_key
        raise ValueError(f"unknown strength: {strength!r}")

    # -- serial numbers -------------------------------------------------------

    def issue_serial_numbers(self, count: int) -> List[int]:
        """Allocate *count* consecutive system-wide unique SNs (NVRAM).

        Each allocation still touches NVRAM (the monotonic counter is
        per-SN), but a burst of writes pays for one host↔card round trip
        instead of *count* of them.
        """
        if count < 0:
            raise ValueError("cannot issue a negative number of SNs")
        self.tamper.check()
        self.meter.crossing()
        sns: List[int] = []
        for _ in range(count):
            self.meter.charge("sn_counter", _NVRAM_TOUCH_SECONDS)
            self._sn_counter += 1
            sns.append(self._sn_counter)
        return sns

    @property
    def current_serial_number(self) -> int:
        """Highest SN issued so far (0 before any issue)."""
        self.tamper.check()
        return self._sn_counter

    # -- data hashing (datasig input) ----------------------------------------

    def hash_record_data_batch(
            self, chunk_lists: Iterable[Iterable[bytes]]) -> List[DataTree]:
        """DMA records' data into the enclosure and hash each VR's data tree.

        Charges, per record, the DMA transfer (75-90 MB/s end-to-end) plus
        the SCPU's SHA throughput at the configured block size — the
        dominant write cost for large records, which is why Figure 1's
        curves fall as record size grows.  A VR of ``g >= 2`` records
        also hashes its ``g - 1`` inner nodes and the count seal in the
        same pass; a one-record VR costs exactly what the chained hash
        did.  Each tree comes back whole: the root for ``datasig``, the
        nodes for the store's record paths.  One crossing per batch.
        """
        self.tamper.check()
        trees: List[DataTree] = []
        total = 0
        for chunks in chunk_lists:
            records = list(chunks)
            nbytes = sum(len(record) for record in records)
            tree = data_tree(records)
            self.meter.charge("dma", self.profile.dma_seconds(nbytes))
            self.meter.charge("sha", self.profile.sha_seconds(
                nbytes + tree.node_bytes, self.hash_block_size))
            trees.append(tree)
            total += nbytes
        self.meter.crossing(total)
        return trees

    def verify_deferred_hash_batch(
            self, items: Iterable[Tuple[Iterable[bytes], bytes]]) -> List[bool]:
        """Idle-time checks of host-provided hashes (§4.2.2 weaker model).

        During bursts the main CPU may be trusted to provide the data
        hash; the SCPU later reads the data itself and verifies.  *items*
        are ``(chunks, claimed)`` per VR; each VR is charged the DMA + SHA
        cost of :meth:`hash_record_data_batch`, and the batch is one
        crossing.  Returns one outcome per VR.
        """
        items = list(items)
        trees = self.hash_record_data_batch(chunks for chunks, _ in items)
        return [tree.root == claimed
                for tree, (_, claimed) in zip(trees, items)]

    # -- write witnessing -------------------------------------------------------

    def witness_write_batch(
            self, items: Iterable[Tuple[int, bytes, bytes]],
            strength: str = Strength.STRONG
    ) -> List[Tuple[SignedEnvelope, SignedEnvelope]]:
        """Produce (metasig, datasig) per new VRD in one crossing (§4.2.2).

        *items* is an iterable of ``(sn, attr_bytes, data_hash)``.
        ``metasig`` = S(SN, attr); ``datasig`` = S(SN, Hash(data)); both
        carry the SCPU timestamp.  With ``strength="hmac"`` the envelopes
        are HMAC-tagged instead (not client-verifiable until upgraded).
        Every record still pays its full signing cost — batching
        amortizes the round trip, not the cryptography; the batch's
        signatures are computed in one signing batch.
        """
        self.tamper.check()
        items = list(items)
        self.meter.crossing(sum(len(a) + len(h) for _, a, h in items))
        if strength == Strength.HMAC:
            return [(self._hmac_sign(Purpose.METASIG,
                                     {"sn": sn, "attr": attr_bytes}),
                     self._hmac_sign(Purpose.DATASIG,
                                     {"sn": sn, "data_hash": data_hash}))
                    for sn, attr_bytes, data_hash in items]
        key = self._witness_key(strength)
        envelopes: List[Envelope] = []
        for sn, attr_bytes, data_hash in items:
            envelopes.append(self._to_sign(key, Purpose.METASIG,
                                           {"sn": sn, "attr": attr_bytes}))
            envelopes.append(self._to_sign(key, Purpose.DATASIG,
                                           {"sn": sn, "data_hash": data_hash}))
        signed = key.sign_envelopes(envelopes)
        return list(zip(signed[0::2], signed[1::2]))

    # -- deferred-strength upgrades (§4.3) ---------------------------------------

    def strengthen_batch(
            self, signed_seq: Iterable[SignedEnvelope]) -> List[SignedEnvelope]:
        """Re-issue weak/HMAC constructs under the durable ``s`` key.

        The SCPU verifies its *own* prior construct first — a weak
        signature within lifetime, or an HMAC tag — then signs the same
        statement (purpose + fields) afresh with a current timestamp; a
        construct already under ``s`` is verified and returned unchanged.
        Every construct is checked, in order, before any is signed, and
        the new signatures are computed in one signing batch.  A
        construct that does not check out must never be laundered into a
        strong signature: at the first one, only the constructs before it
        are signed, and :class:`StrengtheningError` (a ``ValueError``)
        carries them.  Charges are per construct, in order, as if each
        were strengthened alone.
        """
        signed_seq = list(signed_seq)
        self.meter.crossing(sum(len(s.signature) for s in signed_seq))
        keys = self._keys_or_die()
        envelopes: List[Envelope] = []
        try:
            for signed in signed_seq:
                envelopes.append(self._check_for_strengthening(keys, signed))
        except ValueError as exc:
            raise StrengtheningError(
                str(exc), self._strong(keys, signed_seq, envelopes)) from None
        return self._strong(keys, signed_seq, envelopes)

    def _strong(self, keys: ScpuKeyring, signed_seq: List[SignedEnvelope],
                envelopes: List[Optional[Envelope]]) -> List[SignedEnvelope]:
        """The strong constructs for the checked prefix of *signed_seq*:
        the ones already strong as they are, the rest signed in one batch."""
        fresh = iter(keys.s_key.sign_envelopes(
            [envelope for envelope in envelopes if envelope is not None]))
        return [prior if envelope is None else next(fresh)
                for prior, envelope in zip(signed_seq, envelopes)]

    def _check_for_strengthening(self, keys: ScpuKeyring,
                                 signed: SignedEnvelope) -> Optional[Envelope]:
        """Verify one prior construct: None when it is already strong, else
        the envelope to sign under ``s`` (its signature charged).  Raises
        ``ValueError`` when the construct does not check out."""
        message = signed.envelope.canonical_bytes()
        if signed.scheme == "hmac":
            self.meter.charge("hmac", self.profile.sha_seconds(len(message), block_size=1024))
            if not keys.hmac.verify(message, signed.signature):
                raise ValueError("HMAC verification failed during strengthening")
        else:
            if signed.key_fingerprint == keys.s_key.fingerprint:
                # Already strong — e.g. a metasig re-issued by lit_hold
                # while the record sat in the strengthening queue.  Verify
                # and return it unchanged (idempotent).
                self.meter.charge(
                    f"rsa_verify_{signed.key_bits}",
                    self.profile.rsa_verify_seconds(signed.key_bits),
                )
                if not keys.s_key.public.verify(message, signed.signature,
                                                hash_name=signed.hash_name):
                    raise ValueError("strong construct failed verification")
                return None
            verify_key = None
            if signed.key_fingerprint == keys.burst_key.fingerprint:
                verify_key = keys.burst_key.public
            elif signed.key_fingerprint in self._retired_burst_fingerprints:
                raise ValueError("burst key already retired; construct too old")
            if verify_key is None:
                raise ValueError("unknown signing key in construct to strengthen")
            self.meter.charge(
                f"rsa_verify_{signed.key_bits}",
                self.profile.rsa_verify_seconds(signed.key_bits),
            )
            if not verify_key.verify(message, signed.signature,
                                     hash_name=signed.hash_name):
                raise ValueError("signature verification failed during strengthening")
        return self._to_sign(keys.s_key, signed.envelope.purpose,
                             dict(signed.envelope.fields))

    def verify_own_hmac(self, signed: SignedEnvelope) -> bool:
        """Check an HMAC tag this SCPU issued (night scan of burst writes)."""
        keys = self._keys_or_die()
        self.meter.crossing()
        message = signed.envelope.canonical_bytes()
        self.meter.charge("hmac", self.profile.sha_seconds(len(message), block_size=1024))
        return keys.hmac.verify(message, signed.signature)

    def rotate_burst_key(self, ca: Optional[CertificateAuthority] = None,
                         weak_bits: int = 512) -> Optional[Certificate]:
        """Retire the current burst key and generate a fresh one.

        Called periodically so no burst key is ever used beyond its
        security lifetime.  Returns the new key's certificate when a CA
        is provided.
        """
        keys = self._keys_or_die()
        self.meter.crossing()
        self._retired_burst_fingerprints.append(keys.burst_key.fingerprint)
        self.meter.charge("rsa_keygen", 0.5)  # card-side keygen, sub-second
        keys.burst_key = SigningKey.generate(weak_bits, role="burst")
        if ca is not None:
            return ca.certify(keys.burst_key.public, role="burst", now=self.now)
        return None

    # -- window / deletion constructs (§4.2.1) ----------------------------------

    def sign_sn_current(self, sn_current: int) -> SignedEnvelope:
        """S_s(SN_current) with timestamp — the upper window bound.

        Clients reject this construct once older than the freshness
        window; the SCPU refreshes it every few minutes even when idle.
        """
        self.meter.crossing()
        keys = self._keys_or_die()
        return self._sign(keys.s_key, Purpose.SN_CURRENT, {"sn_current": sn_current})

    @property
    def sn_base(self) -> int:
        """Lowest possibly-active SN, held in NVRAM; advances only with evidence."""
        self.tamper.check()
        return self._sn_base

    def sign_sn_base(self, validity_seconds: float = 24 * 3600.0) -> SignedEnvelope:
        """S_s(SN_base) with an expiration time (replay defence §4.2.1).

        Signs the NVRAM-resident base — the main CPU cannot choose the
        value, only request a fresh signature.  The expiry stops Mallory
        replaying an old (lower) base signature to dodge proper expiry.
        """
        self.meter.crossing()
        return self._sign_sn_base(validity_seconds)

    def _sign_sn_base(self, validity_seconds: float = 24 * 3600.0
                      ) -> SignedEnvelope:
        keys = self._keys_or_die()
        expires_at = self.now + validity_seconds
        return self._sign(keys.s_key, Purpose.SN_BASE,
                          {"sn_base": self._sn_base,
                           "expires_at_us": int(expires_at * 1e6)})

    def _verify_own_deletion_proof(self, proof: SignedEnvelope, sn: int) -> bool:
        """Check an S_d(sn) the main CPU presents as expiry evidence."""
        keys = self._keys_or_die()
        if proof.envelope.purpose != Purpose.DELETION_PROOF:
            return False
        if proof.envelope.fields.get("sn") != sn:
            return False
        self.meter.charge(
            f"rsa_verify_{keys.d_key.bits}",
            self.profile.rsa_verify_seconds(keys.d_key.bits),
        )
        return keys.d_key.public.verify(proof.envelope.canonical_bytes(),
                                        proof.signature,
                                        hash_name=proof.hash_name)

    def _verify_own_window(self, lower: SignedEnvelope, upper: SignedEnvelope) -> bool:
        """Check a (lower, upper) deletion-window pair this SCPU issued."""
        keys = self._keys_or_die()
        if lower.envelope.purpose != Purpose.WINDOW_LOWER:
            return False
        if upper.envelope.purpose != Purpose.WINDOW_UPPER:
            return False
        if lower.envelope.fields.get("window_id") != upper.envelope.fields.get("window_id"):
            return False
        for env in (lower, upper):
            self.meter.charge(
                f"rsa_verify_{keys.s_key.bits}",
                self.profile.rsa_verify_seconds(keys.s_key.bits),
            )
            if not keys.s_key.public.verify(env.envelope.canonical_bytes(),
                                            env.signature, hash_name=env.hash_name):
                return False
        return True

    def advance_sn_base(self, new_base: int,
                        proofs: Dict[int, SignedEnvelope],
                        windows: Iterable[Tuple[SignedEnvelope, SignedEnvelope]] = ()
                        ) -> SignedEnvelope:
        """Advance the NVRAM base after verifying expiry evidence (§4.2.1).

        Every SN in ``[current base, new_base)`` must be covered by a
        valid deletion proof in *proofs* or by one of the verified
        deletion *windows*.  Without this check a malicious main CPU
        could advance the base over still-active records — the exact
        "rewriting history" Theorem 2 rules out.
        """
        self.tamper.check()
        self.meter.crossing()
        if new_base <= self._sn_base:
            raise ValueError("base may only advance")
        if new_base > self._sn_counter + 1:
            raise ValueError("base cannot pass the allocation frontier")
        covered_ranges = []
        for lower, upper in windows:
            if self._verify_own_window(lower, upper):
                covered_ranges.append((int(lower.field("sn")), int(upper.field("sn"))))
        for sn in range(self._sn_base, new_base):
            if any(low <= sn <= high for low, high in covered_ranges):
                continue
            proof = proofs.get(sn)
            if proof is None or not self._verify_own_deletion_proof(proof, sn):
                raise ValueError(f"no valid expiry evidence for SN {sn}")
        self._sn_base = new_base
        self.meter.charge("sn_base_nvram", _NVRAM_TOUCH_SECONDS)
        return self._sign_sn_base()

    def compact_deletion_window(self, low_sn: int, high_sn: int,
                                proofs: Dict[int, SignedEnvelope]
                                ) -> Tuple[SignedEnvelope, SignedEnvelope]:
        """Sign bounds for a contiguous expired segment, after verification.

        The paper allows replacing "any contiguous VRDT segment of 3 or
        more expired VRs" with signed bounds; the SCPU first checks a
        valid deletion proof for every SN in the segment, so bounds can
        never be conjured over live data.
        """
        self.tamper.check()
        self.meter.crossing()
        if high_sn - low_sn + 1 < 3:
            raise ValueError("deletion windows need at least 3 expired VRs")
        for sn in range(low_sn, high_sn + 1):
            proof = proofs.get(sn)
            if proof is None or not self._verify_own_deletion_proof(proof, sn):
                raise ValueError(f"no valid deletion proof for SN {sn}")
        return self._sign_deletion_window(low_sn, high_sn)

    def _sign_deletion_window(self, low_sn: int, high_sn: int
                              ) -> Tuple[SignedEnvelope, SignedEnvelope]:
        """Signed lower/upper bounds for a contiguous expired-SN window.

        Both bounds carry the same random window ID so the main CPU
        cannot splice bounds from unrelated windows into an arbitrary
        "deleted" range (§4.2.1's correlation requirement).  Internal:
        the public entry point is :meth:`compact_deletion_window`, which
        verifies deletion proofs first.
        """
        keys = self._keys_or_die()
        if low_sn > high_sn:
            raise ValueError("deletion window bounds out of order")
        window_id = secrets.token_hex(16)
        lower, upper = keys.s_key.sign_envelopes([
            self._to_sign(keys.s_key, Purpose.WINDOW_LOWER,
                          {"sn": low_sn, "window_id": window_id}),
            self._to_sign(keys.s_key, Purpose.WINDOW_UPPER,
                          {"sn": high_sn, "window_id": window_id})])
        return lower, upper

    def make_deletion_proof(self, sn: int) -> SignedEnvelope:
        """S_d(SN): the proof of rightful deletion stored in the VRDT."""
        self.meter.crossing()
        keys = self._keys_or_die()
        return self._sign(keys.d_key, Purpose.DELETION_PROOF, {"sn": sn})

    # -- pluggable authentication backends (DESIGN §12) --------------------------

    #: Serialized Merkle node size DMA'd into the enclosure per path hop
    #: (32-byte digest + position byte + 32-byte sibling), matching the
    #: baseline's cost model.
    _MERKLE_NODE_BYTES = 65

    def sign_merkle_root(self, root: bytes, size: int,
                         path_nodes: int) -> SignedEnvelope:
        """Verify-and-sign a Merkle root update (``merkle`` backend).

        Models in-enclosure incremental maintenance: the card DMAs the
        *path_nodes* authentication-path nodes for the touched leaf,
        re-hashes them, and signs the resulting root together with the
        tree size and the SN allocation frontier (the frontier backs
        never-allocated denials, replacing SN_current for this scheme).
        """
        keys = self._keys_or_die()
        self.meter.crossing()
        nbytes = max(1, path_nodes) * self._MERKLE_NODE_BYTES
        self.meter.charge("merkle_path_dma", self.profile.dma_seconds(nbytes))
        self.meter.charge("merkle_path_sha",
                          self.profile.sha_seconds(nbytes, block_size=1024))
        return self._sign(keys.s_key, Purpose.MERKLE_ROOT, {
            "root": root, "size": size, "sn_frontier": self._sn_counter})

    def accumulator_bootstrap(self,
                              labels: Tuple[str, ...] = ("active", "deleted"),
                              bits: Optional[int] = None) -> None:
        """Provision trapdoor accumulators inside the enclosure (idempotent).

        One modulus per label; the factorisation trapdoor never leaves
        the card and is destroyed with the signing keys on tamper.  The
        modulus width defaults to the durable key's width so the
        accumulator's security level tracks the signature scheme's.
        """
        keys = self._keys_or_die()
        width = bits if bits is not None else keys.s_key.bits
        for label in labels:
            if label not in self._accumulators:
                self.meter.charge("rsa_keygen", 0.5)  # modulus generation
                self._accumulators[label] = TrapdoorAccumulator(bits=width)

    def _accumulator(self, label: str) -> TrapdoorAccumulator:
        self.tamper.check()
        acc = self._accumulators.get(label)
        if acc is None:
            raise ValueError(f"no accumulator provisioned under label {label!r}")
        return acc

    def accumulator_add(self, label: str, sn: int) -> int:
        """Accumulate *sn*: one small-exponent modexp, O(1).

        Returns the prime representative (public — verifiers recompute it
        from the SN, so returning it is a convenience, not a secret).
        """
        self.meter.crossing()
        acc = self._accumulator(label)
        self.meter.charge(f"acc_update_{acc.bits}",
                          self.profile.rsa_verify_seconds(acc.bits))
        self.meter.charge("acc_nvram", _NVRAM_TOUCH_SECONDS)
        return acc.add(sn)

    def accumulator_remove(self, label: str, sn: int) -> int:
        """Delete *sn* from the set via the trapdoor: O(1) full-width modexp."""
        self.meter.crossing()
        acc = self._accumulator(label)
        self.meter.charge(f"acc_trapdoor_{acc.bits}",
                          self.profile.rsa_sign_seconds(acc.bits))
        self.meter.charge("acc_nvram", _NVRAM_TOUCH_SECONDS)
        return acc.remove(sn)

    def accumulator_witness(self, label: str, sn: int) -> int:
        """Mint a membership witness via the trapdoor: O(1) modexp.

        This is the trapdoor-assisted update path of the distributed
        accumulator — without the trapdoor a witness costs O(set size).
        """
        self.meter.crossing()
        acc = self._accumulator(label)
        self.meter.charge(f"acc_trapdoor_{acc.bits}",
                          self.profile.rsa_sign_seconds(acc.bits))
        return acc.witness(sn)

    def accumulator_sign_value(self, label: str) -> SignedEnvelope:
        """S_s(label, value, frontier): the signed accumulator statement.

        Carries the public modulus (trust in it flows from the signature)
        and the SN allocation frontier so the same statement also backs
        never-allocated denials.  Clients reject stale statements by the
        freshness window, exactly like SN_current.
        """
        self.meter.crossing()
        keys = self._keys_or_die()
        acc = self._accumulator(label)
        return self._sign(keys.s_key, Purpose.ACCUMULATOR_VALUE, {
            "label": label,
            "value": acc.value_bytes(),
            "modulus": acc.modulus_bytes(),
            "members": acc.member_count,
            "sn_frontier": self._sn_counter,
        })

    # -- litigation & attribute updates (§4.2.2 Litigation) -----------------------

    def resign_metadata(self, sn: int, attr_bytes: bytes) -> SignedEnvelope:
        """Re-issue metasig after an authorized attr change (lit_hold/release)."""
        keys = self._keys_or_die()
        self.meter.crossing()
        return self._sign(keys.s_key, Purpose.METASIG, {"sn": sn, "attr": attr_bytes})

    def verify_regulator_credential(self, credential: SignedEnvelope,
                                    regulator_key, sn: int,
                                    max_age_seconds: float = 24 * 3600.0) -> bool:
        """Check an S_reg(SN, time) litigation credential (§4.2.2).

        The credential must be signed by the regulation authority, name
        this SN, and be recent (stale credentials are refused to stop
        replays of old court orders).
        """
        self.tamper.check()
        self.meter.crossing()
        env = credential.envelope
        if env.purpose != Purpose.LITIGATION_CREDENTIAL:
            return False
        if env.fields.get("sn") != sn:
            return False
        if not (self.now - max_age_seconds <= env.timestamp <= self.now + 60.0):
            return False
        self.meter.charge(
            f"rsa_verify_{regulator_key.bits}",
            self.profile.rsa_verify_seconds(regulator_key.bits),
        )
        return regulator_key.verify(env.canonical_bytes(), credential.signature,
                                    hash_name=credential.hash_name)

    # -- enclave-to-enclave key transport (encrypted migration) -----------------

    def key_transport_public(self, ca: Optional[CertificateAuthority] = None):
        """This card's key-transport (KEM) public key, lazily generated.

        A dedicated keypair — never the signing keys — receives DEK
        bundles during encrypted migration.  Returns ``(public_key,
        certificate)``; the certificate (role ``"kx"``) is what a source
        SCPU demands before releasing DEKs to anyone.
        """
        keys = self._keys_or_die()
        if not hasattr(self, "_kx_key") or self._kx_key is None:
            self.meter.charge("rsa_keygen", 0.5)
            self._kx_key = SigningKey.generate(keys.s_key.bits, role="kx")
            self.tamper.register_zeroizer(
                lambda: setattr(self, "_kx_key", None))
        cert = (ca.certify(self._kx_key.public, role="kx", now=self.now)
                if ca is not None else None)
        return self._kx_key.public, cert

    @staticmethod
    def _transport_seal(secret: bytes, payload: bytes):
        import hmac as hmac_mod
        import hashlib as hash_mod
        from repro.crypto.chacha import chacha20_xor
        nonce = secrets.token_bytes(12)
        ciphertext = chacha20_xor(secret, nonce, payload)
        tag = hmac_mod.new(secret, b"kx" + nonce + ciphertext,
                           hash_mod.sha256).digest()
        return nonce, ciphertext, tag

    def export_deks(self, wrapped: Dict[int, WrappedKey],
                    dest_public, dest_certificate, ca_root_key) -> Dict:
        """Release DEKs for migration — only to a CA-certified enclave.

        The source SCPU verifies the destination's ``kx`` certificate
        against the shared CA root (the insider cannot substitute her own
        key), unwraps each DEK, and seals the bundle under an RSA-KEM
        shared secret.  DEK plaintext exists only inside the two
        enclosures and in the sealed bundle.
        """
        self.tamper.check()
        import json as json_mod
        from repro.crypto.keys import CertificateAuthority as CA
        if dest_certificate is None or dest_certificate.role != "kx":
            raise ValueError("destination must present a kx certificate")
        if not CA.verify_certificate(dest_certificate, ca_root_key):
            raise ValueError("destination kx certificate fails CA verification")
        if dest_certificate.public_key != dest_public:
            raise ValueError("certificate does not match the presented key")
        from repro.crypto.rsa import kem_encapsulate
        kem_ct, secret = kem_encapsulate(dest_public)
        self.meter.charge(
            f"rsa_verify_{dest_public.bits}",
            self.profile.rsa_verify_seconds(dest_public.bits))
        deks = {str(sn): self.unwrap_key(w).hex()
                for sn, w in wrapped.items()}
        nonce, ciphertext, tag = self._transport_seal(
            secret, json_mod.dumps(deks, sort_keys=True).encode("utf-8"))
        return {"kem": kem_ct.hex(), "nonce": nonce.hex(),
                "ciphertext": ciphertext.hex(), "tag": tag.hex()}

    def import_deks(self, bundle: Dict) -> Dict[int, WrappedKey]:
        """Accept a sealed DEK bundle and rewrap under this card's epoch."""
        self.tamper.check()
        import hmac as hmac_mod
        import hashlib as hash_mod
        import json as json_mod
        from repro.crypto.chacha import chacha20_xor
        from repro.crypto.rsa import kem_decapsulate
        if not hasattr(self, "_kx_key") or self._kx_key is None:
            raise ValueError("no key-transport key provisioned on this card")
        secret = kem_decapsulate(self._kx_key.keypair.private,
                                 bytes.fromhex(bundle["kem"]))
        self.meter.charge(
            f"rsa_sign_{self._kx_key.bits}",  # private op ≈ one exponentiation
            self.profile.rsa_sign_seconds(self._kx_key.bits))
        nonce = bytes.fromhex(bundle["nonce"])
        ciphertext = bytes.fromhex(bundle["ciphertext"])
        expected = hmac_mod.new(secret, b"kx" + nonce + ciphertext,
                                hash_mod.sha256).digest()
        if not hmac_mod.compare_digest(expected,
                                       bytes.fromhex(bundle["tag"])):
            raise ValueError("DEK bundle failed authentication")
        deks = json_mod.loads(chacha20_xor(secret, nonce, ciphertext))
        return {int(sn): self.wrap_key(bytes.fromhex(dek))
                for sn, dek in deks.items()}

    # -- attestation ------------------------------------------------------------

    def attest(self) -> SignedEnvelope:
        """A signed snapshot of the card's NVRAM state, for auditors.

        Binds an audit to the card that served it: the counter frontier,
        the window base, the shredding epoch, and the card clock, all
        under the durable key with a fresh timestamp.  An examiner
        comparing two attestations can verify monotonicity (counters
        never regressed — a cloned/rolled-back card would show it) and
        liveness (the clock advanced).
        """
        keys = self._keys_or_die()
        return self._sign(keys.s_key, Purpose.ATTESTATION, {
            "sn_counter": self._sn_counter,
            "sn_base": self._sn_base,
            "epoch_id": self._epoch_id,
            "retired_burst_keys": len(self._retired_burst_fingerprints),
        })

    @staticmethod
    def verify_attestation(attestation: SignedEnvelope, s_public_key,
                           previous: Optional[SignedEnvelope] = None) -> bool:
        """Examiner-side check of an attestation (and its monotonicity).

        With *previous* supplied, also checks that time and counters only
        moved forward — the signature a rolled-back or cloned card cannot
        produce consistently.
        """
        env = attestation.envelope
        if env.purpose != Purpose.ATTESTATION:
            return False
        if not s_public_key.verify(env.canonical_bytes(),
                                   attestation.signature,
                                   hash_name=attestation.hash_name):
            return False
        if previous is not None:
            if previous.envelope.purpose != Purpose.ATTESTATION:
                return False
            if attestation.timestamp < previous.timestamp:
                return False
            for counter in ("sn_counter", "sn_base", "epoch_id",
                            "retired_burst_keys"):
                if env.fields[counter] < previous.envelope.fields[counter]:
                    return False
        return True

    # -- crypto-shredding key wrapping (encrypted-records extension) -----------

    @property
    def current_epoch(self) -> int:
        """The live wrapping epoch; older epochs' keys no longer exist."""
        self.tamper.check()
        return self._epoch_id

    def _wrap_mac(self, epoch_key: bytes, nonce: bytes, ct: bytes) -> bytes:
        import hmac as hmac_mod
        import hashlib
        return hmac_mod.new(epoch_key, b"wrap" + nonce + ct,
                            hashlib.sha256).digest()

    def wrap_key(self, dek: bytes) -> WrappedKey:
        """Wrap a 32-byte data-encryption key under the current epoch."""
        self.tamper.check()
        if len(dek) != 32:
            raise ValueError("DEKs are 32 bytes")
        from repro.crypto.chacha import chacha20_xor
        nonce = secrets.token_bytes(12)
        ciphertext = chacha20_xor(self._epoch_key, nonce, dek)
        self.meter.charge("key_wrap", self.profile.sha_seconds(96, 1024))
        return WrappedKey(epoch_id=self._epoch_id, nonce=nonce,
                          ciphertext=ciphertext,
                          tag=self._wrap_mac(self._epoch_key, nonce, ciphertext))

    def unwrap_key(self, wrapped: WrappedKey) -> bytes:
        """Unwrap a DEK; fails for stale epochs (shredded) or bad tags."""
        self.tamper.check()
        if wrapped.epoch_id != self._epoch_id:
            raise ValueError(
                f"epoch {wrapped.epoch_id} key has been destroyed "
                f"(current epoch: {self._epoch_id}) — the DEK is shredded")
        import hmac as hmac_mod
        expected = self._wrap_mac(self._epoch_key, wrapped.nonce,
                                  wrapped.ciphertext)
        if not hmac_mod.compare_digest(expected, wrapped.tag):
            raise ValueError("wrapped key failed authentication")
        from repro.crypto.chacha import chacha20_xor
        self.meter.charge("key_unwrap", self.profile.sha_seconds(96, 1024))
        return chacha20_xor(self._epoch_key, wrapped.nonce, wrapped.ciphertext)

    def rotate_epoch(self, survivors: Iterable[WrappedKey]) -> List[WrappedKey]:
        """Crypto-shred: re-wrap *survivors* under a fresh epoch key.

        Every wrapped DEK *not* in *survivors* becomes permanently
        unrecoverable the moment the old epoch key is destroyed — even
        from hoarded copies of untrusted state.  O(survivors) idle-time
        work per rotation, amortizable across deletion batches.
        """
        self.tamper.check()
        deks = [self.unwrap_key(w) for w in survivors]
        self._epoch_key = secrets.token_bytes(32)  # old key ceases to exist
        self._epoch_id += 1
        self.meter.charge("epoch_nvram", _NVRAM_TOUCH_SECONDS)
        return [self.wrap_key(dek) for dek in deks]

    # -- migration support ---------------------------------------------------------

    def sign_migration_manifest(self, manifest_hash: bytes, record_count: int,
                                sn_base: int, sn_current: int) -> SignedEnvelope:
        """Sign a snapshot manifest for compliant migration (§1).

        The destination store's SCPU verifies this before accepting the
        migrated state as authentic.
        """
        keys = self._keys_or_die()
        self.meter.crossing()
        return self._sign(keys.s_key, Purpose.MIGRATION_MANIFEST, {
            "manifest_hash": manifest_hash,
            "record_count": record_count,
            "sn_base": sn_base,
            "sn_current": sn_current,
        })

    def verify_envelope_batch(
            self, pairs: Iterable[Tuple[SignedEnvelope, object]]) -> List[bool]:
        """Verify foreign SCPUs' envelopes (migration, recovery VERIFY).

        One crossing for many (envelope, public_key) pairs; each pair is
        charged its own verify cost.
        """
        self.tamper.check()
        pairs = list(pairs)
        self.meter.crossing(sum(len(s.signature) for s, _ in pairs))
        results: List[bool] = []
        for signed, key in pairs:
            self.meter.charge(f"rsa_verify_{key.bits}",
                              self.profile.rsa_verify_seconds(key.bits))
            results.append(key.verify(signed.envelope.canonical_bytes(),
                                      signed.signature,
                                      hash_name=signed.hash_name))
        return results


def install_card_ops(cls: type) -> type:
    """Class decorator: one real method per :data:`CARD_OPS` entry.

    Each forwards to ``self._card_call(op, *args, **kwargs)``, the one
    place a pool picks its card, a fault wrapper consults its plan and a
    retry view runs its executor.  Real attributes, not ``__getattr__``,
    keep the surface introspectable; names the class defines itself (the
    pool's lock-step ``rotate_burst_key``) are left alone.
    """
    for name in CARD_OPS:
        if name in vars(cls):
            continue

        def forwarder(self, *args, _op=name, **kwargs):
            return self._card_call(_op, *args, **kwargs)
        forwarder.__name__ = name
        forwarder.__qualname__ = f"{cls.__qualname__}.{name}"
        forwarder.__doc__ = getattr(SecureCoprocessor, name).__doc__
        setattr(cls, name, forwarder)
    return cls
