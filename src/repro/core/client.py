"""Client-side verification — the checking that makes WORM *strong*.

Clients "only need to trust the SCPU" (§4.1): every answer the untrusted
main CPU gives is accompanied by SCPU-signed constructs, and this module
is the verifier a client runs over them.  A read of SN ``v`` is believed
only if one of the five proof cases checks out (see
:mod:`repro.core.proofs`); anything else raises
:class:`~repro.core.errors.VerificationError` — the detection events of
Theorems 1 and 2.

Trust bootstrap: the client holds the regulatory CA's public key and
receives certificates for the SCPU's ``s``, ``d`` and burst keys from the
main CPU (§4.2.1); it verifies each certificate once, then accepts
envelopes under the certified keys for their certified roles.

Freshness: the client "will not accept values older than a few minutes"
for ``S_s(SN_current)`` (§4.2.1, mechanism (ii)) — a stale upper bound is
exactly how an insider hides recently written records.  Short-lived burst
signatures are accepted only inside their §4.3 security lifetime; a
record still weakly signed after its construct's lifetime has lapsed is a
system in violation and is rejected.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.core.errors import FreshnessError, VerificationError
from repro.core.locator import RecordLocator
from repro.core.proofs import (
    ActiveProof,
    BaseBoundProof,
    DeletionProofResponse,
    DeletionWindowProof,
    NeverAllocatedProof,
    ProofKind,
    ReadResult,
    RecordPath,
)
from repro.crypto.envelope import (FieldValue, Purpose, SignedEnvelope,
                                   canonical_encoding)
from repro.crypto.hashing import data_tree, path_root
from repro.crypto.keys import Certificate, CertificateAuthority, security_lifetime
from repro.crypto.rsa import RsaPublicKey
from repro.storage.record import RecordAttributes
from repro.storage.vrd import VirtualRecordDescriptor

__all__ = ["WormClient", "VerifiedRead"]

#: Tolerated forward clock skew between client and SCPU (seconds).
_CLOCK_SKEW = 60.0

#: Default capacity of the client's verified-signature memo (entries).
_SIG_CACHE_SIZE = 256

#: Every value a VRD's attributes encode, read in one call.
_attr_values = attrgetter(*(f.name for f in fields(RecordAttributes)))

#: A statement as the client verified it: purpose, timestamp, fields.
_Statement = Tuple[str, float, Dict[str, FieldValue]]


@dataclass(frozen=True)
class VerifiedRead:
    """The outcome of a fully verified read.

    ``record_index`` names the verified record of an active VR when the
    read was of one record (``data`` is then that record); it is
    ``None`` for a whole-VR read, whose ``data`` joins every record.
    """

    sn: int
    status: str                 # "active" | "deleted" | "never-allocated"
    proof_kind: str
    data: bytes = b""
    weakly_signed: bool = False  # True when accepted under a burst key
    record_index: Optional[int] = None


class WormClient:
    """A verifying WORM client with its own (roughly synchronized) clock."""

    def __init__(self, ca_public_key: RsaPublicKey,
                 certificates: Iterable[Certificate],
                 clock, freshness_window: float = 300.0,
                 accept_unverifiable: bool = False,
                 signature_cache_size: int = _SIG_CACHE_SIZE) -> None:
        self._ca_key = ca_public_key
        self._clock = clock
        self.freshness_window = freshness_window
        self.accept_unverifiable = accept_unverifiable
        # fingerprint -> (public key, role)
        self._trusted: Dict[str, Tuple[RsaPublicKey, str]] = {}
        # LRU memo of signatures that already verified, each with the
        # statement it verified; see _verified_statement.
        self._sig_cache: \
            "OrderedDict[Tuple[str, str, bytes, bytes], _Statement]" \
            = OrderedDict()
        self._sig_cache_size = signature_cache_size
        # signed attribute bytes -> values checked to encode to them, LRU
        # like the signature memo; see _attrs_signed.
        self._attr_cache: "OrderedDict[bytes, tuple]" = OrderedDict()
        self.sig_cache_hits = 0
        self.sig_cache_misses = 0
        for cert in certificates:
            self.add_certificate(cert)

    # -- trust management -----------------------------------------------------

    def add_certificate(self, cert: Certificate) -> None:
        """Admit a CA-certified SCPU key (e.g., a rotated burst key)."""
        if not CertificateAuthority.verify_certificate(cert, self._ca_key):
            raise VerificationError(
                f"certificate for role {cert.role!r} fails CA verification")
        self._trusted[cert.fingerprint] = (cert.public_key, cert.role)

    @property
    def now(self) -> float:
        return self._clock.now

    # -- envelope primitives -----------------------------------------------------

    def _check_envelope(self, signed: SignedEnvelope, purpose: str,
                        roles: Tuple[str, ...],
                        fresh: bool = False) -> Mapping[str, FieldValue]:
        """Verify signature, purpose, signer role, and burst-key lifetime,
        and with *fresh* the freshness window; return the fields verified.

        The fields, purpose and timestamp checked are the client's own
        copy, checked to encode to the signed bytes.  Callers read the
        returned fields, never *signed*'s, which the host holds and can
        rewrite in place after its bytes were encoded.  (An HMAC construct
        let through by ``accept_unverifiable`` returns its own fields.)
        """
        if signed.scheme == "hmac":
            if self.accept_unverifiable:
                if fresh:
                    self._check_fresh(signed.timestamp)
                return signed.envelope.fields
            raise VerificationError(
                "construct is HMAC-witnessed and not yet client-verifiable")
        if signed.envelope.purpose != purpose:
            raise VerificationError(
                f"envelope purpose {signed.envelope.purpose!r} != expected {purpose!r}")
        trusted = self._trusted.get(signed.key_fingerprint)
        if trusted is None:
            raise VerificationError("envelope signed by an unknown key")
        public_key, role = trusted
        if role not in roles:
            raise VerificationError(
                f"envelope signed by role {role!r}; expected one of {roles}")
        statement = self._verified_statement(signed, public_key)
        if statement is None:
            raise VerificationError(f"signature check failed for {purpose}")
        signed_purpose, timestamp, fields = statement
        if signed_purpose != purpose:
            raise VerificationError(
                f"envelope purpose {signed_purpose!r} != expected {purpose!r}")
        if role == "burst":
            lifetime = security_lifetime(public_key.bits)
            if self.now > timestamp + lifetime:
                raise FreshnessError(
                    "short-lived signature outlived its security lifetime "
                    "without being strengthened")
        if fresh:
            self._check_fresh(timestamp)
        return fields

    def _verified_statement(self, signed: SignedEnvelope,
                            public_key: RsaPublicKey
                            ) -> Optional[_Statement]:
        """RSA-verify with a bounded memo of past successes.

        Repeated reads re-present the same signed constructs — the
        shared ``S_s(SN_current)``, a hot record's metasig/datasig,
        deletion-window bounds — and a signature that verified once
        verifies forever.  The memo key binds signer, hash, signature
        *and* the signed bytes, so a valid signature replayed onto
        different envelope contents still misses and fails the real
        check.  Time-dependent checks (freshness windows, burst-key
        lifetimes) stay outside the memo.

        The signed bytes are the ones the envelope kept
        (:meth:`~repro.crypto.envelope.Envelope.signed_bytes`), so a hit
        encodes nothing.  With each key the memo holds the statement's
        purpose, timestamp and a copy of its fields, taken on the miss
        and checked to encode to those bytes; a hit returns them.  Values
        the host rewrote in place after the bytes were kept are never
        read: a miss over them fails the encoding check, and a hit
        returns the values signed.  Returns None when the signature does
        not hold.
        """
        envelope = signed.envelope
        message = envelope.signed_bytes()
        key = (signed.key_fingerprint, signed.hash_name, signed.signature,
               message)
        statement = self._sig_cache.get(key)
        if statement is not None:
            self._sig_cache.move_to_end(key)
            self.sig_cache_hits += 1
            return statement
        self.sig_cache_misses += 1
        # Plain values only: the memo keeps no objects the collector
        # must trace.
        statement = (envelope.purpose, envelope.timestamp,
                     dict(envelope.fields))
        if canonical_encoding(statement[0], statement[2],
                              statement[1]) != message:
            return None
        if not public_key.verify(message, signed.signature,
                                 hash_name=signed.hash_name):
            return None
        self._sig_cache[key] = statement
        if len(self._sig_cache) > self._sig_cache_size:
            self._sig_cache.popitem(last=False)
        return statement

    def _attrs_signed(self, attr: RecordAttributes, signed: bytes) -> bool:
        """Do *attr*'s current values encode to the *signed* bytes?

        Values that equal ones already checked against these bytes need
        no encoding: equal values encode alike.  The values are read
        from *attr* on every call, so a rewrite in place is always seen.
        """
        values = _attr_values(attr)
        if self._attr_cache.get(signed) == values:
            self._attr_cache.move_to_end(signed)
            return True
        if attr.canonical_bytes() != signed:
            return False
        self._attr_cache[signed] = values
        if len(self._attr_cache) > self._sig_cache_size:
            self._attr_cache.popitem(last=False)
        return True

    def _check_fresh(self, timestamp: float) -> None:
        """Enforce the freshness window on a verified statement's timestamp."""
        age = self.now - timestamp
        if age > self.freshness_window:
            raise FreshnessError(
                f"construct is {age:.0f}s old; freshness window is "
                f"{self.freshness_window:.0f}s")
        if timestamp > self.now + _CLOCK_SKEW:
            raise FreshnessError("construct timestamp is in the future")

    def _sn_current_value(self, signed: SignedEnvelope) -> int:
        """Validate and extract a fresh S_s(SN_current)."""
        return int(self._check_envelope(signed, Purpose.SN_CURRENT,
                                        roles=("s",), fresh=True)["sn_current"])

    # -- VRD verification -----------------------------------------------------------

    def verify_vrd(self, vrd: VirtualRecordDescriptor,
                   records: Tuple[bytes, ...],
                   record_path: Optional[RecordPath] = None,
                   record_index: Optional[int] = None) -> bool:
        """Check metasig and datasig of an active VRD against actual data.

        *records* is the whole VR, or — with *record_path* — the one
        record it locates.  That record's siblings take their sides from
        *record_index* (the index the reader asked for) and from the leaf
        count sealed into the signed root.  A reader who named only the
        SN (*record_index* ``None``) asked for the whole VR, so a path is
        accepted then only when its one record is the whole VR: a
        one-record answer to an SN read of a larger VR would be a
        truncated record list (Theorem 1).  Returns True when both
        signatures hold over (SN, attr) and (SN, Hash(data)); raises on
        any mismatch.
        """
        metasig = self._check_envelope(vrd.metasig, Purpose.METASIG,
                                       roles=("s", "burst"))
        if metasig["sn"] != vrd.sn:
            raise VerificationError("metasig signs a different SN")
        if not self._attrs_signed(vrd.attr, metasig["attr"]):
            raise VerificationError("metasig does not match the VRD attributes")

        datasig = self._check_envelope(vrd.datasig, Purpose.DATASIG,
                                       roles=("s", "burst"))
        if datasig["sn"] != vrd.sn:
            raise VerificationError("datasig signs a different SN")
        if record_path is None:
            if len(records) != len(vrd.rdl):
                raise VerificationError("record count does not match the RDL")
            root = data_tree(records).root
        else:
            if len(records) != 1:
                raise VerificationError(
                    "a record path must come with exactly one record")
            if record_index is None:
                if record_path.count != 1:
                    raise VerificationError(
                        "store served one record of a VR read as a whole")
                record_index = 0
            elif record_path.index != record_index:
                raise VerificationError(
                    "store served a different record of the VR")
            root = path_root(records[0], record_index, record_path.count,
                             record_path.siblings)
        if root != datasig["data_hash"]:
            raise VerificationError("record data does not match datasig")
        return True

    def verify_active(self, result: ReadResult, requested_sn: int,
                      record_index: Optional[int],
                      proof_kind: str) -> VerifiedRead:
        """The active case every scheme shares, once its own proof held.

        Verifies the VRD and the served data, then reports the record
        (or the whole VR) and whether a burst key or HMAC witnessed it.
        """
        if result.status != "active" or result.vrd is None:
            raise VerificationError("active proof without an active record")
        self.verify_vrd(result.vrd, result.records, result.record_path,
                        record_index)
        if record_index is None:
            index: Optional[int] = None
            data = result.data
        elif result.record_path is not None:
            index, data = record_index, result.records[0]
        else:
            if record_index >= len(result.records):
                raise VerificationError(
                    "store did not serve the requested record")
            index, data = record_index, result.records[record_index]
        weak = (result.vrd.metasig.scheme == "hmac"
                or self._trusted.get(result.vrd.metasig.key_fingerprint,
                                     (None, ""))[1] == "burst")
        return VerifiedRead(sn=requested_sn, status="active",
                            proof_kind=proof_kind, data=data,
                            weakly_signed=weak, record_index=index)

    # -- the read-proof case analysis ---------------------------------------------------

    def verify_read(self, result: ReadResult,
                    requested: Union[int, RecordLocator]) -> VerifiedRead:
        """Verify a store response end-to-end; raises on any tampering.

        This is the exhaustive case analysis of §4.2.2: every status the
        store may claim must be backed by the matching proof, and the
        claims are cross-checked against what was requested — a serial
        number, or a :class:`RecordLocator` naming one record of the VR
        (its shard id is routing only).
        """
        if isinstance(requested, RecordLocator):
            requested_sn: int = requested.sn
            record_index: Optional[int] = requested.record_index
        else:
            requested_sn, record_index = requested, None
        if result.sn != requested_sn:
            raise VerificationError("store answered for a different SN")
        proof = result.proof

        if isinstance(proof, ActiveProof):
            # The companion S_s(SN_current) is validated for authenticity
            # but not freshness here: for a *successful* read, metasig and
            # datasig alone prove authenticity, and the signed bound may
            # legitimately lag a very recent write by up to one refresh
            # interval.  Freshness only matters when the store *denies*
            # existence (the never-allocated case below).
            self._check_envelope(proof.sn_current, Purpose.SN_CURRENT, roles=("s",))
            return self.verify_active(result, requested_sn, record_index,
                                      ProofKind.ACTIVE)

        if isinstance(proof, DeletionProofResponse):
            statement = self._check_envelope(proof.proof,
                                             Purpose.DELETION_PROOF,
                                             roles=("d",))
            if statement["sn"] != requested_sn:
                raise VerificationError("deletion proof names a different SN")
            return VerifiedRead(sn=requested_sn, status="deleted",
                                proof_kind=ProofKind.DELETION_PROOF)

        if isinstance(proof, BaseBoundProof):
            statement = self._check_envelope(proof.sn_base, Purpose.SN_BASE,
                                             roles=("s",))
            expires_at = int(statement["expires_at_us"]) / 1e6
            if self.now >= expires_at:
                raise FreshnessError("S_s(SN_base) has expired; demand a fresh one")
            if requested_sn >= int(statement["sn_base"]):
                raise VerificationError(
                    "SN is not below the signed base; proof does not apply")
            return VerifiedRead(sn=requested_sn, status="deleted",
                                proof_kind=ProofKind.BELOW_BASE)

        if isinstance(proof, DeletionWindowProof):
            lower = self._check_envelope(proof.lower, Purpose.WINDOW_LOWER,
                                         roles=("s",))
            upper = self._check_envelope(proof.upper, Purpose.WINDOW_UPPER,
                                         roles=("s",))
            if lower["window_id"] != upper["window_id"]:
                raise VerificationError(
                    "window bounds are not correlated (spliced windows)")
            low = int(lower["sn"])
            high = int(upper["sn"])
            if not low <= requested_sn <= high:
                raise VerificationError("SN is outside the claimed deletion window")
            return VerifiedRead(sn=requested_sn, status="deleted",
                                proof_kind=ProofKind.DELETION_WINDOW)

        if isinstance(proof, NeverAllocatedProof):
            sn_current = self._sn_current_value(proof.sn_current)
            if requested_sn <= sn_current:
                raise VerificationError(
                    "store claims never-allocated for an SN inside the window "
                    "(record hiding)")
            return VerifiedRead(sn=requested_sn, status="never-allocated",
                                proof_kind=ProofKind.NEVER_ALLOCATED)

        # Proof objects from pluggable authentication schemes carry a
        # ``scheme`` discriminator; dispatch to the registered scheme's
        # verifier.  Imported lazily: repro.core.auth imports this module.
        scheme_name = getattr(proof, "scheme", None)
        if isinstance(scheme_name, str):
            from repro.core.auth import resolve_scheme
            from repro.core.errors import UnknownAlgorithmError
            try:
                scheme_cls = resolve_scheme(scheme_name)
            except UnknownAlgorithmError as exc:
                raise VerificationError(
                    f"proof claims unknown scheme {scheme_name!r}") from exc
            return scheme_cls.client_verify(self, result, requested_sn,
                                            record_index)

        raise VerificationError(f"unrecognized proof object: {proof!r}")
