"""Typed, signed envelopes for every SCPU-issued construct.

The paper's protocol signs several *kinds* of statements with the same
SCPU keys: VRD metasig and datasig, window bounds (``S_s(SN_base)``,
``S_s(SN_current)``), deletion-window upper/lower bounds, and deletion
proofs ``S_d(SN)``.  A classic implementation pitfall is signing raw
field bytes, which lets a malicious main CPU *splice* a signature issued
for one purpose into a different protocol slot (e.g., present a signed
``SN_current`` as a deletion proof).  The paper itself calls this out for
window bounds ("the upper and lower deletion window bounds will need to
be correlated ... This correlation prevents the main CPU to combine two
unrelated window bounds").

Every signature in this reproduction is therefore an :class:`Envelope`: a
canonical, unambiguous serialization of ``(purpose, fields, timestamp)``.
Purpose strings are part of the signed bytes, so a signature can never be
replayed across purposes; timestamps enable freshness checks (§4.2.1
mechanism (ii)); window IDs live in the fields and correlate bound pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Union

__all__ = ["Envelope", "SignedEnvelope", "Purpose", "FieldValue",
           "canonical_encoding"]

FieldValue = Union[int, str, bytes]


class Purpose:
    """Namespace of envelope purpose tags (the protocol's statement kinds)."""

    METASIG = "worm.metasig"              # S_s(SN, attr)
    DATASIG = "worm.datasig"              # S_s(SN, Hash(data))
    SN_BASE = "worm.window.sn_base"       # S_s(SN_base) with expiry
    SN_CURRENT = "worm.window.sn_current"  # S_s(SN_current) with timestamp
    DELETION_PROOF = "worm.deletion"      # S_d(SN)
    WINDOW_LOWER = "worm.delwindow.lower"  # deletion-window lower bound
    WINDOW_UPPER = "worm.delwindow.upper"  # deletion-window upper bound
    LITIGATION_CREDENTIAL = "worm.litigation.credential"  # S_reg(SN, time)
    MIGRATION_MANIFEST = "worm.migration.manifest"  # signed store snapshot
    KEY_CERTIFICATE = "worm.key.certificate"  # CA signature over SCPU pubkey
    ATTESTATION = "worm.attestation"          # signed SCPU state summary
    MERKLE_ROOT = "worm.auth.merkle.root"     # signed tree root (merkle scheme)
    ACCUMULATOR_VALUE = "worm.auth.acc.value"  # signed accumulator statement


def _encode_value(value: FieldValue) -> bytes:
    """Encode one field value with an unambiguous type tag."""
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("boolean field values are ambiguous; use int 0/1")
    if isinstance(value, int):
        raw = str(value).encode("ascii")
        tag = b"i"
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        tag = b"s"
    elif isinstance(value, bytes):
        raw = value
        tag = b"b"
    else:
        raise TypeError(f"unsupported envelope field type: {type(value)!r}")
    return tag + len(raw).to_bytes(8, "big") + raw


def canonical_encoding(purpose: str, fields: Mapping[str, FieldValue],
                       timestamp: float) -> bytes:
    """Deterministic serialization of a statement's values — the exact
    bytes that get signed.  :meth:`Envelope.canonical_bytes` applies it
    to an envelope's current values."""
    parts = [b"SWORM1"]
    purpose_raw = purpose.encode("utf-8")
    parts.append(len(purpose_raw).to_bytes(4, "big"))
    parts.append(purpose_raw)
    # Timestamps are signed at microsecond granularity to avoid float
    # representation ambiguity across platforms.
    parts.append(int(round(timestamp * 1_000_000)).to_bytes(12, "big", signed=True))
    parts.append(len(fields).to_bytes(4, "big"))
    for name in sorted(fields):
        name_raw = name.encode("utf-8")
        parts.append(len(name_raw).to_bytes(4, "big"))
        parts.append(name_raw)
        parts.append(_encode_value(fields[name]))
    return b"".join(parts)


@dataclass(frozen=True)
class Envelope:
    """An unsigned protocol statement: purpose + named fields + timestamp.

    ``timestamp`` is virtual time (seconds) from the SCPU's internal
    tamper-protected clock.  Canonical byte encoding sorts fields by name
    and length-prefixes everything, so there is exactly one byte string
    per logical statement.

    ``fields`` is a read-only view of a private copy of the mapping the
    envelope was built from.  :meth:`canonical_bytes` encodes the current
    values afresh on every call; :meth:`signed_bytes` encodes once and
    keeps the result, for the signer and for readers that take no values
    from the envelope itself.  A doctored statement is a new envelope
    (``dataclasses.replace``), encoded afresh.
    """

    purpose: str
    fields: Mapping[str, FieldValue] = field(default_factory=dict)
    timestamp: float = 0.0
    # The encoding signed_bytes() made on its first call.
    _signed: Optional[bytes] = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields",
                           MappingProxyType(dict(self.fields)))

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization — the exact bytes that get signed.

        Encoded from the current values on every call, so a check that
        goes on to trust ``purpose``, ``fields`` or ``timestamp`` checks
        exactly those values.
        """
        return canonical_encoding(self.purpose, self.fields, self.timestamp)

    def signed_bytes(self) -> bytes:
        """:meth:`canonical_bytes` as first encoded, kept for later calls.

        The signer signs these bytes, and the client's signature memo and
        the host's size accounting share them.  The untrusted host holds
        every stored envelope and can rewrite its values in place without
        touching the kept bytes, so a reader that trusts the values must
        take them from a copy it checked against these bytes (as
        ``WormClient`` does, with :func:`canonical_encoding`) or encode
        afresh with :meth:`canonical_bytes` (as the SCPU does).
        """
        encoded = self._signed
        if encoded is None:
            encoded = self.canonical_bytes()
            object.__setattr__(self, "_signed", encoded)
        return encoded


@dataclass(frozen=True)
class SignedEnvelope:
    """An envelope together with a signature and the signing-key metadata.

    ``key_fingerprint`` identifies which SCPU key signed it (``s`` vs
    ``d`` vs a short-lived burst key); ``key_bits`` records the modulus
    size so clients and the strengthening scheduler can tell short-lived
    (512-bit) constructs from durable ones; ``scheme`` is ``"rsa"`` or
    ``"hmac"`` (HMAC tags are not client-verifiable).
    """

    envelope: Envelope
    signature: bytes
    key_fingerprint: str
    key_bits: int
    scheme: str = "rsa"
    hash_name: str = "sha256"

    @property
    def purpose(self) -> str:
        return self.envelope.purpose

    @property
    def timestamp(self) -> float:
        return self.envelope.timestamp

    def field(self, name: str) -> FieldValue:
        """Convenience accessor for a named envelope field."""
        return self.envelope.fields[name]

    def to_dict(self) -> Dict:
        """JSON-friendly representation (bytes hex-encoded) for storage."""
        encoded_fields = {}
        for name, value in self.envelope.fields.items():
            if isinstance(value, bytes):
                encoded_fields[name] = {"t": "b", "v": value.hex()}
            elif isinstance(value, int):
                encoded_fields[name] = {"t": "i", "v": value}
            else:
                encoded_fields[name] = {"t": "s", "v": value}
        return {
            "purpose": self.envelope.purpose,
            "timestamp": self.envelope.timestamp,
            "fields": encoded_fields,
            "signature": self.signature.hex(),
            "key_fingerprint": self.key_fingerprint,
            "key_bits": self.key_bits,
            "scheme": self.scheme,
            "hash_name": self.hash_name,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SignedEnvelope":
        fields: Dict[str, FieldValue] = {}
        for name, enc in data["fields"].items():
            if enc["t"] == "b":
                fields[name] = bytes.fromhex(enc["v"])
            elif enc["t"] == "i":
                fields[name] = int(enc["v"])
            else:
                fields[name] = str(enc["v"])
        return cls(
            envelope=Envelope(
                purpose=data["purpose"],
                fields=fields,
                timestamp=float(data["timestamp"]),
            ),
            signature=bytes.fromhex(data["signature"]),
            key_fingerprint=data["key_fingerprint"],
            key_bits=int(data["key_bits"]),
            scheme=data.get("scheme", "rsa"),
            hash_name=data.get("hash_name", "sha256"),
        )
