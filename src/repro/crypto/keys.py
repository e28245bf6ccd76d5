"""Key management: signing keys with lifetimes, and the regulatory CA.

The paper's SCPU "securely maintains two private signature keys, s and d"
whose "public key certificates — signed by a regulatory or general purpose
certificate authority — are made available to clients by the main CPU".
§4.3 adds short-lived burst keys (e.g., 512-bit) whose signatures are only
trusted within a *security lifetime* (the paper assumes 512-bit RSA resists
factoring for 60–180 minutes against the insider).

This module provides:

* :class:`SigningKey` — an RSA key pair annotated with its security
  lifetime, used by the SCPU to issue :class:`~repro.crypto.envelope.SignedEnvelope`s;
* :class:`CertificateAuthority` — the regulatory CA that certifies SCPU
  public keys so clients can bootstrap trust;
* :class:`Certificate` — a CA-signed binding of (key fingerprint, role,
  public key);
* :data:`SECURITY_LIFETIME_SECONDS` — per-modulus-size lifetimes from §4.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.crypto.envelope import Envelope, Purpose, SignedEnvelope
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair

__all__ = [
    "SigningKey",
    "Certificate",
    "CertificateAuthority",
    "SECURITY_LIFETIME_SECONDS",
    "security_lifetime",
]

#: Security lifetime (seconds) per RSA modulus size, following §4.3's
#: conservative assumption: 512-bit composites resist the insider for only
#: tens of minutes (we use the lower bound, 60 minutes); 1024-bit and up
#: are treated as durable for the purposes of the protocol (decades).
SECURITY_LIFETIME_SECONDS: Dict[int, float] = {
    512: 60 * 60.0,           # 60 minutes — short-lived burst signatures
    768: 30 * 24 * 3600.0,    # ~a month; intermediate option
    1024: 20 * 365 * 24 * 3600.0,   # durable (≥ retention horizons)
    2048: 100 * 365 * 24 * 3600.0,  # durable
}


def security_lifetime(bits: int) -> float:
    """Return the assumed security lifetime in seconds for a modulus size.

    Sizes between table entries inherit the lifetime of the next *smaller*
    entry (conservative).  Sizes below 512 get a 10-minute lifetime —
    they only appear in tests.
    """
    known = sorted(SECURITY_LIFETIME_SECONDS)
    chosen: Optional[int] = None
    for size in known:
        if bits >= size:
            chosen = size
    if chosen is None:
        return 10 * 60.0
    return SECURITY_LIFETIME_SECONDS[chosen]


@dataclass(frozen=True)
class SigningKey:
    """An RSA key pair with protocol role and security-lifetime metadata.

    ``role`` is a human-readable tag (``"s"``, ``"d"``, ``"burst"``,
    ``"regulator"``, ``"ca"``) used in certificates; the *cryptographic*
    separation between purposes is enforced by envelope purpose strings,
    not by role alone.
    """

    keypair: RsaKeyPair
    role: str

    @property
    def bits(self) -> int:
        return self.keypair.bits

    @property
    def public(self) -> RsaPublicKey:
        return self.keypair.public

    @property
    def fingerprint(self) -> str:
        return self.keypair.public.fingerprint()

    @property
    def lifetime_seconds(self) -> float:
        """Security lifetime of signatures under this key (§4.3)."""
        return security_lifetime(self.bits)

    @property
    def is_short_lived(self) -> bool:
        """True when signatures need later strengthening (burst keys)."""
        return self.lifetime_seconds < 365 * 24 * 3600.0

    @property
    def hash_name(self) -> str:
        """Digest used under this key.

        SHA-256 whenever the modulus fits its PKCS#1 encoding (≥512 bits);
        tiny test keys fall back to SHA-1.  The choice is bound inside the
        signature (PKCS#1 DigestInfo), so it cannot be downgraded by an
        adversary relabeling the envelope.
        """
        return "sha256" if self.bits >= 512 else "sha1"

    def sign_envelope(self, envelope: Envelope) -> SignedEnvelope:
        """Sign a protocol envelope, producing a client-checkable construct."""
        return self.sign_envelopes([envelope])[0]

    def sign_envelopes(self, envelopes: Sequence[Envelope]
                       ) -> List[SignedEnvelope]:
        """:meth:`sign_envelope` each of *envelopes*, in one signing batch
        (:meth:`~repro.crypto.rsa.RsaPrivateKey.sign_many`)."""
        signatures = self.keypair.private.sign_many(
            [envelope.signed_bytes() for envelope in envelopes],
            hash_name=self.hash_name)
        fingerprint = self.fingerprint
        return [SignedEnvelope(envelope=envelope, signature=signature,
                               key_fingerprint=fingerprint,
                               key_bits=self.bits, scheme="rsa",
                               hash_name=self.hash_name)
                for envelope, signature in zip(envelopes, signatures)]

    @classmethod
    def generate(cls, bits: int, role: str) -> "SigningKey":
        """Generate a fresh signing key for *role* with an n-bit modulus."""
        return cls(keypair=generate_keypair(bits), role=role)


@dataclass(frozen=True)
class Certificate:
    """A CA-signed binding of an SCPU (or regulator) public key to a role.

    Clients verify the CA signature once, then trust envelopes signed by
    the certified key for the certified role.
    """

    public_key: RsaPublicKey
    role: str
    issued_at: float
    signed: SignedEnvelope

    @property
    def fingerprint(self) -> str:
        return self.public_key.fingerprint()


class CertificateAuthority:
    """The regulatory / general-purpose CA of §4.2.1.

    Holds a root key; issues certificates over SCPU public keys.  In the
    threat model the CA is trusted (it stands in for the regulatory
    authority); the insider cannot forge CA signatures.
    """

    def __init__(self, bits: int = 1024, root_key: Optional[SigningKey] = None) -> None:
        self._root = root_key if root_key is not None else SigningKey.generate(bits, role="ca")

    @property
    def root_public_key(self) -> RsaPublicKey:
        """The CA public key clients embed as their trust anchor."""
        return self._root.public

    def certify(self, public_key: RsaPublicKey, role: str, now: float) -> Certificate:
        """Issue a certificate binding *public_key* to *role* at time *now*."""
        envelope = Envelope(
            purpose=Purpose.KEY_CERTIFICATE,
            fields={
                "subject_n": f"{public_key.n:x}",
                "subject_e": public_key.e,
                "subject_bits": public_key.bits,
                "role": role,
            },
            timestamp=now,
        )
        return Certificate(
            public_key=public_key,
            role=role,
            issued_at=now,
            signed=self._root.sign_envelope(envelope),
        )

    @staticmethod
    def verify_certificate(cert: Certificate, ca_public_key: RsaPublicKey) -> bool:
        """Client-side check that *cert* was issued by the trusted CA.

        Verifies both the CA signature and that the certificate envelope
        actually binds the public key the certificate claims to carry.
        """
        env = cert.signed.envelope
        if env.purpose != Purpose.KEY_CERTIFICATE:
            return False
        if env.fields.get("subject_n") != f"{cert.public_key.n:x}":
            return False
        if env.fields.get("subject_e") != cert.public_key.e:
            return False
        if env.fields.get("subject_bits") != cert.public_key.bits:
            return False
        if env.fields.get("role") != cert.role:
            return False
        return ca_public_key.verify(env.canonical_bytes(), cert.signed.signature,
                                    hash_name=cert.signed.hash_name)
