"""Unit tests for signing keys, lifetimes, and the regulatory CA."""

import hashlib

import pytest

from repro.crypto.envelope import Envelope, Purpose
from repro.crypto.keys import (
    SECURITY_LIFETIME_SECONDS,
    Certificate,
    CertificateAuthority,
    SigningKey,
    security_lifetime,
)
from repro.crypto.rsa import RsaKeyPair, RsaPrivateKey, RsaPublicKey


@pytest.fixture(scope="module")
def s_key():
    return SigningKey.generate(512, role="s")


@pytest.fixture(scope="module")
def module_ca():
    return CertificateAuthority(bits=512)


class TestSecurityLifetimes:
    def test_paper_parameters(self):
        assert security_lifetime(512) == 60 * 60.0  # tens of minutes (§4.3)
        assert security_lifetime(1024) >= 10 * 365 * 24 * 3600.0

    def test_intermediate_sizes_inherit_lower_anchor(self):
        assert security_lifetime(640) == SECURITY_LIFETIME_SECONDS[512]
        assert security_lifetime(1536) == SECURITY_LIFETIME_SECONDS[1024]

    def test_tiny_test_keys_get_short_lifetime(self):
        assert security_lifetime(384) == 10 * 60.0

    def test_monotone_in_bits(self):
        sizes = [384, 512, 768, 1024, 2048, 4096]
        lifetimes = [security_lifetime(b) for b in sizes]
        assert lifetimes == sorted(lifetimes)


class TestSigningKey:
    def test_sign_envelope_verifies(self, s_key):
        env = Envelope(purpose=Purpose.METASIG, fields={"sn": 1}, timestamp=0.0)
        signed = s_key.sign_envelope(env)
        assert s_key.public.verify(env.canonical_bytes(), signed.signature,
                                   hash_name=signed.hash_name)
        assert signed.key_fingerprint == s_key.fingerprint
        assert signed.key_bits == 512

    def test_short_lived_flag(self):
        assert SigningKey.generate(512, role="burst").is_short_lived
        # 512-bit is short-lived; the flag drives strengthening queues.

    def test_hash_selection_by_size(self, s_key):
        assert s_key.hash_name == "sha256"
        small = SigningKey.generate(384, role="test")
        assert small.hash_name == "sha1"
        env = Envelope(purpose="p", fields={}, timestamp=0.0)
        signed = small.sign_envelope(env)
        assert signed.hash_name == "sha1"
        assert small.public.verify(env.canonical_bytes(), signed.signature,
                                   hash_name="sha1")

    def test_public_half_and_fingerprint_are_derived_once(self):
        # The textbook key n = 61 * 53, e = 17, d = 2753.
        private = RsaPrivateKey(n=3233, e=17, d=2753, p=61, q=53, bits=12)
        key = SigningKey(keypair=RsaKeyPair(private=private), role="s")
        assert key.public is key.public
        assert key.fingerprint == hashlib.sha256(
            f"{3233:x}:{17:x}".encode()).hexdigest()[:16]
        assert key.fingerprint == "4a25caad76aea6b7"
        assert key.public == RsaPublicKey(n=3233, e=17, bits=12)
        assert key.public.to_dict() == {"n": "ca1", "e": 17, "bits": 12}
        assert "fingerprint" not in repr(key.public)


class TestCertificateAuthority:
    def test_certify_and_verify(self, module_ca, s_key):
        cert = module_ca.certify(s_key.public, role="s", now=100.0)
        assert CertificateAuthority.verify_certificate(
            cert, module_ca.root_public_key)
        assert cert.role == "s"
        assert cert.issued_at == 100.0

    def test_wrong_ca_rejected(self, module_ca, s_key):
        other_ca = CertificateAuthority(bits=512)
        cert = module_ca.certify(s_key.public, role="s", now=0.0)
        assert not CertificateAuthority.verify_certificate(
            cert, other_ca.root_public_key)

    def test_role_substitution_rejected(self, module_ca, s_key):
        import dataclasses
        cert = module_ca.certify(s_key.public, role="burst", now=0.0)
        upgraded = dataclasses.replace(cert, role="s")
        assert not CertificateAuthority.verify_certificate(
            upgraded, module_ca.root_public_key)

    def test_key_substitution_rejected(self, module_ca, s_key):
        import dataclasses
        cert = module_ca.certify(s_key.public, role="s", now=0.0)
        mallory = SigningKey.generate(512, role="s")
        swapped = dataclasses.replace(cert, public_key=mallory.public)
        assert not CertificateAuthority.verify_certificate(
            swapped, module_ca.root_public_key)

    def test_certificate_purpose_bound(self, module_ca, s_key):
        cert = module_ca.certify(s_key.public, role="s", now=0.0)
        assert cert.signed.purpose == Purpose.KEY_CERTIFICATE
