"""Unit tests for the from-scratch RSA signatures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rsa import (
    RsaPrivateKey,
    RsaPublicKey,
    SignatureError,
    generate_keypair,
)


@pytest.fixture(scope="module")
def kp512():
    return generate_keypair(512)


@pytest.fixture(scope="module")
def kp384():
    return generate_keypair(384)


class TestKeyGeneration:
    def test_modulus_has_exact_bits(self, kp512):
        assert kp512.public.n.bit_length() == 512
        assert kp512.bits == 512

    def test_rejects_odd_bit_count(self):
        with pytest.raises(ValueError):
            generate_keypair(511)

    def test_rejects_tiny_keys(self):
        with pytest.raises(ValueError):
            generate_keypair(256)

    def test_private_consistency(self, kp512):
        priv = kp512.private
        assert priv.p * priv.q == priv.n
        assert (priv.e * priv.d) % ((priv.p - 1) * (priv.q - 1)) == 1

    def test_distinct_keys_each_call(self):
        a = generate_keypair(384)
        b = generate_keypair(384)
        assert a.public.n != b.public.n


class TestSignVerify:
    def test_roundtrip(self, kp512):
        sig = kp512.private.sign(b"retention matters")
        assert kp512.public.verify(b"retention matters", sig)

    def test_wrong_message_rejected(self, kp512):
        sig = kp512.private.sign(b"original")
        assert not kp512.public.verify(b"altered", sig)

    def test_bitflipped_signature_rejected(self, kp512):
        sig = bytearray(kp512.private.sign(b"msg"))
        sig[10] ^= 0x01
        assert not kp512.public.verify(b"msg", bytes(sig))

    def test_wrong_key_rejected(self, kp512):
        other = generate_keypair(512)
        sig = kp512.private.sign(b"msg")
        assert not other.public.verify(b"msg", sig)

    def test_signature_length_matches_modulus(self, kp512):
        sig = kp512.private.sign(b"msg")
        assert len(sig) == 64  # 512 bits

    def test_deterministic(self, kp512):
        assert kp512.private.sign(b"msg") == kp512.private.sign(b"msg")

    def test_empty_message_signs(self, kp512):
        sig = kp512.private.sign(b"")
        assert kp512.public.verify(b"", sig)

    def test_garbage_signature_returns_false_not_raises(self, kp512):
        assert not kp512.public.verify(b"msg", b"not a signature")
        assert not kp512.public.verify(b"msg", b"\x00" * 64)
        assert not kp512.public.verify(b"msg", b"\xff" * 64)

    def test_oversized_signature_value_rejected(self, kp512):
        # A "signature" numerically >= n must be rejected outright.
        bogus = (kp512.public.n + 1).to_bytes(65, "big")[-64:]
        too_big = b"\xff" * 64
        assert not kp512.public.verify(b"msg", bogus)
        assert not kp512.public.verify(b"msg", too_big)

    def test_sha1_fallback_for_small_moduli(self, kp384):
        sig = kp384.private.sign(b"msg", hash_name="sha1")
        assert kp384.public.verify(b"msg", sig, hash_name="sha1")
        # Verifying under the wrong hash fails (DigestInfo binding).
        assert not kp384.public.verify(b"msg", sig, hash_name="sha256")

    def test_sha256_too_big_for_384_bit_modulus(self, kp384):
        with pytest.raises(SignatureError):
            kp384.private.sign(b"msg", hash_name="sha256")

    def test_unsupported_hash_raises(self, kp512):
        with pytest.raises(SignatureError):
            kp512.private.sign(b"msg", hash_name="md5")

    @given(st.binary(min_size=0, max_size=4096))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_arbitrary_messages(self, message):
        kp = _CACHED.setdefault("kp", generate_keypair(512))
        sig = kp.private.sign(message)
        assert kp.public.verify(message, sig)


_CACHED: dict = {}


@pytest.fixture(scope="module")
def kem_keys(kp512):
    return {512: kp512.private, 1024: generate_keypair(1024).private}


class TestRsaKem:
    def test_roundtrip(self, kp512):
        from repro.crypto.rsa import kem_decapsulate, kem_encapsulate
        ciphertext, secret = kem_encapsulate(kp512.public)
        assert kem_decapsulate(kp512.private, ciphertext) == secret
        assert len(secret) == 32

    def test_fresh_secret_per_encapsulation(self, kp512):
        from repro.crypto.rsa import kem_encapsulate
        _, a = kem_encapsulate(kp512.public)
        _, b = kem_encapsulate(kp512.public)
        assert a != b

    def test_wrong_key_never_derives_the_secret(self, kp512):
        from repro.crypto.rsa import kem_decapsulate, kem_encapsulate
        other = generate_keypair(512)
        ciphertext, secret = kem_encapsulate(kp512.public)
        # The wrong key either derives a different secret or rejects the
        # ciphertext outright (when c >= other.n) — never the real secret.
        try:
            assert kem_decapsulate(other.private, ciphertext) != secret
        except SignatureError:
            pass

    @pytest.mark.parametrize("bits", [512, 1024])
    @given(value=st.integers(min_value=0, max_value=(1 << 1024) - 1))
    @settings(max_examples=15, deadline=None)
    def test_decapsulation_is_the_full_size_private_power(self, kem_keys,
                                                          bits, value):
        import hashlib
        from repro.crypto.rsa import kem_decapsulate
        private = kem_keys[bits]
        c = value % private.n
        r = pow(c, private.d, private.n)
        length = private.byte_length
        assert kem_decapsulate(private, c.to_bytes(length, "big")) == \
            hashlib.sha256(r.to_bytes(length, "big")).digest()

    def test_malformed_ciphertext_rejected(self, kp512):
        from repro.crypto.rsa import kem_decapsulate
        with pytest.raises(SignatureError):
            kem_decapsulate(kp512.private, b"short")
        with pytest.raises(SignatureError):
            kem_decapsulate(kp512.private, b"\xff" * 64)  # >= n


class TestSerialization:
    def test_public_key_roundtrip(self, kp512):
        restored = RsaPublicKey.from_dict(kp512.public.to_dict())
        assert restored == kp512.public

    def test_private_key_roundtrip(self, kp512):
        restored = RsaPrivateKey.from_dict(kp512.private.to_dict())
        assert restored == kp512.private
        sig = restored.sign(b"still works")
        assert kp512.public.verify(b"still works", sig)

    def test_fingerprint_stable_and_distinct(self, kp512):
        assert kp512.public.fingerprint() == kp512.public.fingerprint()
        other = generate_keypair(384)
        assert kp512.public.fingerprint() != other.public.fingerprint()
