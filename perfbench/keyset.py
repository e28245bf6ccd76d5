"""Seeded key material at the paper's parameters.

An SCPU's keys are made once, at manufacture, so the benchmark
provisions them before its set-up clock starts.  The library's own
generator draws from ``secrets``, which would make every run's keys (and
the time spent finding them) different; here the primes come from a
``random.Random`` seeded by the run's ``--seed``, so the same seed gives
the same keys, and therefore byte-identical signatures.  (The library's
primality test draws its witnesses from ``secrets``; a prime passes
whichever it draws, so only the candidates need the seed.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import CertificateAuthority, SigningKey
from repro.crypto.numtheory import is_probable_prime
from repro.crypto.rsa import PUBLIC_EXPONENT, RsaKeyPair, RsaPrivateKey
from repro.hardware.scpu import ScpuKeyring

#: Durable ``s``/``d`` keys and the CA root (paper §4.3: >= 1024 bits).
STRONG_BITS = 1024
#: Short-lived burst key (paper §4.3: 512 bits).
BURST_BITS = 512


def _prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (0b11 << (bits - 2)) | 1
        if (candidate - 1) % PUBLIC_EXPONENT and is_probable_prime(candidate):
            return candidate


def signing_key(bits: int, role: str, rng: random.Random) -> SigningKey:
    """An RSA signing key with an exactly *bits*-bit modulus."""
    while True:
        p, q = _prime(bits // 2, rng), _prime(bits // 2, rng)
        n = p * q
        if p != q and n.bit_length() == bits:
            break
    d = pow(PUBLIC_EXPONENT, -1, (p - 1) * (q - 1))
    private = RsaPrivateKey(n=n, e=PUBLIC_EXPONENT, d=d, p=p, q=q, bits=bits)
    return SigningKey(keypair=RsaKeyPair(private=private), role=role)


def keyring(rng: random.Random) -> ScpuKeyring:
    """One card's ``s``, ``d``, burst and HMAC keys."""
    return ScpuKeyring(
        s_key=signing_key(STRONG_BITS, "s", rng),
        d_key=signing_key(STRONG_BITS, "d", rng),
        burst_key=signing_key(BURST_BITS, "burst", rng),
        hmac=HmacScheme(key=rng.randbytes(32)),
    )


@dataclass(frozen=True)
class KeySet:
    """Everything provisioned before set-up: two sites' cards and the CA."""

    primary: ScpuKeyring
    standby: ScpuKeyring
    ca: CertificateAuthority


def provision(seed: int) -> KeySet:
    """The key material of a run with *seed* (same seed, same keys)."""
    rng = random.Random(f"perfbench-keys:{seed}")
    ca = CertificateAuthority(root_key=signing_key(STRONG_BITS, "ca", rng))
    return KeySet(primary=keyring(rng), standby=keyring(rng), ca=ca)
